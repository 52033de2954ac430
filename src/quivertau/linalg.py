"""Exact linear algebra over sparse integer vectors.

Vectors are dicts mapping a hashable key to a nonzero rational (an int or
a Fraction).  ``SparseSpace`` clears a vector's denominators on entry and
eliminates fraction-free from there: a vector is reduced against a row by
``p*vec - c*row``, with ``p`` the row's pivot coefficient and ``c`` the
vector's at that key, both divided by their gcd, so every row it keeps
holds ints only.  Keys are ordered by their own total order,
so that pivot selection, and hence the surviving quotient basis, is
deterministic.

Fractions remain only where the input is rational: at parse and serialize,
and in the ratios of binomial relations whose two coefficients do not
divide (the relation ideal's union-find keeps those ratios exact).

Zero paths and two-term relations never come here: the relation ideal
(``presentation.PathIdeal``) settles them with a weighted union-find.
``SparseSpace`` serves the normal forms of relations with three or more
terms, keyed by integer path ids, and the cycle space of the homology
proxy, keyed by arrow names.  The tests check it against a Fraction
elimination of their own (``FractionSpace`` in ``tests/conftest.py``).
"""

from __future__ import annotations

from math import gcd, lcm


def _integral(vec):
    """A copy of vec with its denominators cleared and zeros dropped."""
    if all(type(c) is int for c in vec.values()):
        return {k: c for k, c in vec.items() if c}
    den = lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in vec.items() if c}


class SparseSpace:
    """Row space in reduced echelon form with deterministic pivot order.

    Elimination always pivots on the largest key of a row, so the smallest
    keys survive as representatives of the quotient.  Each row is the
    primitive integer multiple, with a positive pivot coefficient, of the
    row of the reduced rational echelon form, so rows are canonical.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> primitive int row (dict key->int)

    def _reduce(self, vec):
        """Reduce the int vector vec against the rows, in place; returns
        it, a positive multiple of its rational reduction."""
        rows = self.rows
        for pivot in sorted(vec, reverse=True):
            row = rows.get(pivot)
            if row is None:
                continue
            # rows hold no other row's pivot, so vec keeps this key so far
            c, p = vec[pivot], row[pivot]
            g = gcd(p, c)
            if g != 1:
                p //= g
                c //= g
            if p != 1:
                for k in vec:
                    vec[k] *= p
            for k, r in row.items():
                new = vec.get(k, 0) - c * r
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec):
        """Insert vec into the space; returns True if the rank grew."""
        vec = self._reduce(_integral(vec))
        if not vec:
            return False
        pivot = max(vec)
        g = gcd(*vec.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            vec = {k: c // g for k, c in vec.items()}
        p = vec[pivot]
        # keep existing rows reduced against the new pivot
        for other in self.rows.values():
            c = other.get(pivot)
            if c is None:
                continue
            g = gcd(p, c)
            q, c = p // g, c // g
            if q != 1:
                for k in other:
                    other[k] *= q
            for k, r in vec.items():
                new = other.get(k, 0) - c * r
                if new:
                    other[k] = new
                else:
                    other.pop(k, None)
            g = gcd(*other.values())
            if g != 1:
                for k in other:
                    other[k] //= g
        self.rows[pivot] = vec
        return True

    def contains(self, vec):
        return not self._reduce(_integral(vec))

    @property
    def rank(self):
        return len(self.rows)
