"""Exact rational linear algebra over sparse vectors.

Vectors are dicts mapping a hashable key to a nonzero rational (an int or
a Fraction).  A subspace is kept as a reduced row basis, one row per pivot
key.  Keys are ordered by their own total order, so that pivot selection,
and hence the surviving quotient basis, is deterministic.

Zero paths and two-term relations never come here: the relation ideal
(``presentation.PathIdeal``) settles them with a weighted union-find.
``SparseSpace`` serves the normal forms of relations with three or more
terms, keyed by integer path ids; the cycle space of the homology proxy,
keyed by arrow names; and the tests, whose full-elimination reference
ideal, keyed by ``path_key`` tuples, checks the union-find.
"""

from __future__ import annotations

from fractions import Fraction


class SparseSpace:
    """Row space in reduced echelon form with deterministic pivot order.

    Elimination always pivots on the largest key of a row, so the smallest
    keys survive as representatives of the quotient.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> reduced row (dict key->Fraction)

    def _reduce(self, vec):
        """Reduce vec against the current rows; returns a new dict."""
        vec = dict(vec)
        for pivot in sorted(vec, reverse=True):
            if pivot not in vec:
                continue
            row = self.rows.get(pivot)
            if row is None:
                continue
            coef = vec[pivot]
            for k, c in row.items():
                new = vec.get(k, 0) - coef * c
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec):
        """Insert vec into the space; returns True if the rank grew."""
        vec = self._reduce(vec)
        if not vec:
            return False
        pivot = max(vec)
        inv = Fraction(1) / vec[pivot]
        row = {k: c * inv for k, c in vec.items()}
        # keep existing rows reduced against the new pivot
        for p, other in list(self.rows.items()):
            if pivot in other:
                coef = other[pivot]
                for k, c in row.items():
                    new = other.get(k, 0) - coef * c
                    if new:
                        other[k] = new
                    else:
                        other.pop(k, None)
        self.rows[pivot] = row
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    @property
    def rank(self):
        return len(self.rows)
