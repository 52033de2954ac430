"""Special biserial recognition and band search for monomial string algebras.

A band (a cyclic reduced walk avoiding zero compositions in both reading
directions) certifies that a string algebra is representation-infinite;
its absence at a sufficient length bound, together with the finiteness of
the string set, certifies finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import BadParameterError
from .presentation import (
    CyclicQuiverError,
    QuivertauError,
    zero_pair_test,
    zero_relation_paths,
)


class NotStringAlgebraError(QuivertauError):
    pass


@dataclass(frozen=True)
class SpecialBiserialReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class StringWord:
    """Alternating word in arrows and formal inverses."""

    letters: tuple[tuple[str, bool], ...]  # (arrow name, is_direct)

    def __str__(self):
        return ".".join(n if d else f"{n}-" for n, d in self.letters)

    def inverse(self):
        return StringWord(tuple((n, not d)
                                for n, d in reversed(self.letters)))

    def rotations(self):
        k = len(self.letters)
        for i in range(k):
            yield StringWord(self.letters[i:] + self.letters[:i])


def special_biserial_check(pres):
    """Degree and composition-uniqueness conditions for special biseriality."""
    q = pres.quiver
    if not q.is_acyclic():  # bands need an admissible ideal, unchecked here
        raise CyclicQuiverError("path enumeration needs an acyclic quiver")
    out, inc = q.out, q.inc
    violations = []
    for v in q.vertices:
        if len(out[v]) > 2:
            violations.append(f"vertex {v}: more than 2 outgoing arrows")
        if len(inc[v]) > 2:
            violations.append(f"vertex {v}: more than 2 incoming arrows")
    zero = zero_pair_test(pres)
    for b in q.arrows:
        befores = [a.name for a in inc[b.source] if not zero(a.name, b.name)]
        afters = [c.name for c in out[b.target] if not zero(b.name, c.name)]
        if len(befores) > 1:
            violations.append(
                f"arrow {b.name}: several nonzero left compositions")
        if len(afters) > 1:
            violations.append(
                f"arrow {b.name}: several nonzero right compositions")
    return SpecialBiserialReport(not violations, tuple(violations))


def _letter_endpoints(by_name, letter):
    name, direct = letter
    a = by_name[name]
    return (a.source, a.target) if direct else (a.target, a.source)


def _word_ok(zero_paths, zero_lengths, letters):
    """Is the walk of letters a string: reduced, and with every direct or
    inverse run avoiding the zero paths?  Composability is not checked.
    ``zero_paths`` is a set and ``zero_lengths`` holds the distinct lengths
    of its paths."""
    for prev, nxt in zip(letters, letters[1:]):
        if prev[0] == nxt[0] and prev[1] != nxt[1]:
            return False
    # runs, in direct reading order
    idx = 0
    while idx < len(letters):
        j = idx
        while j + 1 < len(letters) and letters[j + 1][1] == letters[idx][1]:
            j += 1
        run = tuple(n for n, _ in letters[idx:j + 1])
        if not letters[idx][1]:
            run = run[::-1]
        for k in zero_lengths:
            if any(run[t:t + k] in zero_paths
                   for t in range(len(run) - k + 1)):
                return False
        idx = j + 1
    return True


def band_search(pres, length_bound=None):
    """A band of length within the bound, or None.

    Requires a monomial special biserial presentation.  Bands are closed
    reduced walks using both letter kinds, admissible in every rotation
    (checked on the doubled word), and not proper powers, as the walk
    meets a power's root first (see ``_first_band``).  The band
    returned is the first one that ``_first_band``'s depth-first walk
    meets, starting from the vertices in declaration order, normalized to
    its least rotation or inverse rotation by string order.  It need not
    be the least band of the algebra: another band, met later, may sort
    earlier, so declaring the vertices in another order can change it.
    """
    if length_bound is not None and length_bound < 1:
        raise BadParameterError(
            f"band length bound must be >= 1, got {length_bound}")
    report = special_biserial_check(pres)
    if not report.ok:
        raise NotStringAlgebraError("; ".join(report.violations))
    if any(not rel.is_monomial() for rel in pres.relations):
        raise NotStringAlgebraError("non-monomial relation present")
    if length_bound is None:
        length_bound = max(2, 2 * len(pres.quiver.arrows) ** 2)
    found = _first_band(pres, length_bound)
    if found is None:
        return None
    band = StringWord(found)
    best = None
    for candidate in (band, band.inverse()):
        for rot in candidate.rotations():
            if best is None or str(rot) < str(best):
                best = rot
    return best


def _first_band(pres, length_bound):
    """First band met by a depth-first walk from each vertex in turn,
    trying letters by name, direct before inverse.  Every word is a walk,
    and the first closed one with both letter kinds that is a string in
    every rotation is primitive: the root u of a power u^k closes earlier
    on the walk, and u·u passed the windowed checks, so u comes first."""
    q = pres.quiver
    by_name = q.by_name
    zero_paths = zero_relation_paths(pres)
    zero_lengths = sorted({len(zp) for zp in zero_paths})
    # a string stays a string after one more letter unless its last
    # junction or a zero path ending in the new letter breaks it
    window = max([2, *zero_lengths])
    moves = {v: sorted([(a.name, True) for a in q.out[v]]
                       + [(a.name, False) for a in q.inc[v]],
                       key=lambda l: (l[0], not l[1]))
             for v in q.vertices}
    for start in q.vertices:
        # frames[i] iterates the letters that may follow word[:i]
        word, frames = [], [iter(moves[start])]
        while frames:
            letter = next(frames[-1], None)
            if letter is None:
                frames.pop()
                if word:
                    word.pop()
                continue
            word.append(letter)
            if not _word_ok(zero_paths, zero_lengths, word[-window:]):
                word.pop()
                continue
            at = _letter_endpoints(by_name, letter)[1]
            if at == start and len({d for _, d in word}) == 2 \
                    and _word_ok(zero_paths, zero_lengths, word + word):
                return tuple(word)
            if len(word) >= length_bound:
                word.pop()
            else:
                frames.append(iter(moves[at]))
    return None
