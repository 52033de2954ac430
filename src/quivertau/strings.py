"""Special biserial recognition and band search for monomial string algebras.

A band (a cyclic reduced walk avoiding zero compositions in both reading
directions) certifies that a string algebra is representation-infinite;
its absence at a sufficient length bound, together with the finiteness of
the string set, certifies finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

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

    The walk runs only if there are strings of every length, which a band
    u gives: as u holds both letter kinds, no run of a power of u spans
    more than two copies of u, so with u·u every power of u is a string.
    The walk checks the last ``window`` letters of each string it grows,
    so such strings make a cycle in the finite graph that
    ``_strings_unbounded`` reads, and without one there is no band.
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
    if not _strings_unbounded(pres):
        return None
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


def _walk_parts(pres):
    """What the walk reads: a test that a word is a string, the number of
    last letters each step checks, the letters that may leave each
    vertex, by name and direct before inverse, and each letter's end."""
    q = pres.quiver
    zero_paths = zero_relation_paths(pres)
    zero_lengths = sorted({len(zp) for zp in zero_paths})
    # a string stays a string after one more letter unless its last
    # junction or a zero path ending in the new letter breaks it
    window = max([2, *zero_lengths])
    moves = {v: sorted([(a.name, True) for a in q.out[v]]
                       + [(a.name, False) for a in q.inc[v]],
                       key=lambda l: (l[0], not l[1]))
             for v in q.vertices}
    end = {(a.name, direct): a.target if direct else a.source
           for a in q.arrows for direct in (True, False)}
    return (lambda word: _word_ok(zero_paths, zero_lengths, word),
            window, moves, end)


def _strings_unbounded(pres):
    """Is there a cycle in the graph whose states are the strings of
    ``window - 1`` letters, with an edge for each letter that keeps the
    last ``window`` letters a string?  Every letter counts as a state: one
    that is no string on its own has no edge."""
    ok, window, moves, end = _walk_parts(pres)
    states = [(l,) for ls in moves.values() for l in ls]
    for _ in range(window - 2):
        states = [s + (l,) for s in states for l in moves[end[s[-1]]]
                  if ok(s + (l,))]
    try:
        TopologicalSorter({s: [s[1:] + (l,) for l in moves[end[s[-1]]]
                               if ok(s + (l,))]
                           for s in states}).prepare()
    except CycleError:
        return True
    return False


def _first_band(pres, length_bound):
    """First band met by a depth-first walk from each vertex in turn,
    trying letters by name, direct before inverse.  Every word is a walk,
    and the first closed one with both letter kinds that is a string in
    every rotation is primitive: the root u of a power u^k closes earlier
    on the walk, and u·u passed the windowed checks, so u comes first."""
    ok, window, moves, end = _walk_parts(pres)
    for start in pres.quiver.vertices:
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
            if not ok(word[-window:]):
                word.pop()
                continue
            at = end[letter]
            if at == start and len({d for _, d in word}) == 2 \
                    and ok(word + word):
                return tuple(word)
            if len(word) >= length_bound:
                word.pop()
            else:
                frames.append(iter(moves[at]))
    return None
