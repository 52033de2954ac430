"""Special biserial recognition and band search for monomial string algebras.

A band (a cyclic reduced walk avoiding zero compositions in both reading
directions) certifies that a string algebra is representation-infinite;
its absence at a sufficient length bound, together with the finiteness of
the string set, certifies finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import BadParameterError
from .presentation import QuivertauError


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
    out, inc = q.index.out, q.index.inc
    violations = []
    for v in q.vertices:
        if len(out[v]) > 2:
            violations.append(f"vertex {v}: more than 2 outgoing arrows")
        if len(inc[v]) > 2:
            violations.append(f"vertex {v}: more than 2 incoming arrows")
    ideal = pres.ideal
    for b in q.arrows:
        befores = [a.name for a in inc[b.source]
                   if not ideal.contains({(a.name, b.name): 1})]
        afters = [c.name for c in out[b.target]
                  if not ideal.contains({(b.name, c.name): 1})]
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


def _word_ok(by_name, zero_paths, letters):
    """Is the letter sequence a string: composable, reduced, and with every
    direct or inverse run avoiding the zero paths?"""
    for prev, nxt in zip(letters, letters[1:]):
        if _letter_endpoints(by_name, prev)[1] != \
                _letter_endpoints(by_name, nxt)[0]:
            return False
        if prev[0] == nxt[0] and prev[1] != nxt[1]:
            return False
    # runs, in direct reading order
    idx = 0
    while idx < len(letters):
        j = idx
        while j + 1 < len(letters) and letters[j + 1][1] == letters[idx][1]:
            j += 1
        run = [n for n, _ in letters[idx:j + 1]]
        if not letters[idx][1]:
            run.reverse()
        for zp in zero_paths:
            k = len(zp)
            if any(tuple(run[t:t + k]) == zp
                   for t in range(len(run) - k + 1)):
                return False
        idx = j + 1
    return True


def band_search(pres, length_bound=None):
    """Lexicographically minimal band of length within the bound, or None.

    Requires a monomial special biserial presentation.  Bands are closed
    reduced walks using both letter kinds, admissible in every rotation
    (checked on the doubled word), and not proper powers; representatives
    are normalized over rotation and inversion.
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
    trying letters by name, direct before inverse."""
    q = pres.quiver
    by_name = q.index.by_name
    zero_paths = tuple(rel.terms[0][1] for rel in pres.relations)
    # a string stays a string after one more letter unless its last
    # junction or a zero path ending in the new letter breaks it
    window = max([2, *map(len, zero_paths)])
    moves = {v: sorted([(a.name, True) for a in q.index.out[v]]
                       + [(a.name, False) for a in q.index.inc[v]],
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
            if not _word_ok(by_name, zero_paths, word[-window:]):
                word.pop()
                continue
            at = _letter_endpoints(by_name, letter)[1]
            if len(word) >= 2 and at == start \
                    and len({d for _, d in word}) == 2 \
                    and not _is_power(word) \
                    and _word_ok(by_name, zero_paths, word + word):
                return tuple(word)
            if len(word) >= length_bound:
                word.pop()
            else:
                frames.append(iter(moves[at]))
    return None


def _is_power(word):
    k = len(word)
    for d in range(1, k):
        if k % d == 0 and list(word) == list(word[:d]) * (k // d):
            return True
    return False
