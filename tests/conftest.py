"""Shared builders for the test suite."""

from __future__ import annotations

import inspect
import random
import sys

import pytest

from quivertau.linalg import SparseSpace
from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    Relation,
    all_paths,
    embeddings,
    path_key,
    path_source,
    path_target,
)
from fractions import Fraction


def line(n, eps=None, relations=()):
    """Line quiver on n vertices; eps like '+-+' (defaults to all '+')."""
    if eps is None:
        eps = "+" * (n - 1)
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i, c in enumerate(eps, start=1):
        if c == "+":
            arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        else:
            arrows.append(Arrow(f"a{i}", str(i + 1), str(i)))
    return Presentation(Quiver(vertices, tuple(arrows)), tuple(relations))


def mono(*paths):
    """Monomial relations from dotted path strings."""
    return tuple(Relation(((Fraction(1), tuple(p.split("."))),))
                 for p in paths)


def cycle_presentation(n):
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"c{i}", str(i), str(i % n + 1))
                   for i in range(1, n + 1))
    return Presentation(Quiver(vertices, arrows), ())


def random_quiver(rng, max_vertices=12, max_extra=None, allow_multi=True):
    """Loop-free random multidigraph as a hereditary Presentation."""
    n = rng.randint(1, max_vertices)
    vertices = tuple(str(i) for i in range(1, n + 1))
    if n == 1:
        return Presentation(Quiver(vertices, ()), ())
    k = rng.randint(0, max_extra if max_extra is not None else 2 * n)
    arrows = []
    for idx in range(k):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        arrows.append(Arrow(f"r{idx}", str(u), str(v)))
    if not allow_multi:
        seen = set()
        arrows = [a for a in arrows
                  if (a.source, a.target) not in seen
                  and not seen.add((a.source, a.target))]
    return Presentation(Quiver(vertices, tuple(arrows)), ())


def random_tree_quiver(rng, max_vertices=9):
    """Random tree with random edge orientations (simply connected)."""
    n = rng.randint(1, max_vertices)
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i in range(2, n + 1):
        parent = rng.randint(1, i - 1)
        if rng.random() < 0.5:
            arrows.append(Arrow(f"t{i}", str(parent), str(i)))
        else:
            arrows.append(Arrow(f"t{i}", str(i), str(parent)))
    return Presentation(Quiver(vertices, tuple(arrows)), ())


def seeded(seed=20240817):
    return random.Random(seed)


# the relation ideal by full elimination, the union-find's oracle


class PathSpace(SparseSpace):
    """SparseSpace over paths, stored under ``path_key(p)`` so that the
    keys' own order is ``path_key`` order."""

    def add(self, vec):
        return super().add({path_key(p): c for p, c in vec.items()})

    def contains(self, vec):
        return super().contains({path_key(p): c for p, c in vec.items()})


def elimination_ideal_spaces(pres):
    """Reference: every padded relation through SparseSpace elimination.

    Returns the per-pair spaces and the padded vectors per pair."""
    q = pres.quiver
    paths = all_paths(q)
    spaces, padded = {}, {}
    for rel in pres.relations:
        if not rel.terms:
            continue
        a = path_source(q, rel.terms[0][1])
        b = path_target(q, rel.terms[0][1])
        lefts = [()] + [p for (x, y), ps in paths.items() if y == a
                        for p in ps]
        rights = [()] + [p for (x, y), ps in paths.items() if x == b
                         for p in ps]
        for left in lefts:
            lsrc = path_source(q, left) if left else a
            for right in rights:
                rtgt = path_target(q, right) if right else b
                vec = {}
                for coeff, mid in rel.terms:
                    key = left + mid + right
                    vec[key] = vec.get(key, Fraction(0)) + coeff
                vec = {k: c for k, c in vec.items() if c}
                if not vec:
                    continue
                pair = (lsrc, rtgt)
                if pair not in spaces:
                    spaces[pair] = PathSpace()
                spaces[pair].add(vec)
                padded.setdefault(pair, []).append(vec)
    return spaces, padded


def elimination_bases(pres, spaces):
    """Reference dimension-table pairs: non-pivot paths per pair."""
    q = pres.quiver
    paths = all_paths(q)
    pairs = []
    for i in q.vertices:
        for j in q.vertices:
            pivots = spaces[(i, j)].rows if (i, j) in spaces else {}
            basis = ([()] if i == j else []) + [
                p for p in paths.get((i, j), ()) if path_key(p) not in pivots]
            if basis:
                pairs.append(((i, j), tuple(basis)))
    return tuple(pairs)


def embedding_images(q, tq):
    """The distinct vertex sets of q that ``embeddings(q, tq)`` maps onto,
    as position tuples in reverse lexicographic order: the kept sets that
    quotient search tries, in its order."""
    return sorted({tuple(sorted(image)) for image in embeddings(q, tq)},
                  reverse=True)


@pytest.fixture
def shallow_stack():
    """Recursion limit 60 frames above the current depth, so any walk that
    recurses once per step fails on inputs deeper than that."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    yield
    sys.setrecursionlimit(old)
