"""Shared builders for the test suite."""

from __future__ import annotations

import inspect
import random
import sys

import pytest

from quivertau.presentation import Arrow, Presentation, Quiver, Relation
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


@pytest.fixture
def shallow_stack():
    """Recursion limit 60 frames above the current depth, so any walk that
    recurses once per step fails on inputs deeper than that."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    yield
    sys.setrecursionlimit(old)
