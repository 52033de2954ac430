"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import inspect
import itertools
import random
import sys
from operator import itemgetter

import pytest

from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    Relation,
    all_paths,
    dimension_table,
    embeddings,
    path_key,
    path_source,
    path_target,
    serialize_presentation,
)
from quivertau.sepgraph import induced_single_subquiver
from quivertau.tensor import tensor_vertex
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


def presentations_equal(p1, p2):
    """Equality up to canonical reordering of relations and terms."""
    return serialize_presentation(p1) == serialize_presentation(p2)


def tensor_pair_dims(pa, pb):
    """Per-pair dimension products predicted by the factor tables."""
    ta = dimension_table(pa)
    tb = dimension_table(pb)
    da = ta.as_dict()
    db = tb.as_dict()
    out = {}
    for (i, k), pa_paths in da.items():
        for (j, l), pb_paths in db.items():
            out[(tensor_vertex(i, j), tensor_vertex(k, l))] = \
                len(pa_paths) * len(pb_paths)
    return out


# the relation ideal by full elimination, the union-find's oracle


class FractionSpace:
    """Row space in reduced echelon form with deterministic pivot order.

    Elimination always pivots on the largest key of a row, so the smallest
    keys survive as representatives of the quotient.

    The reference for ``quivertau.linalg.SparseSpace``: the same
    elimination over Fractions, each row scaled to pivot coefficient 1.
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


class PathSpace(FractionSpace):
    """FractionSpace over paths, stored under ``path_key(p)`` so that the
    keys' own order is ``path_key`` order."""

    def add(self, vec):
        return super().add({path_key(p): c for p, c in vec.items()})

    def contains(self, vec):
        return super().contains({path_key(p): c for p, c in vec.items()})


def elimination_ideal_spaces(pres):
    """Reference: every padded relation through FractionSpace elimination.

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


# the separated-quiver criterion by brute sweep, the witness search's oracle


def assignment_bad(quiver, sides):
    """Does the single subquiver given by {vertex: side} contain a
    non-Dynkin component?  Works on the induced bipartite multigraph."""
    out, mult = quiver.out, quiver.mult
    zeros = [i for i, s in sides.items() if s == 0]
    edges = []  # (source, target) with side 0 -> side 1
    deg = {}
    for i in zeros:
        for a in out[i]:
            j = a.target
            if sides.get(j) == 1:
                if mult[(i, j)] >= 2:
                    return True
                edges.append((i, j))
                deg[(i, 0)] = deg.get((i, 0), 0) + 1
                deg[(j, 1)] = deg.get((j, 1), 0) + 1
    if any(d >= 4 for d in deg.values()):
        return True
    # union-find over chosen nodes
    nodes = [(i, s) for i, s in sides.items()]
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find((i, 0)), find((j, 1))
        if a != b:
            parent[a] = b
    comp_edges = {}
    comp_nodes = {}
    comp_branch = {}
    for x in nodes:
        r = find(x)
        comp_nodes[r] = comp_nodes.get(r, 0) + 1
        if deg.get(x, 0) >= 3:
            comp_branch[r] = comp_branch.get(r, 0) + 1
    for i, j in edges:
        r = find((i, 0))
        comp_edges[r] = comp_edges.get(r, 0) + 1
    for r, nn in comp_nodes.items():
        ee = comp_edges.get(r, 0)
        if ee >= nn:  # contains a cycle
            return True
        if comp_branch.get(r, 0) >= 2:
            return True
    # remaining danger: a single degree-3 vertex with non-Dynkin legs
    for x in nodes:
        if deg.get(x, 0) != 3:
            continue
        legs = _leg_profile(quiver, sides, deg, x)
        if legs is None:
            continue  # handled by branch/cycle counts above
        a, b, c = legs
        if not (a == 1 and (b == 1 or (b == 2 and c <= 4))):
            return True
    return False


def _neighbors(quiver, sides, x):
    v, s = x
    if s == 0:
        return [(a.target, 1) for a in quiver.out[v]
                if sides.get(a.target) == 1]
    return [(a.source, 0) for a in quiver.inc[v]
            if sides.get(a.source) == 0]


def _leg_profile(quiver, sides, deg, center):
    """Sorted leg lengths of a degree-3 node inside a tree component."""
    lengths = []
    for start in _neighbors(quiver, sides, center):
        length = 1
        prev, at = center, start
        while deg.get(at, 0) == 2:
            nxts = [w for w in _neighbors(quiver, sides, at) if w != prev]
            prev, at = at, nxts[0]
            length += 1
        if deg.get(at, 0) >= 3:
            return None
        lengths.append(length)
    return sorted(lengths)


def all_choices(quiver, k):
    """Every single-subquiver choice on exactly k original vertices, as a
    {vertex: side} dict: the C(n,k)·2^k sweep of the brute oracle."""
    for combo in itertools.combinations(quiver.vertices, k):
        for mask in range(1 << k):
            yield {combo[t]: (mask >> t) & 1 for t in range(k)}


def naive_minimal_bad_single_subquiver(quiver):
    """Brute force: a bad choice extends to a full side assignment, so the
    2^n full assignments decide the verdict; the minimal witness is then
    recovered by an ascending-size sweep."""
    n = len(quiver.vertices)
    bad = False
    for mask in range(1 << n):
        sides = {v: (mask >> i) & 1 for i, v in enumerate(quiver.vertices)}
        if assignment_bad(quiver, sides):
            bad = True
            break
    if not bad:
        return None
    for k in range(2, n + 1):
        best = min((tuple(sorted(sides.items()))
                    for sides in all_choices(quiver, k)
                    if assignment_bad(quiver, sides)), default=None)
        if best is not None:
            return induced_single_subquiver(quiver, dict(best))
    raise AssertionError("bad full assignment but no bad subset")


def embedding_images(q, tq):
    """The distinct vertex sets of q that ``embeddings(q, tq)`` maps onto,
    as position tuples in reverse lexicographic order: the kept sets that
    quotient search tries, in its order."""
    return sorted({tuple(sorted(image)) for image in embeddings(q, tq)},
                  reverse=True)


@contextlib.contextmanager
def counted_calls(function):
    """A one-item list counting the calls of ``function`` made inside the
    block.  Calls are matched by code object, so a call through any name
    the function is imported under counts."""
    count = [0]
    code = function.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            count[0] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield count
    finally:
        sys.setprofile(old)


@pytest.fixture
def shallow_stack():
    """Recursion limit 60 frames above the current depth, so any walk that
    recurses once per step fails on inputs deeper than that."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    yield
    sys.setrecursionlimit(old)


def quivers_up_to_iso(n, max_arrows=None, max_degree=None):
    """Loop-free multiquivers on n labeled vertices, one per class up to
    vertex relabeling, as arrow-count vectors over the off-diagonal cells
    (i, j) in row-major order.  ``max_arrows`` bounds the arrow total and
    ``max_degree`` every in- and out-degree; at least one bound is needed
    once n > 1.  Returns the lexicographically smallest form of each class,
    sorted.

    Orderly generation (Read 1978; McKay 1998): the vectors are grown one
    arrow at a time through their lexicographically largest forms, a new
    arrow going into a cell at or after the vector's last nonzero cell,
    and a child is kept only if no relabeling makes it larger.

    Every largest form v != 0 is reached exactly once.  Let k be its last
    nonzero cell and u = v - e_k.  Suppose a relabeling p had p(u) > u,
    first differing at position d.  If d >= k, then p(u) agrees with u
    before d and exceeds it at d, so the entries of p(u) up to d sum to
    more than u's total, as u is zero after k; but relabeling preserves
    the total.  So d < k, where v and u agree.  Since p(v) >= p(u)
    entrywise, p(v) >= v entrywise before d, and v is largest, so p(v)
    equals v there; then p(v)[d] >= p(u)[d] > u[d] = v[d] makes p(v) > v,
    a contradiction.  So u is a largest form, and v is its child at cell
    k >= the last nonzero cell of u.  Conversely a child's last nonzero
    cell is the one its arrow went into, so its parent is u and no other.
    Both bounds are relabel-invariant and hold for u whenever they hold
    for v, so pruning by them loses no class.
    """
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not cells:
        return [()]
    index = {c: k for k, c in enumerate(cells)}
    # relabeling w by a vertex permutation is one itemgetter call
    relabelings = [itemgetter(*(index[perm[i], perm[j]] for i, j in cells))
                   for perm in itertools.permutations(range(n))]
    out_cells = [[index[i, j] for j in range(n) if j != i] for i in range(n)]
    in_cells = [[index[i, j] for i in range(n) if i != j] for j in range(n)]

    def within_degree(w, cell):
        i, j = cells[cell]
        return (sum(w[c] for c in out_cells[i]) <= max_degree
                and sum(w[c] for c in in_cells[j]) <= max_degree)

    largest = []
    level = [((0,) * len(cells), 0)]  # (largest form, last nonzero cell)
    arrows = 0
    while level:
        largest.extend(w for w, _ in level)
        if arrows == max_arrows:
            break
        children = []
        for w, last in level:
            for k in range(last, len(cells)):
                child = w[:k] + (w[k] + 1,) + w[k + 1:]
                if max_degree is not None and not within_degree(child, k):
                    continue
                if all(f(child) <= child for f in relabelings):
                    children.append((child, k))
        level = children
        arrows += 1
    return sorted(min(f(w) for f in relabelings) for w in largest)


def quiver_from_cells(n, cells, counts):
    vertices = tuple(str(i) for i in range(n))
    arrows = []
    k = 0
    for (i, j), m in zip(cells, counts):
        for _ in range(m):
            arrows.append(Arrow(f"x{k}", str(i), str(j)))
            k += 1
    return Quiver(vertices, tuple(arrows))
