"""Separated quivers, Dynkin/Euclidean recognition, and the radical-square-
zero finiteness criterion.

A single subquiver of the separated quiver picks at most one of the two
copies of each original vertex.  A radical-square-zero algebra is finite
exactly when every single subquiver is a disjoint union of Dynkin graphs
(Adachi 2016, "tau-rigid-finite algebras with radical square zero", Proc.
AMS 144).  The decision searches directly for an embedded Euclidean shape.

It returns the smallest, then lexicographically first, bad single
subquiver, as a {vertex: side} choice.  It maps each Euclidean pattern, a
quiver whose arrows run from its 0-colored to its 1-colored vertices, into
the quiver with ``embeddings``, in ascending size; at the first size where
any pattern embeds it returns the lexicographically minimal image, each
pattern vertex on the side of its color.  That is exact.  Every image is
a bad choice: its single subquiver contains the pattern's Euclidean graph,
and a graph with a Euclidean subgraph is not Dynkin.  Conversely, let C be
a bad choice of minimal size k.  It has a connected non-Dynkin component,
which contains a Euclidean subgraph E.  The vertex set of E is itself a
bad choice of size at most k, so E spans all of C, and C is the image of
the pattern of E's shape and coloring.  So the images at the first size
are exactly the bad choices of minimal size.  The test suite re-checks
this against a brute sweep over every choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import verdict as vd
from .presentation import (
    Arrow,
    NoOrientedCycleError,
    NotRadicalSquareZeroError,
    Quiver,
    UnsupportedLoopError,
    components,
    embeddings,
    find_oriented_cycle,
    is_rad_square_zero,
    require_valid,
)
from .tensor import tensor_product, tensor_vertex


@dataclass(frozen=True)
class UGraph:
    """Undirected multigraph; edges are (u, v) pairs, loops allowed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class GraphType:
    tag: str  # A, D, E, A~, D~, E~, other
    n: int

    def is_dynkin(self):
        return self.tag in ("A", "D", "E")

    def is_euclidean(self):
        return self.tag in ("A~", "D~", "E~")

    def label(self):
        if self.tag == "other":
            return "other"
        return f"{self.tag}{self.n}"


def euclidean_size(gtype):
    """Number of vertices of a Euclidean diagram."""
    if not gtype.is_euclidean():
        raise ValueError(f"not Euclidean: {gtype}")
    return gtype.n + 1


@dataclass(frozen=True)
class GraphTypeReport:
    components: tuple[tuple[tuple[str, ...], GraphType], ...]

    def all_dynkin(self):
        return all(t.is_dynkin() for _, t in self.components)

    def tags(self):
        return tuple(t.label() for _, t in self.components)


def underlying_graph(quiver):
    return UGraph(quiver.vertices,
                  tuple((a.source, a.target) for a in quiver.arrows))


# The typed trees with one branch vertex, keyed by their sorted leg
# lengths (a leg runs from the branch vertex to a leaf), except the one
# family D_n, whose legs are (1, 1, c).  The recognizer reads it, and so
# does the witness search for its star patterns.
_STARS = {
    (1, 1, 1, 1): GraphType("D~", 4),
    (1, 2, 2): GraphType("E", 6),
    (1, 2, 3): GraphType("E", 7),
    (1, 2, 4): GraphType("E", 8),
    (2, 2, 2): GraphType("E~", 6),
    (1, 3, 3): GraphType("E~", 7),
    (1, 2, 5): GraphType("E~", 8),
}
_OTHER = GraphType("other", 0)


def _component_type(vertices, edges):
    """Classify one connected component given its vertices and edge list."""
    n = len(vertices)
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u == v or v in adj[u]:  # a loop or a repeated edge
            if u != v and n == 2 and len(edges) == 2:
                return GraphType("A~", 1)
            return _OTHER
        adj[u].add(v)
        adj[v].add(u)
    if len(edges) == n and all(len(nb) == 2 for nb in adj.values()):
        return GraphType("A~", n - 1)
    if len(edges) != n - 1:
        return _OTHER
    # a tree
    branch = [v for v in vertices if len(adj[v]) >= 3]
    if not branch:
        return GraphType("A", n)
    if len(branch) == 1:
        legs = []
        for start in adj[branch[0]]:
            prev, at, length = branch[0], start, 1
            while len(adj[at]) == 2:
                prev, at = at, next(w for w in adj[at] if w != prev)
                length += 1
            legs.append(length)
        legs.sort()
        if len(legs) == 3 and legs[1] == 1:
            return GraphType("D", n)
        return _STARS.get(tuple(legs), _OTHER)
    if len(branch) == 2 and all(
            len(adj[b]) == 3 and sum(len(adj[w]) == 1 for w in adj[b]) == 2
            for b in branch):
        return GraphType("D~", n - 1)
    return _OTHER


def classify_graph(graph):
    """Connected-component classification of an undirected multigraph, in
    the order of ``components``; each component's vertices are sorted and
    its edges keep their order in the graph."""
    near = {v: [] for v in graph.vertices}
    for u, w in graph.edges:
        near[u].append(w)
        near[w].append(u)
    comps = components(graph.vertices, near)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    edges = [[] for _ in comps]
    for edge in graph.edges:
        edges[where[edge[0]]].append(edge)
    report = []
    for comp, comp_edges in zip(comps, edges):
        verts = tuple(sorted(comp))
        report.append((verts, _component_type(verts, comp_edges)))
    return GraphTypeReport(tuple(report))


# ---------------------------------------------------------------------------
# separated quivers and single subquivers


def sep_vertex(v, side):
    return f"({v},{side})"


def separated_quiver(quiver):
    """Bipartite acyclic double: one arrow (a,0) -> (b,1) per arrow a -> b."""
    vertices = tuple(sep_vertex(v, 0) for v in quiver.vertices) + \
        tuple(sep_vertex(v, 1) for v in quiver.vertices)
    arrows = tuple(Arrow(f"{a.name}^sp",
                         sep_vertex(a.source, 0), sep_vertex(a.target, 1))
                   for a in quiver.arrows)
    return Quiver(vertices, arrows)


@dataclass(frozen=True)
class SingleSubquiver:
    """Chosen separated vertices (original vertex, side) with induced arrows."""

    vertices: tuple[tuple[str, int], ...]
    arrows: tuple[tuple[tuple[str, int], tuple[str, int], str], ...]

    def to_payload(self):
        return {
            "kind": "single-subquiver",
            "vertices": [[v, s] for v, s in self.vertices],
            "arrows": [[list(src), list(tgt), name]
                       for src, tgt, name in self.arrows],
            "component_types": list(self.report().tags()),
        }

    def underlying(self):
        verts = tuple(sep_vertex(v, s) for v, s in self.vertices)
        edges = tuple((sep_vertex(*src), sep_vertex(*tgt))
                      for src, tgt, _ in self.arrows)
        return UGraph(verts, edges)

    def report(self):
        return classify_graph(self.underlying())


def induced_single_subquiver(quiver, sides):
    """Full single subquiver for a {vertex: side} choice."""
    chosen = tuple(sorted(sides.items()))
    arrows = []
    for a in quiver.arrows:
        if sides.get(a.source) == 0 and sides.get(a.target) == 1:
            arrows.append(((a.source, 0), (a.target, 1), a.name))
    return SingleSubquiver(tuple((v, s) for v, s in chosen), tuple(arrows))


def is_single_subquiver(quiver, ssq):
    """Validity: vertices exist, one side per vertex, arrows induced."""
    vset = set(quiver.vertices)
    seen = set()
    for v, s in ssq.vertices:
        if v not in vset or s not in (0, 1) or v in seen:
            return False
        seen.add(v)
    sides = dict(ssq.vertices)
    expect = induced_single_subquiver(quiver, sides)
    return set(expect.arrows) == set(ssq.arrows) \
        and set(expect.vertices) == set(ssq.vertices)


# ---------------------------------------------------------------------------
# the finiteness criterion for radical-square-zero presentations


# Euclidean patterns for the direct search, as quivers whose arrows run
# from the 0-colored to the 1-colored vertices.


def _pattern(edges, flip):
    """Pattern quiver of a connected bipartite graph on the vertices 0, 1,
    ..., given as edges (u, v) with u reached before v from vertex 0.
    Vertex 0 takes color ``flip``, and every edge becomes an arrow from
    its 0-colored end to its 1-colored end."""
    color = {0: flip}
    for u, v in edges:
        color.setdefault(v, 1 - color[u])
    arrows = []
    for k, (u, v) in enumerate(edges):
        s, t = (u, v) if color[u] == 0 else (v, u)
        arrows.append(Arrow(f"e{k}", str(s), str(t)))
    return Quiver(tuple(str(p) for p in color), tuple(arrows))


def _star(legs):
    """Edges of a tree with center 0 and legs of the given lengths."""
    edges = []
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, len(edges) + 1))
            prev = len(edges)
    return edges


@lru_cache(maxsize=64)
def _patterns_of_size(size):
    """Euclidean patterns on exactly ``size`` vertices, in both colorings;
    the two colorings of an even cycle, the Kronecker quiver at size 2
    included, give isomorphic quivers, so it comes once.  Each size is
    built once (the memo holds only patterns, keyed by size), so each
    pattern's embedding plan is built once too."""
    trees = []
    if size >= 6:  # D~(size-1): a path with two leaves at each end
        last = size - 5
        trees.append([(i, i + 1) for i in range(last)] +
                     [(0, last + 1), (0, last + 2),
                      (last, last + 3), (last, last + 4)])
    trees += [_star(legs) for legs, gtype in _STARS.items()
              if gtype.is_euclidean() and sum(legs) + 1 == size]
    out = [_pattern(edges, flip) for edges in trees for flip in (0, 1)]
    if size % 2 == 0:
        out.append(_pattern([(i, (i + 1) % size) for i in range(size)], 0))
    return tuple(out)


@lru_cache(maxsize=64)
def _sided_patterns(size):
    """The patterns of ``_patterns_of_size(size)``, each with the side of
    each of its vertices: 0 where its arrows start, else 1."""
    found = []
    for pattern in _patterns_of_size(size):
        starts = {a.source for a in pattern.arrows}
        found.append((pattern, [0 if p in starts else 1
                                for p in pattern.vertices]))
    return tuple(found)


def minimal_bad_single_subquiver(quiver):
    """Minimal non-Dynkin single subquiver of the separated quiver, or None:
    the single subquiver of the lexicographically minimal pattern image of
    the smallest size at which a Euclidean pattern embeds (see the module
    docstring).

    Sizes stop at the node count of the largest connected component of the
    separated quiver, where a vertex without arrows counts as a component
    of one node.  That loses nothing: a pattern is connected, so its image
    is a connected set of separated nodes, and these are distinct because
    the embedding is injective on original vertices; the image therefore
    lies inside one component and has as many nodes as the pattern has
    vertices.
    """
    if quiver.has_loop():
        raise UnsupportedLoopError("loop arrows are outside the criterion")
    vertices = quiver.vertices
    # the separated node (v, side) is 2 * position of v + side
    pos = {v: i for i, v in enumerate(vertices)}
    near = [[] for _ in range(2 * len(vertices))]
    for v, w in quiver.mult:
        near[2 * pos[v]].append(2 * pos[w] + 1)
        near[2 * pos[w] + 1].append(2 * pos[v])
    largest = max(map(len, components(range(len(near)), near)), default=0)
    for size in range(2, min(len(vertices), largest) + 1):
        best = None
        for pattern, sides in _sided_patterns(size):
            for image in embeddings(quiver, pattern):
                key = tuple(sorted(zip((vertices[i] for i in image), sides)))
                if best is None or key < best:
                    best = key
        if best is not None:
            return induced_single_subquiver(quiver, dict(best))
    return None


# The verdict trace names the search that found the witness.
_TRACE = "separated-quiver-criterion[witness-search]"


def adachi_decide(pres):
    """Finiteness for a radical-square-zero presentation.

    Finite when every single subquiver of the separated quiver is a union
    of Dynkin graphs; infinite verdicts carry the minimal bad single
    subquiver, which the Euclidean-pattern search finds.  A quiver without
    vertices raises the error ``require_valid`` gives it; a disconnected
    one is decided, since the criterion holds componentwise.
    """
    q = pres.quiver
    if not q.vertices:
        require_valid(pres)  # raises EmptyQuiver
    if q.has_loop():
        raise UnsupportedLoopError("loop arrows are outside the criterion")
    if not is_rad_square_zero(pres):
        raise NotRadicalSquareZeroError(
            "the relation ideal does not equal all length-2 paths")
    witness = minimal_bad_single_subquiver(q)
    if witness is None:
        return vd.verdict(
            vd.FINITE, "separated-quiver-criterion",
            "every single subquiver of the separated quiver is a disjoint "
            "union of Dynkin graphs",
            trace=(_TRACE,))
    return vd.verdict(
        vd.INFINITE, "separated-quiver-criterion",
        "a single subquiver of the separated quiver contains a non-Dynkin "
        "component",
        witness=witness.to_payload(),
        trace=(_TRACE,))


# ---------------------------------------------------------------------------
# cycle witness for self-tensor products


def cycle_witness(pres):
    """Non-Dynkin single subquiver inside the separated self-tensor quiver.

    From an oriented cycle v_1 .. v_n the witness takes the tensor vertices
    (v_k, v_{-k}) on side 0 and (v_{k+1}, v_{-k}) on side 1 (indices mod n);
    consecutive choices share an arrow, closing an undirected cycle of
    length 2n.
    """
    cyc = find_oriented_cycle(pres.quiver)
    if cyc is None:
        raise NoOrientedCycleError(
            "no oriented cycle of length >= 2 (loops do not count)")
    n = len(cyc)
    ambient = tensor_product(pres, pres).quiver  # relations play no part
    sides = {}
    for k in range(n):
        sides[tensor_vertex(cyc[k % n], cyc[(-k) % n])] = 0
        sides[tensor_vertex(cyc[(k + 1) % n], cyc[(-k) % n])] = 1
    return induced_single_subquiver(ambient, sides)
