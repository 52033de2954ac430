"""Property tests on random quivers with at most 9 vertices,
the union-find ideal against full Gaussian elimination, the integer
``SparseSpace`` against the Fraction elimination, quotient search
against the search that rebuilds every candidate, the band search's
string predicate against the one that scans every zero path and its
walk against the one that also refused proper powers, the line
reader and oriented-cycle search against the separate walks they
replaced, and the zero-composition readers against the table scans they
replaced (on every tree with at most 5 vertices, against the ideal)."""

import importlib.util
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FractionSpace,
    elimination_bases,
    elimination_ideal_spaces,
    embedding_images,
    line,
    quiver_from_cells,
    quivers_up_to_iso,
    tensor_pair_dims,
)
from quivertau import classify
from quivertau.catalog import (
    QuotientWitness,
    _transported_relation_vectors,
    catalog_get,
    catalog_ids,
    frame_ids,
    has_quotient,
    is_iso,
    verify_quotient_witness,
    witness_frame,
)
from quivertau.classify import classify_tensor, line_class, orientation_class
from quivertau.linalg import SparseSpace
from quivertau.presentation import (
    Arrow,
    CyclicQuiverError,
    DisconnectedError,
    Presentation,
    Profile,
    Quiver,
    QuivertauError,
    Relation,
    UnknownVertexError,
    Violation,
    all_paths,
    components,
    dimension_table,
    find_oriented_cycle,
    homology_rank,
    ideal_membership_spaces,
    is_rad_square_zero,
    line_orientation,
    opposite,
    parse_presentation,
    path_is_composable,
    path_key,
    path_source,
    path_target,
    quotient,
    require_valid,
    serialize_presentation,
    structural_profile,
    twin_classes,
    validate_presentation,
    zero_pair_test,
    zero_relation_paths,
)
from quivertau.sepgraph import (
    GraphType,
    GraphTypeReport,
    UGraph,
    classify_graph,
    underlying_graph,
)
from quivertau.strings import (
    SpecialBiserialReport,
    StringWord,
    _word_ok,
    band_search,
    special_biserial_check,
)
from quivertau.tensor import tensor_product

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
NAMES = ("1", "2", "x", "(1,2)", "β", "v.7", "u_3", "10", "0")


@st.composite
def quivers(draw, acyclic=False):
    """Loop-free multiquiver; ``acyclic`` keeps every arrow going forward
    in a random vertex order unrelated to declaration order."""
    n = draw(st.integers(1, 9))
    vertices = tuple(draw(st.permutations(NAMES))[:n])
    rank = {v: i for i, v in enumerate(draw(st.permutations(vertices)))}
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = []
    for s, t in draw(st.lists(pairs, max_size=2 * n)):
        if s == t:
            continue
        if acyclic and rank[s] > rank[t]:
            s, t = t, s
        arrows.append(Arrow(f"a{len(arrows)}", s, t))
    return Quiver(vertices, tuple(arrows))


def _recursive_all_paths(quiver):
    """Reference: the recursive enumeration, children in arrow order."""
    grouped = {}

    def extend(src, prefix, at):
        for a in quiver.arrows:
            if a.source == at:
                path = prefix + (a.name,)
                grouped.setdefault((src, a.target), []).append(path)
                extend(src, path, a.target)

    for v in quiver.vertices:
        extend(v, (), v)
    return {pair: tuple(sorted(ps, key=path_key))
            for pair, ps in grouped.items()}


@PROPERTY
@given(quivers())
def test_index_matches_naive_scan(q):
    assert q.by_name == {a.name: a for a in q.arrows}
    assert list(q.out) == list(q.vertices) == list(q.inc)
    for v in q.vertices:
        assert q.out[v] == tuple(a for a in q.arrows if a.source == v)
        assert q.inc[v] == tuple(a for a in q.arrows if a.target == v)
    pairs = [(a.source, a.target) for a in q.arrows]
    assert q.mult == {p: pairs.count(p) for p in pairs}
    for lookup in ("by_name", "out", "inc", "mult", "embedding_plan"):
        assert getattr(q, lookup) is getattr(q, lookup)  # built once


def _twin_classes_from_twin_fields(q):
    """Reference: the classes rebuilt from the ``twin`` field of each step
    of q's embedding plan, following each step's twin to the first placed
    member of its class."""
    plan, steps, _ = q.embedding_plan
    first = []  # per step, the first placed step of its class
    for step in plan:
        first.append(len(first) if step[5] is None else first[step[5]])
    classes = {}
    for k, i in enumerate(steps):
        classes.setdefault(first[i], []).append(k)
    return tuple(tuple(c) for c in classes.values() if len(c) > 1)


@PROPERTY
@given(quivers(), st.data())
def test_twin_classes_match_the_twin_fields(q, data):
    loops = data.draw(st.lists(st.sampled_from(q.vertices), max_size=4))
    q = Quiver(q.vertices, q.arrows + tuple(
        Arrow(f"l{i}", v, v) for i, v in enumerate(loops)))
    assert twin_classes(q) == _twin_classes_from_twin_fields(q)


def test_twin_classes_match_the_twin_fields_up_to_iso():
    for n in range(1, 6):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for counts in quivers_up_to_iso(n, max_degree=2):
            q = quiver_from_cells(n, cells, counts)
            assert twin_classes(q) == _twin_classes_from_twin_fields(q)


@PROPERTY
@given(quivers(acyclic=True))
def test_all_paths_matches_recursive_reference(q):
    assert list(all_paths(q).items()) == \
        list(_recursive_all_paths(q).items())


@st.composite
def presentations(draw):
    """Acyclic quiver with monomial and two-term rational relations."""
    q = draw(quivers(acyclic=True))
    long_paths = {pair: [p for p in ps if len(p) >= 2]
                  for pair, ps in all_paths(q).items()}
    pairs = [pair for pair, ps in long_paths.items() if ps]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3) \
        .filter(bool)
    relations = []
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        terms = draw(st.lists(st.sampled_from(long_paths[draw(
            st.sampled_from(pairs))]), min_size=1, max_size=2, unique=True))
        relations.append(Relation(tuple((draw(coeffs), p) for p in terms)))
    return Presentation(q, tuple(relations))


def _relations(pres):
    return sorted(sorted(rel.terms, key=lambda t: path_key(t[1]))
                  for rel in pres.relations)


@PROPERTY
@given(presentations())
def test_parse_serialize_round_trip(pres):
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert again.quiver == pres.quiver
    assert _relations(again) == _relations(pres)
    assert serialize_presentation(again) == text


# ---------------------------------------------------------------------------
# the relation ideal against full elimination


def _assert_bases_match(pres):
    spaces, _ = elimination_ideal_spaces(pres)
    assert dimension_table(pres).pairs == elimination_bases(pres, spaces)


COEFFS = st.one_of(
    st.sampled_from([Fraction(c) for c in (1, -1, 2, -2, 3)]
                    + [Fraction(1, 2), Fraction(-2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))


@st.composite
def ideal_presentations(draw, max_vertices=7):
    """Acyclic multiquiver on 2 to max_vertices vertices with n to 3n arrows
    and up to 8 relations of 1 to 4 terms; terms may repeat a path, so some
    relations cancel.  A pair is picked once per parallel path, so
    relations crowd where they interact."""
    n = draw(st.integers(2, max_vertices))
    vertices = tuple(draw(st.permutations(NAMES))[:n])
    order = draw(st.permutations(vertices))  # arrows go forward in it
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda e: e[0] != e[1])
    arrows = tuple(Arrow(f"a{k}", order[min(e)], order[max(e)])
                   for k, e in enumerate(draw(st.lists(
                       ends, min_size=n, max_size=3 * n))))
    q = Quiver(vertices, arrows)
    long_paths = {pair: [p for p in ps if len(p) >= 2]
                  for pair, ps in all_paths(q).items()}
    pairs = [pair for pair, ps in long_paths.items() for _ in ps]
    relations = []
    for _ in range(draw(st.integers(1, 8)) if pairs else 0):
        choice = long_paths[draw(st.sampled_from(pairs))]
        size = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
        terms = draw(st.lists(st.sampled_from(choice), min_size=size,
                              max_size=size))
        relations.append(Relation(tuple((draw(COEFFS), p) for p in terms)))
    return Presentation(q, tuple(relations))


def _combination(draw, vectors):
    out = {}
    for vec in vectors:
        c = draw(COEFFS)
        for k, v in vec.items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


@PROPERTY
@given(ideal_presentations(), st.data())
def test_ideal_matches_full_elimination(pres, data):
    _assert_ideal_matches_elimination(pres, data.draw)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(ideal_presentations(max_vertices=4),
       ideal_presentations(max_vertices=3), st.data())
def test_tensor_ideal_matches_full_elimination(pa, pb, data):
    # on a grid, lefts become non-roots of the union-find while relations
    # are still padded, so the ideal build skips them; non-homogeneous
    # binomials, 3- and 4-term relations and cancelling terms come with
    # the factors
    _assert_ideal_matches_elimination(tensor_product(pa, pb), data.draw)


def _assert_ideal_matches_elimination(pres, draw):
    """Bases, ranks and membership of drawn vectors, against the padded
    relations eliminated in full."""
    spaces, padded = elimination_ideal_spaces(pres)
    assert dimension_table(pres).pairs == elimination_bases(pres, spaces)
    ideal = ideal_membership_spaces(pres)
    paths = all_paths(pres.quiver)
    for pair in paths:
        assert ideal.rank(pair) == (spaces[pair].rank if pair in spaces
                                    else 0)
    if not paths:
        return
    for _ in range(4):
        pair = draw(st.sampled_from(sorted(paths)))
        vec = _combination(draw, [{p: Fraction(1)} for p in draw(
            st.lists(st.sampled_from(paths[pair]), min_size=1, max_size=4))])
        if vec:
            expected = pair in spaces and spaces[pair].contains(vec)
            assert ideal.contains(vec) == expected
    for pair, vectors in sorted(padded.items()):
        member = _combination(draw, draw(st.lists(
            st.sampled_from(vectors), min_size=1, max_size=4)))
        assert ideal.contains(member)
        assert spaces[pair].contains(member)


def test_ideal_matches_full_elimination_on_catalog_and_frames():
    for cat_id in catalog_ids():
        try:
            pres = catalog_get(cat_id)
        except QuivertauError:
            continue  # id patterns such as N(n)
        _assert_bases_match(pres)
    for frame_id in frame_ids():
        _assert_bases_match(witness_frame(frame_id).ambient())


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7919])
def test_ideal_matches_full_elimination_on_grid_products(seed):
    for item in _bench_workloads().generate("grid-dims", seed)["items"]:
        factors = [catalog_get(f["catalog"]) if "catalog" in f
                   else parse_presentation(f["text"])
                   for f in item["factors"]]
        product = factors[0]
        for f in factors[1:]:
            product = tensor_product(product, f)
        _assert_bases_match(product)


# ---------------------------------------------------------------------------
# the integer SparseSpace against the Fraction reference


# pairwise coprime, most of them large, so that clearing them on entry
# and reducing by p*vec - c*row makes big ints
DENOMINATORS = st.sampled_from([1, 2, 3, 35, 10**9 + 7, 998244353,
                                2**61 - 1, 11**17])
RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                      DENOMINATORS)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@st.composite
def sparse_vectors(draw, keys=15):
    support = draw(st.lists(st.integers(0, keys), max_size=6, unique=True))
    return {k: draw(RATIONALS) for k in support}


@st.composite
def chains(draw):
    """10 to 14 vectors whose largest keys fall one by one, each with a
    distinct prime there over dense random entries below: every one adds
    a row, and each new pivot is eliminated from every row before it."""
    n = draw(st.integers(10, len(PRIMES)))
    primes = draw(st.permutations(PRIMES))
    top = n + 4
    out = []
    for i in range(n):
        vec = {top - i: Fraction(primes[i], draw(DENOMINATORS))}
        for k in range(top - i):
            if draw(st.booleans()):
                vec[k] = draw(RATIONALS)
        out.append(vec)
    return out


def _cancelling(a, b):
    """a - (a[k] / b[k]) * b at the largest key k that a and b share: a
    sum that cancels at k (a itself when they share none)."""
    shared = a.keys() & b.keys()
    if not shared:
        return a
    c = a[max(shared)] / b[max(shared)]
    out = {k: a.get(k, 0) - c * b.get(k, 0) for k in a.keys() | b.keys()}
    return {k: v for k, v in out.items() if v}


def _assert_spaces_agree(space, reference):
    assert space.rank == reference.rank
    assert space.rows.keys() == reference.rows.keys()
    for pivot, row in space.rows.items():
        ref = reference.rows[pivot]
        assert row.keys() == ref.keys()
        assert all(type(c) is int for c in row.values())
        # the primitive multiple of ref (pivot coefficient 1) with a
        # positive pivot coefficient
        p = row[pivot]
        assert p > 0 and math.gcd(*row.values()) == 1
        assert all(c == p * ref[k] for k, c in row.items())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chains(), st.data())
def test_sparse_space_matches_fraction_reference(chain, data):
    space, reference = SparseSpace(), FractionSpace()
    added = []
    ops = data.draw(st.sampled_from([[], chain]))
    ops += data.draw(st.lists(st.one_of(
        sparse_vectors(), st.just("combination"), st.just("repeat"),
        st.just("cancel"), st.just({})), max_size=12))
    for op in ops:
        if op == "combination":  # in the span: no rank growth
            vec = _combination(data.draw, added[-4:])
        elif op == "repeat":
            vec = data.draw(st.sampled_from(added)) if added else {}
        elif op == "cancel":
            vec = _cancelling(data.draw(sparse_vectors()),
                              added[-1] if added else {})
        else:
            vec = op
        grew = reference.add(dict(vec))
        assert space.add(dict(vec)) == grew
        if grew:
            added.append(vec)
        _assert_spaces_agree(space, reference)
        for probe in (data.draw(sparse_vectors()),
                      _combination(data.draw, added[-3:])):
            assert space.contains(probe) == reference.contains(probe)


# ---------------------------------------------------------------------------
# tensor products of trees, lines and squares


@st.composite
def factors(draw):
    """Tree or line with zero paths, or a square with a zero path or a
    +-1 or weighted commutativity relation; at most 5 vertices."""
    kind = draw(st.sampled_from(("tree", "line", "square")))
    if kind == "square":
        q = Quiver(("1", "2", "3", "4"), (
            Arrow("a", "1", "2"), Arrow("b", "2", "4"),
            Arrow("c", "1", "3"), Arrow("d", "3", "4")))
        c1, c2 = draw(st.sampled_from(
            ((1, -1), (1, 1), (1, -2), (2, 3), (-1, 1), (1, None))))
        terms = ((Fraction(c1), ("a", "b")),)
        if c2 is not None:
            terms += ((Fraction(c2), ("c", "d")),)
        return Presentation(q, (Relation(terms),))
    n = draw(st.integers(1, 5))
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i in range(2, n + 1):
        parent = i - 1 if kind == "line" else draw(st.integers(1, i - 1))
        ends = (str(parent), str(i))
        if draw(st.booleans()):
            ends = ends[::-1]
        arrows.append(Arrow(f"t{i}", *ends))
    q = Quiver(vertices, tuple(arrows))
    long_paths = [p for ps in all_paths(q).values() for p in ps
                  if len(p) >= 2]
    zeros = draw(st.lists(st.sampled_from(long_paths), max_size=2,
                          unique=True)) if long_paths else []
    return Presentation(q, tuple(Relation(((Fraction(1), z),))
                                 for z in zeros))


TENSOR = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)


def _pair_dims(pres):
    return {pair: len(paths) for pair, paths in dimension_table(pres).pairs}


@TENSOR
@given(factors(), factors())
def test_tensor_dimensions_multiply_per_pair(pa, pb):
    assert _pair_dims(tensor_product(pa, pb)) == tensor_pair_dims(pa, pb)


@TENSOR
@given(factors(), factors())
def test_tensor_dimension_swap_and_opposite(pa, pb):
    total = dimension_table(tensor_product(pa, pb)).total
    assert dimension_table(tensor_product(pb, pa)).total == total
    assert dimension_table(opposite(tensor_product(pa, pb))).total == \
        dimension_table(tensor_product(opposite(pa), opposite(pb))).total


# ---------------------------------------------------------------------------
# quotient search against the search that rebuilds every candidate


def _vertex_signatures(vertices, mult):
    """Per vertex: sorted out- and in-multiplicities, from the arrow
    counts per (source, target)."""
    outs = {v: [] for v in vertices}
    ins = {v: [] for v in vertices}
    for (s, t), m in mult.items():
        outs[s].append(m)
        ins[t].append(m)
    return {v: (tuple(sorted(outs[v])), tuple(sorted(ins[v])))
            for v in vertices}


def _vertex_maps(q1, q2):
    """Reference: all quiver-compatible vertex bijections, in
    deterministic order: q1's vertices are mapped in declaration order,
    each trying q2's vertices in theirs, by backtracking with an explicit
    stack."""
    if len(q1.vertices) != len(q2.vertices) or \
            len(q1.arrows) != len(q2.arrows):
        return
    m1, m2 = q1.mult, q2.mult
    sig1 = _vertex_signatures(q1.vertices, m1)
    sig2 = _vertex_signatures(q2.vertices, m2)
    order = q1.vertices
    if not order:
        yield {}
        return
    used = set()
    vmap = {}
    frames = [iter(q2.vertices)]  # frames[i] tries images for order[i]
    while frames:
        idx = len(frames) - 1
        u = order[idx]
        if u in vmap:
            used.discard(vmap.pop(u))
        for w in frames[-1]:
            if w in used or sig1[u] != sig2[w]:
                continue
            for prev in order[:idx]:
                pw = vmap[prev]
                if m1.get((u, prev), 0) != m2.get((w, pw), 0) or \
                        m1.get((prev, u), 0) != m2.get((pw, w), 0) or \
                        m1.get((u, u), 0) != m2.get((w, w), 0):
                    break
            else:
                break
        else:
            frames.pop()
            continue
        vmap[u] = w
        used.add(w)
        if idx + 1 == len(order):
            yield dict(vmap)
        else:
            frames.append(iter(q2.vertices))


def _arrow_maps(q1, q2, vmap):
    """Reference: all arrow bijections compatible with a vertex bijection.

    Parallel arrows are matched by permutation, the first (source, target)
    pair varying slowest; permutations are generated one at a time, so the
    first map costs nothing however many parallel arrows there are."""

    def names(quiver, s, t):
        return [a.name for a in quiver.out[s] if a.target == t]

    amap = {}
    pools = []  # pairs with parallel arrows; the others have one bijection
    for s, t in sorted(q1.mult):
        names1 = names(q1, s, t)
        names2 = names(q2, vmap[s], vmap[t])
        if len(names1) != len(names2):
            return
        if len(names1) == 1:
            amap[names1[0]] = names2[0]
        else:
            pools.append((names1, names2))
    if not pools:
        yield dict(amap)
        return
    # perms[k] iterates the matchings of pools[k]
    perms = [itertools.permutations(pools[0][1])]
    while perms:
        perm = next(perms[-1], None)
        if perm is None:
            perms.pop()
            continue
        amap.update(zip(pools[len(perms) - 1][0], perm))
        if len(perms) == len(pools):
            yield dict(amap)
        else:
            perms.append(itertools.permutations(pools[len(perms)][1]))


def _reference_has_quotient(pres, target):
    """Reference: kill vertex sets, then arrow sets, rebuilding each
    candidate with ``quotient`` and the target ideal per candidate map."""
    nv = len(pres.quiver.vertices) - len(target.quiver.vertices)
    if nv < 0:
        return None
    for killed_vs in itertools.combinations(pres.quiver.vertices, nv):
        after_v = quotient(pres, killed_vs)
        na = len(after_v.quiver.arrows) - len(target.quiver.arrows)
        if na < 0:
            continue
        arrow_names = tuple(a.name for a in after_v.quiver.arrows)
        for killed_as in itertools.combinations(arrow_names, na):
            sub = quotient(pres, killed_vs, killed_as)
            for vmap in _vertex_maps(sub.quiver, target.quiver):
                for amap in _arrow_maps(sub.quiver, target.quiver, vmap):
                    vectors = _transported_relation_vectors(sub, amap)
                    ideal = ideal_membership_spaces(target)
                    if all(ideal.contains(vec) for vec in vectors):
                        return QuotientWitness(
                            tuple(killed_vs), tuple(killed_as),
                            tuple(sorted(vmap.items())),
                            tuple(sorted(amap.items())))
    return None


# every target classify.py searches for, two with parallel arrows, a
# disconnected one, and a tree whose twins 1 and 3 its ideal tells apart,
# so that a witness may need the second twin order of an embedding
QUOTIENT_TARGETS = tuple(catalog_get(cat_id) for cat_id in (
    "A(3,++)", "A(3,+-)", "A(3,-+)", "A(3,--)", "N(3)", "B1", "L42",
    "L43square", "B5_1", "B5_2", "B5_3", "LNak4", "A(4,-+-)")) + (
    parse_presentation("vertex 1\nvertex 2\n"
                       "arrow a : 1 -> 2\narrow b : 1 -> 2\n"),
    parse_presentation("vertex 1\nvertex 2\nvertex 3\n"
                       "arrow a : 1 -> 2\narrow b : 1 -> 2\n"
                       "arrow c : 3 -> 2\n"),
    parse_presentation("vertex 1\nvertex 2\nvertex 3\n"
                       "arrow a : 1 -> 2\n"),
    parse_presentation("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                       "arrow a : 1 -> 2\narrow b : 3 -> 2\n"
                       "arrow c : 2 -> 4\nzero a.c\n"))


# cores for quotient sources; every core but the tree has an undirected
# cycle, so some kept sets induce more arrows than the target and the
# search kills arrows: a transitive triangle, a square, a square with a
# diagonal and two squares sharing the edge d
SQUARE = [Arrow("a", "1", "2"), Arrow("b", "2", "4"),
          Arrow("c", "1", "3"), Arrow("d", "3", "4")]
CORES = {
    "tree": (["1"], []),
    "triangle": (["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                   Arrow("c", "1", "3")]),
    "square": (["1", "2", "3", "4"], SQUARE),
    "diagonal": (["1", "2", "3", "4"], SQUARE + [Arrow("e", "1", "4")]),
    "two squares": (["1", "2", "3", "4", "5", "6"], SQUARE + [
        Arrow("e", "3", "5"), Arrow("f", "4", "6"), Arrow("g", "5", "6")]),
}


@st.composite
def quotient_sources(draw):
    """A core from CORES with tree vertices hanging off it, at most 7
    vertices in all; sometimes one arrow doubled; up to 2 zero paths, and
    on a core with the square a commutativity, weighted or zero relation."""
    core = draw(st.sampled_from(sorted(CORES)))
    vertices, arrows = (list(part) for part in CORES[core])
    for _ in range(draw(st.integers(0, 7 - max(len(vertices), 1)))):
        new = str(len(vertices) + 1)
        ends = (draw(st.sampled_from(vertices)), new)
        if draw(st.booleans()):
            ends = ends[::-1]
        vertices.append(new)
        arrows.append(Arrow(f"t{new}", *ends))
    if arrows and draw(st.integers(0, 3)) == 0:
        a = draw(st.sampled_from(arrows))
        arrows.append(Arrow(a.name + "x", a.source, a.target))
    q = Quiver(tuple(vertices), tuple(arrows))
    long_paths = [p for ps in all_paths(q).values() for p in ps
                  if len(p) >= 2]
    relations = [Relation(((Fraction(1), z),)) for z in draw(st.lists(
        st.sampled_from(long_paths), max_size=2, unique=True))] \
        if long_paths else []
    if "d" in q.by_name:
        c1, c2 = draw(st.sampled_from(
            ((1, -1), (1, 2), (1, None), (None, None))))
        if c1 is not None:
            terms = ((Fraction(c1), ("a", "b")),)
            if c2 is not None:
                terms += ((Fraction(c2), ("c", "d")),)
            relations.append(Relation(terms))
    return Presentation(q, tuple(relations))


QUOTIENT = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@QUOTIENT
@given(quotient_sources())
def test_quotient_search_matches_reference(pres):
    for source in (pres, opposite(pres)):
        for target in QUOTIENT_TARGETS:
            found = has_quotient(source, target)
            assert found == _reference_has_quotient(source, target)
            if found is not None:
                assert verify_quotient_witness(source, target, found)


@st.composite
def tree_sources(draw):
    """A tree on 1 to 9 vertices, each vertex after the first hung off an
    earlier one by an arrow in either direction, with up to 3 zero paths
    of length 2 to 4."""
    n = draw(st.integers(1, 9))
    arrows = []
    for i in range(2, n + 1):
        ends = (str(draw(st.integers(1, i - 1))), str(i))
        if draw(st.booleans()):
            ends = ends[::-1]
        arrows.append(Arrow(f"t{i}", *ends))
    q = Quiver(tuple(str(i) for i in range(1, n + 1)), tuple(arrows))
    paths = [p for ps in all_paths(q).values() for p in ps
             if 2 <= len(p) <= 4]
    zeros = draw(st.lists(st.sampled_from(paths), max_size=3,
                          unique=True)) if paths else []
    return Presentation(q, tuple(Relation(((Fraction(1), z),))
                                 for z in zeros))


@QUOTIENT
@given(tree_sources())
def test_tree_quotient_search_matches_reference(pres):
    # tree targets with twins: A(3,+-)'s two ends, and the last target's
    # 1 and 3
    a3 = catalog_get("A(3,+-)")
    assert a3 in QUOTIENT_TARGETS and twin_classes(a3.quiver)
    assert twin_classes(QUOTIENT_TARGETS[-1].quiver)
    for source in (pres, opposite(pres)):
        assert source.quiver.is_tree()
        for target in QUOTIENT_TARGETS:
            found = has_quotient(source, target)
            assert found == _reference_has_quotient(source, target)
            if found is not None:
                assert verify_quotient_witness(source, target, found)
                # only a disconnected target leaves an arrow to kill
                assert not found.killed_arrows or \
                    not target.quiver.is_connected()


def _injection_images(q, tq):
    """Reference: every vertex set of q, as positions in lexicographic
    order, onto which some bijection from tq's vertices keeps each arrow
    count of tq at most q's count between the images."""
    counts = q.mult
    wanted = tq.mult.items()
    images = []
    for kept in itertools.combinations(range(len(q.vertices)),
                                       len(tq.vertices)):
        for perm in itertools.permutations(kept):
            image = dict(zip(tq.vertices, (q.vertices[i] for i in perm)))
            if all(counts[image[s], image[t]] >= m
                   for (s, t), m in wanted):
                images.append(kept)
                break
    return images


def _sets_with_vertex_maps(q, tq):
    """Kept sets of the search over every vertex set whose induced
    subquiver, after killing some arrows, has a vertex map onto tq."""
    for kept in itertools.combinations(range(len(q.vertices)),
                                       len(tq.vertices)):
        names = {q.vertices[i] for i in kept}
        arrows = tuple(a for a in q.arrows
                       if a.source in names and a.target in names)
        na = len(arrows) - len(tq.arrows)
        if na < 0:
            continue
        for killed in itertools.combinations(arrows, na):
            sub = Quiver(tuple(q.vertices[i] for i in kept),
                         tuple(a for a in arrows if a not in killed))
            if next(_vertex_maps(sub, tq), None) is not None:
                yield kept
                break


@QUOTIENT
@given(quotient_sources())
def test_host_sets_are_the_injection_images(pres):
    for q in (pres.quiver, opposite(pres).quiver):
        for target in QUOTIENT_TARGETS:
            hosts = embedding_images(q, target.quiver)
            assert all(a > b for a, b in zip(hosts, hosts[1:]))
            assert hosts == _injection_images(q, target.quiver)[::-1]
            assert set(_sets_with_vertex_maps(q, target.quiver)) \
                <= set(hosts)


# ---------------------------------------------------------------------------
# isomorphism against vertex maps with ideal equality by ranks


def _reference_is_iso(p1, p2):
    """Reference: the first vertex map and arrow map under which p1's
    relations land inside p2's ideal and span an ideal of the same rank as
    p2's on every pair of vertices, as (vertex map, arrow map) items."""
    for vmap in _vertex_maps(p1.quiver, p2.quiver):
        for amap in _arrow_maps(p1.quiver, p2.quiver, vmap):
            vectors = _transported_relation_vectors(p1, amap)
            if not all(p2.ideal.contains(vec) for vec in vectors):
                continue
            transported = Presentation(
                p2.quiver,
                tuple(Relation(tuple((c, p) for p, c in sorted(v.items())))
                      for v in vectors))
            if all(transported.ideal.rank(pair) == p2.ideal.rank(pair)
                   for pair in all_paths(p2.quiver)):
                return (tuple(sorted(vmap.items())),
                        tuple(sorted(amap.items())))
    return None


def _renamed(pres, rnd):
    """pres with fresh vertex and arrow names, its vertices, arrows and
    relations declared in shuffled order."""
    q = pres.quiver
    vname = dict(zip(q.vertices, rnd.sample(
        [f"w{i}" for i in range(len(q.vertices))], len(q.vertices))))
    aname = dict(zip((a.name for a in q.arrows), rnd.sample(
        [f"r{i}" for i in range(len(q.arrows))], len(q.arrows))))
    vertices = [vname[v] for v in q.vertices]
    arrows = [Arrow(aname[a.name], vname[a.source], vname[a.target])
              for a in q.arrows]
    relations = [Relation(tuple((c, tuple(aname[n] for n in path))
                                for c, path in rel.terms))
                 for rel in pres.relations]
    for part in (vertices, arrows, relations):
        rnd.shuffle(part)
    return Presentation(Quiver(tuple(vertices), tuple(arrows)),
                        tuple(relations))


@QUOTIENT
@given(quotient_sources(), st.randoms(use_true_random=False))
def test_is_iso_matches_reference(pres, rnd):
    renamed = _renamed(pres, rnd)
    for other in (renamed, opposite(pres)) + QUOTIENT_TARGETS:
        for p1, p2 in ((pres, other), (other, pres)):
            found = is_iso(p1, p2)
            expected = _reference_is_iso(p1, p2)
            assert (found is None) == (expected is None)
            if found is not None:
                assert found.killed_vertices == found.killed_arrows == ()
                assert (found.vertex_map, found.arrow_map) == expected
    assert is_iso(pres, renamed) is not None


def _scanning_word_ok(by_name, zero_paths, letters):
    """Reference: the string predicate that scans every zero path for
    every run."""
    def ends(letter):
        a = by_name[letter[0]]
        return (a.source, a.target) if letter[1] else (a.target, a.source)

    for prev, nxt in zip(letters, letters[1:]):
        if ends(prev)[1] != ends(nxt)[0]:
            return False
        if prev[0] == nxt[0] and prev[1] != nxt[1]:
            return False
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


# loops at one vertex compose in every order, so the runs decide a word
WORD_ARROWS = {a.name: a for a in (Arrow("a", "1", "1"), Arrow("b", "1", "1"),
                                   Arrow("c", "1", "1"))}
ARROW_NAMES = st.sampled_from(sorted(WORD_ARROWS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.lists(ARROW_NAMES, min_size=1, max_size=6)),
                max_size=3),
       st.lists(st.lists(ARROW_NAMES, min_size=1, max_size=4).map(tuple),
                max_size=5))
def test_word_ok_matches_scanning_reference(runs, zero_paths):
    # words drawn run by run, so runs are long enough for long zero paths
    letters = [(name, direct) for direct, names in runs for name in names]
    zero_set = frozenset(zero_paths)
    lengths = sorted({len(zp) for zp in zero_set})
    assert _word_ok(zero_set, lengths, letters) == \
        _scanning_word_ok(WORD_ARROWS, tuple(zero_paths), letters)


def _is_proper_power(word):
    k = len(word)
    return any(k % d == 0 and word == word[:d] * (k // d)
               for d in range(1, k))


def _reference_band(pres, length_bound):
    """Reference: the band walk that also tested each word's
    composability and refused proper powers, normalized as band_search
    normalizes."""
    q = pres.quiver
    by_name = q.by_name
    zero_paths = tuple(zero_relation_paths(pres))

    def end(letter):
        a = by_name[letter[0]]
        return a.target if letter[1] else a.source

    moves = {v: sorted([(a.name, True) for a in q.out[v]]
                       + [(a.name, False) for a in q.inc[v]],
                       key=lambda l: (l[0], not l[1]))
             for v in q.vertices}
    for start in q.vertices:
        word, frames = [], [iter(moves[start])]
        while frames:
            letter = next(frames[-1], None)
            if letter is None:
                frames.pop()
                if word:
                    word.pop()
                continue
            word.append(letter)
            if not _scanning_word_ok(by_name, zero_paths, word):
                word.pop()
                continue
            at = end(letter)
            if len(word) >= 2 and at == start \
                    and len({d for _, d in word}) == 2 \
                    and not _is_proper_power(word) \
                    and _scanning_word_ok(by_name, zero_paths, word + word):
                band = StringWord(tuple(word))
                return min((rot for w in (band, band.inverse())
                            for rot in w.rotations()), key=str)
            if len(word) >= length_bound:
                word.pop()
            else:
                frames.append(iter(moves[at]))
    return None


@st.composite
def string_algebras(draw):
    """Monomial special biserial presentations: an acyclic quiver with at
    most two arrows into and two out of each vertex, parallel arrows
    allowed; of the compositions on either side of an arrow all but at
    most one are zero, and a few more paths of length 2 or 3 are zero."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))  # declared in another order
    vertices = tuple(NAMES[i] for i in order)
    outdeg, indeg = Counter(), Counter()
    arrows = []
    for s, t in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n)):
        s, t = min(s, t), max(s, t)  # forward in NAMES order: acyclic
        if s == t or outdeg[s] == 2 or indeg[t] == 2:
            continue
        outdeg[s] += 1
        indeg[t] += 1
        arrows.append(Arrow(f"a{len(arrows)}", NAMES[s], NAMES[t]))
    q = Quiver(vertices, tuple(arrows))
    zeros = set()
    for b in q.arrows:
        befores = [(a.name, b.name) for a in q.inc[b.source]]
        afters = [(b.name, c.name) for c in q.out[b.target]]
        for side in (befores, afters):
            keep = draw(st.sampled_from([None, *range(len(side))]))
            zeros.update(p for k, p in enumerate(side) if k != keep)
    longer = [p for ps in all_paths(q).values() for p in ps
              if len(p) in (2, 3)]
    zeros.update(p for p in longer if draw(st.integers(0, 3)) == 0)
    pres = Presentation(q, tuple(Relation(((Fraction(1), p),))
                                 for p in sorted(zeros)))
    assert special_biserial_check(pres).ok
    return pres


@PROPERTY
@given(string_algebras(), st.integers(1, 12))
def test_band_search_matches_the_walk_with_power_test(pres, length_bound):
    band = band_search(pres, length_bound)
    assert str(band) == str(_reference_band(pres, length_bound))
    assert band is None or not _is_proper_power(band.letters)


# ---------------------------------------------------------------------------
# the line reader and the oriented-cycle search against separate walks


def _reference_is_linear_nakayama(quiver):
    """Reference: the walk from the one source along single out-arrows."""
    n = len(quiver.vertices)
    if len(quiver.arrows) != n - 1:
        return False
    targets = {a.target for a in quiver.arrows}
    sources = [v for v in quiver.vertices if v not in targets]
    if len(sources) != 1:
        return False
    out = quiver.out
    at, seen = sources[0], 1
    while seen < n and len(out[at]) == 1:
        at = out[at][0].target
        seen += 1
    return seen == n and not out[at]


def _reference_line_class(quiver):
    """Reference: type A by the Dynkin classifier, then a walk from the
    first end over out- and in-arrows."""
    report = classify_graph(underlying_graph(quiver))
    if len(report.components) != 1 or report.components[0][1].tag != "A":
        return None
    if len(quiver.vertices) == 1:
        return ""
    out, inc = quiver.out, quiver.inc

    def steps(v):
        return [(a.target, "+") for a in out[v]] + \
            [(a.source, "-") for a in inc[v]]

    end = next(v for v in quiver.vertices if len(steps(v)) == 1)
    eps = []
    prev, at = None, end
    while True:
        nxts = [(w, d) for w, d in steps(at) if w != prev]
        if not nxts:
            break
        w, d = nxts[0]
        eps.append(d)
        prev, at = at, w
    return orientation_class("".join(eps))


def _reference_no_cycle(quiver):
    """Reference: three-colour depth-first search in which a loop, too,
    closes a cycle."""
    out = {v: [a.target for a in quiver.arrows if a.source == v]
           for v in quiver.vertices}
    state = {v: 0 for v in quiver.vertices}  # 0 new, 1 open, 2 done
    for root in quiver.vertices:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            u, it = stack[-1]
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                state[u] = 2
                stack.pop()
    return True


def _reference_parallel_witness(quiver):
    """Reference: rule R2's scan, keeping each (source, target) pair's
    first arrow name; the witness's arrows, from and to, or None."""
    seen = {}
    for a in quiver.arrows:
        key = (a.source, a.target)
        if key in seen:
            return [seen[key], a.name], a.source, a.target
        seen[key] = a.name
    return None


@st.composite
def shaped_quivers(draw):
    """Quivers on 1 to 7 vertices with loops, parallel and antiparallel
    arrows and several components; a third start from a line and a third
    from a tree through the vertices in a random order, which the extra
    arrows may spoil."""
    n = draw(st.integers(1, 7))
    vertices = tuple(draw(st.permutations(NAMES))[:n])
    ends = []
    base = draw(st.sampled_from(("none", "line", "tree")))
    if base != "none":
        order = draw(st.permutations(vertices))
        for k in range(1, n):
            v = order[k - 1 if base == "line" else draw(st.integers(0, k - 1))]
            ends.append((v, order[k]) if draw(st.booleans())
                        else (order[k], v))
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    ends += draw(st.lists(pairs, max_size=n))
    ends = draw(st.permutations(ends))
    return Quiver(vertices, tuple(Arrow(f"a{k}", s, t)
                                  for k, (s, t) in enumerate(ends)))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(shaped_quivers())
def test_shape_readers_match_references(q):
    # acyclicity first: the profile enumerates paths on acyclic quivers
    assert q.is_acyclic() == _reference_no_cycle(q)
    assert structural_profile(Presentation(q, ())).is_linear_nakayama \
        == _reference_is_linear_nakayama(q)
    assert line_class(q) == _reference_line_class(q)
    loop_free = Quiver(q.vertices, tuple(a for a in q.arrows
                                         if a.source != a.target))
    cycle = find_oriented_cycle(q)
    assert (cycle is None) == _reference_no_cycle(loop_free)
    if cycle is not None:
        assert len(cycle) == len(set(cycle)) >= 2
        edges = {(a.source, a.target) for a in q.arrows}
        assert all((v, w) in edges
                   for v, w in zip(cycle, cycle[1:] + cycle[:1]))
    expected = _reference_parallel_witness(q)
    assert (q.first_parallel_pair() is not None) == (expected is not None)
    if expected is not None and len(q.vertices) >= 2:
        # R2 comes before any rule that needs an acyclic factor, so with
        # the input gate lifted it reads any quiver
        with mock.patch.object(classify, "_gate", lambda pres, who: None):
            verdict = classify_tensor(Presentation(q, ()), line(2))
        witness = verdict.certificate.witness
        assert verdict.certificate.rule == "multiple-arrows"
        assert (witness["factor"], witness["arrows"], witness["from"],
                witness["to"]) == ("A", *expected)


def _reference_components(vertices, edges):
    """Reference: a union-find over the edges (the connectivity test that
    ``Quiver`` once kept), grouped by root in vertex order."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, w in edges:
        root[find(u)] = find(w)
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


@st.composite
def multigraphs(draw):
    """Undirected multigraphs on 0 to 9 vertices in a random order, with
    isolated vertices, loops and repeated edges."""
    vertices = tuple(draw(st.permutations(NAMES))[:draw(st.integers(0, 9))])
    if not vertices:
        return vertices, ()
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=10))
    edges += draw(st.lists(ends.map(lambda v: (v, v)), max_size=2))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return vertices, tuple(draw(st.permutations(edges)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(multigraphs())
def test_components_match_union_find(graph):
    vertices, edges = graph
    near = {v: [] for v in vertices}
    for u, w in edges:
        near[u].append(w)
        near[w].append(u)
    found = components(vertices, near)
    expected = _reference_components(vertices, edges)
    assert [set(c) for c in found] == [set(c) for c in expected]
    assert [c[0] for c in found] == [c[0] for c in expected]
    assert sorted(v for c in found for v in c) == sorted(vertices)


def _reference_component_type(vertices, edges):
    """Reference: the recognizer that kept its own leg triples and built a
    multiplicity map, a degree map and an adjacency map per component."""
    n = len(vertices)
    if any(u == v for u, v in edges):
        return GraphType("other", 0)
    simple = {}
    for u, v in edges:
        key = (u, v) if u <= v else (v, u)
        simple[key] = simple.get(key, 0) + 1
    if any(m >= 2 for m in simple.values()):
        if n == 2 and len(edges) == 2 and len(simple) == 1 \
                and next(iter(simple.values())) == 2:
            return GraphType("A~", 1)
        return GraphType("other", 0)
    deg = {v: 0 for v in vertices}
    for u, v in simple:
        deg[u] += 1
        deg[v] += 1
    e = len(simple)
    if e == n and all(d == 2 for d in deg.values()):
        return GraphType("A~", n - 1)
    if e != n - 1:
        return GraphType("other", 0)
    # tree
    branch = sorted(v for v in vertices if deg[v] >= 3)
    if not branch:
        return GraphType("A", n)
    adj = {v: [] for v in vertices}
    for u, v in simple:
        adj[u].append(v)
        adj[v].append(u)

    def leg_lengths(center):
        """Leg lengths of the only branch vertex; each leg ends at a leaf."""
        lengths = []
        for start in adj[center]:
            length = 1
            prev, at = center, start
            while deg[at] == 2:
                nxt = [w for w in adj[at] if w != prev][0]
                prev, at = at, nxt
                length += 1
            lengths.append(length)
        return sorted(lengths)

    if len(branch) == 1:
        center = branch[0]
        d = deg[center]
        if d == 4:
            legs = leg_lengths(center)
            if legs == [1, 1, 1, 1]:
                return GraphType("D~", 4)
            return GraphType("other", 0)
        if d > 4:
            return GraphType("other", 0)
        legs = leg_lengths(center)
        a, b, c = legs
        if a == 1 and b == 1:
            return GraphType("D", n)
        if (a, b, c) == (1, 2, 2):
            return GraphType("E", 6)
        if (a, b, c) == (1, 2, 3):
            return GraphType("E", 7)
        if (a, b, c) == (1, 2, 4):
            return GraphType("E", 8)
        if (a, b, c) == (2, 2, 2):
            return GraphType("E~", 6)
        if (a, b, c) == (1, 3, 3):
            return GraphType("E~", 7)
        if (a, b, c) == (1, 2, 5):
            return GraphType("E~", 8)
        return GraphType("other", 0)
    if len(branch) == 2 and all(deg[v] == 3 for v in branch):
        leaves = [v for v in vertices if deg[v] == 1]
        if len(leaves) == 4 and all(
                any(w in branch for w in adj[leaf]) for leaf in leaves):
            b1, b2 = branch
            if sum(1 for leaf in leaves if b1 in adj[leaf]) == 2 \
                    and sum(1 for leaf in leaves if b2 in adj[leaf]) == 2:
                return GraphType("D~", n - 1)
        return GraphType("other", 0)
    return GraphType("other", 0)


def _reference_classify_graph(graph):
    """Reference: one filter of the whole edge list per component, over
    the reference union-find's components."""
    report = []
    for comp in _reference_components(graph.vertices, graph.edges):
        members = set(comp)
        verts = tuple(sorted(comp))
        edges = [(a, b) for a, b in graph.edges if a in members]
        report.append((verts, _reference_component_type(verts, edges)))
    return GraphTypeReport(tuple(report))


# Leg lengths that name a type (stars of D~4, E6-E8 and E~6-E~8) and
# near misses that name none.
_STAR_LEGS = ((1, 1, 1, 1), (1, 2, 2), (1, 2, 3), (1, 2, 4), (2, 2, 2),
              (1, 3, 3), (1, 2, 5), (1, 1, 1, 2), (2, 2, 3), (1, 3, 4),
              (1, 2, 6), (1, 1, 1, 1, 1))


@st.composite
def branched_trees(draw):
    """Edges of a tree on 0, 1, ...: one branch vertex with 3 or more
    legs, or two branch vertices joined by a path, each with 2 or 3 legs.
    They give D_n, D~n, E and E~ stars, stars with 4 and 5 or more legs,
    and trees of no type."""
    edges = []

    def grow(at, length):
        for _ in range(length):
            edges.append((at, len(edges) + 1))
            at = len(edges)
        return at

    if draw(st.booleans()):
        for leg in draw(st.sampled_from(_STAR_LEGS) | st.lists(
                st.integers(1, 6), min_size=3, max_size=6)):
            grow(0, leg)
    else:
        other = grow(0, draw(st.integers(1, 4)))
        for center in (0, other):
            for leg in draw(st.sampled_from(
                    ((1, 1), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)))):
                grow(center, leg)
    return edges


@st.composite
def typed_graphs(draw):
    """A branched or random tree under drawn names and edge directions,
    beside a multigraph (with isolated vertices, loops and repeated
    edges), and in one draw of four with up to two edges added anywhere."""
    if draw(st.integers(0, 3)):
        tree = draw(branched_trees())
    else:
        tree = [(draw(st.integers(0, i - 1)), i)
                for i in range(1, draw(st.integers(1, 12)))]
    names = [f"t{i}" for i in draw(st.permutations(range(len(tree) + 1)))]
    edges = [(names[u], names[v]) if draw(st.booleans())
             else (names[v], names[u]) for u, v in tree]
    other_vertices, other_edges = draw(multigraphs())
    vertices = names + list(other_vertices)
    ends = st.sampled_from(vertices)
    edges += list(other_edges)
    if not draw(st.integers(0, 3)):
        edges += draw(st.lists(st.tuples(ends, ends), max_size=2))
    return (tuple(draw(st.permutations(vertices))),
            tuple(draw(st.permutations(edges))))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(typed_graphs())
def test_classify_graph_matches_reference(graph):
    ugraph = UGraph(*graph)
    assert classify_graph(ugraph) == _reference_classify_graph(ugraph)


def _reference_is_rad_square_zero(pres):
    """Reference: a dimension-table scan on an acyclic quiver, the
    length-2 zero relations on a cyclic one."""
    if pres.quiver.is_acyclic():
        table = dimension_table(pres)
        return all(len(p) <= 1 for _, paths in table.pairs for p in paths)
    monomial_squares = {terms[0][1] for terms in map(Relation.combined,
                                                     pres.relations)
                        if len(terms) == 1 and len(terms[0][1]) == 2}
    out = pres.quiver.out
    return all((a.name, b.name) in monomial_squares
               for a in pres.quiver.arrows for b in out[a.target])


def _reference_profile_flags(pres):
    """Reference: the profile's rad^2 = 0 and Schurian flags read off the
    dimension table."""
    table = dimension_table(pres)
    return (all(len(p) <= 1 for _, paths in table.pairs for p in paths),
            all(len(paths) <= 1 for _, paths in table.pairs))


def _reference_special_biserial_check(pres):
    """Reference: the check asking ``pres.ideal`` about every pair."""
    q = pres.quiver
    out, inc = q.out, q.inc
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


def _compositions(q):
    return [(a.name, b.name) for a in q.arrows for b in q.out[a.target]]


def _with_zero_pairs(draw, pres):
    """The presentation with zero relations added on drawn compositions,
    all of them in about a third of the draws."""
    pairs = _compositions(pres.quiver)
    if not draw(st.integers(0, 2)):
        picked = pairs
    else:
        picked = [p for p in pairs if draw(st.booleans())]
    return Presentation(pres.quiver, pres.relations + tuple(
        Relation(((draw(COEFFS), p),)) for p in picked))


def _without_parallel_arrows(pres):
    """The presentation on the first arrow of each (source, target) pair,
    with the relations that use only those arrows."""
    q, seen = pres.quiver, {}
    for a in q.arrows:
        seen.setdefault((a.source, a.target), a)
    kept = {a.name for a in seen.values()}
    return Presentation(
        Quiver(q.vertices, tuple(seen.values())),
        tuple(rel for rel in pres.relations
              if all(set(p) <= kept for p in rel.paths())))


@PROPERTY
@given(ideal_presentations(), st.data())
def test_zero_composition_readers_match_references(pres, data):
    simple = _without_parallel_arrows(pres)
    for p in (pres, _with_zero_pairs(data.draw, pres), simple,
              _with_zero_pairs(data.draw, simple)):
        zero = zero_pair_test(p)
        assert [zero(a, b) for a, b in _compositions(p.quiver)] == \
            [p.ideal.contains({pair: 1}) for pair in _compositions(p.quiver)]
        assert is_rad_square_zero(p) == _reference_is_rad_square_zero(p)
        prof = structural_profile(p)
        assert (prof.is_radical_square_zero, prof.is_schurian) == \
            _reference_profile_flags(p)
        assert special_biserial_check(p) == \
            _reference_special_biserial_check(p)
        if prof.is_schurian or p.quiver.first_parallel_pair() is not None:
            continue
        # R3, the first rule to read the ideal, with the input gate lifted
        with mock.patch.object(classify, "_gate", lambda pres, who: None):
            witness = classify_tensor(p, line(2)).certificate.witness
        assert witness["pair"] == list(next(
            pair for pair, paths in dimension_table(p).pairs
            if len(paths) >= 2))


def _respelled(draw, pres):
    """pres with one relation respelled without changing its value: a term
    c*p split into (c/2)*p + (c/2)*p, or +q - q added for a path q of
    length >= 2 parallel to the relation's."""
    idx = draw(st.integers(0, len(pres.relations) - 1))
    terms = list(pres.relations[idx].terms)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(terms) - 1))
        c, p = terms[at]
        terms[at:at + 1] = [(c / 2, p), (c / 2, p)]
    else:
        q, p = pres.quiver, terms[0][1]
        pair = (q.by_name[p[0]].source, q.by_name[p[-1]].target)
        extra = draw(st.sampled_from(
            [r for r in all_paths(q)[pair] if len(r) >= 2]))
        c = draw(COEFFS)
        at = draw(st.integers(0, len(terms)))
        terms[at:at] = [(c, extra), (-c, extra)]
    relations = list(pres.relations)
    relations[idx] = Relation(tuple(terms))
    return Presentation(pres.quiver, tuple(relations))


def _readings(pres, target):
    """What the readers of a relation's value make of pres."""
    q = pres.quiver
    zero = zero_pair_test(pres)
    return ([zero(a, b) for a, b in _compositions(q)],
            is_rad_square_zero(pres),
            structural_profile(pres),
            homology_rank(pres) if q.is_connected() else None,
            dimension_table(pres),
            has_quotient(pres, target))


@PROPERTY
@given(ideal_presentations(), st.data())
def test_respelled_relations_read_the_same(pres, data):
    # every reader sums a repeated path's coefficients, as the ideal does
    if not pres.relations:
        return
    target = data.draw(st.sampled_from(QUOTIENT_TARGETS))
    assert _readings(_respelled(data.draw, pres), target) == \
        _readings(pres, target)


def _trees(n):
    """Every tree on n vertices, one per class up to relabeling."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for counts in quivers_up_to_iso(n, max_arrows=n - 1):
        q = quiver_from_cells(n, cells, counts)
        if q.is_tree():
            yield q


# each is a relation on one path p: 1*p, 2*p, -1/2*p, 1*p + 1*p, 1*p - 1*p
_TREE_RELATIONS = ((1,), (2,), (Fraction(-1, 2),), (1, 1), (1, -1))


def test_tree_readers_match_the_ideal_exhaustively():
    # on a tree the readers never build the ideal; compare them with it on
    # every tree with 2 to 5 vertices and every one-path relation
    trees = [list(_trees(n)) for n in range(2, 6)]
    assert [len(ts) for ts in trees] == [1, 3, 8, 27]  # A000238
    checked = 0
    for q in itertools.chain.from_iterable(trees):
        comps = _compositions(q)
        # a lone arrow is no admissible term, but the ideal kills it
        for path in comps + [(a.name,) for a in q.arrows]:
            for coeffs in _TREE_RELATIONS:
                p = Presentation(q, (Relation(tuple(
                    (Fraction(c), path) for c in coeffs)),))
                zero = zero_pair_test(p)
                assert [zero(a, b) for a, b in comps] == \
                    [p.ideal.contains({pair: 1}) for pair in comps]
                assert is_rad_square_zero(p) == \
                    _reference_is_rad_square_zero(p)
                prof = structural_profile(p)
                assert (prof.is_radical_square_zero, prof.is_schurian) == \
                    _reference_profile_flags(p)
                assert special_biserial_check(p) == \
                    _reference_special_biserial_check(p)
                checked += 1
    assert checked == 970


@st.composite
def cyclic_presentations(draw):
    """A quiver on 1 to 6 vertices with an oriented cycle or a loop, zero
    relations on drawn compositions and one binomial relation, between two
    parallel compositions where there are some."""
    n = draw(st.integers(1, 6))
    vertices = tuple(draw(st.permutations(NAMES))[:n])
    cycle = draw(st.permutations(vertices))[:draw(st.integers(1, n))]
    ends = list(zip(cycle, cycle[1:] + cycle[:1]))
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    ends += draw(st.lists(pairs, max_size=n))
    q = Quiver(vertices, tuple(Arrow(f"a{k}", s, t)
                               for k, (s, t) in enumerate(ends)))
    pres = _with_zero_pairs(draw, Presentation(q, ()))
    by_name = q.by_name
    comps = _compositions(q)
    first = draw(st.sampled_from(comps))
    parallel = [p for p in comps if p != first
                and by_name[p[0]].source == by_name[first[0]].source
                and by_name[p[1]].target == by_name[first[1]].target]
    second = draw(st.sampled_from(parallel)) if parallel else first
    binomial = Relation(((draw(COEFFS), first), (draw(COEFFS), second)))
    return Presentation(q, pres.relations + (binomial,))


@PROPERTY
@given(cyclic_presentations())
def test_zero_compositions_on_cyclic_quivers(pres):
    zero = zero_pair_test(pres)
    squares = {terms[0][1] for terms in map(Relation.combined, pres.relations)
               if len(terms) == 1}
    assert [zero(a, b) for a, b in _compositions(pres.quiver)] == \
        [pair in squares for pair in _compositions(pres.quiver)]
    assert is_rad_square_zero(pres) == _reference_is_rad_square_zero(pres)
    prof = structural_profile(pres)
    assert (prof.is_radical_square_zero, prof.is_schurian) == (None, None)
    with pytest.raises(CyclicQuiverError,
                       match="^path enumeration needs an acyclic quiver$"):
        special_biserial_check(pres)


# The readers of a factor before its quiver had one walk and its relations
# one pass, kept verbatim (methods of ``_ParentQuiver``, functions with a
# ``_parent_`` prefix) as the oracle of the walk and the pass.  The ideal,
# the paths and the path helpers they read are the library's own.


def _parent_components(vertices, edges):
    adj = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen, found = set(), []
    for v in vertices:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for x in comp:  # comp grows while it is walked
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        found.append(comp)
    return found


class _ParentQuiver(Quiver):
    @cached_property
    def out(self):
        return self._group_by(lambda a: a.source)

    @cached_property
    def _acyclic(self):
        return not self.has_loop() and \
            (self.is_tree() or find_oriented_cycle(self) is None)

    @cached_property
    def _connected(self):
        self.out  # raises for the first arrow with an undeclared end
        return len(_parent_components(
            self.vertices, ((a.source, a.target) for a in self.arrows))) <= 1

    @cached_property
    def _line_word(self):
        n = len(self.vertices)
        if not self.is_tree():
            return None
        steps = {v: [] for v in self.vertices}  # not kept: caches keep quivers
        for a in self.arrows:
            steps[a.source].append((a.target, "+"))
            steps[a.target].append((a.source, "-"))
        if any(len(s) > 2 for s in steps.values()):
            return None
        word = []
        prev, at = None, next(v for v in self.vertices if len(steps[v]) < 2)
        for _ in range(n - 1):
            step = steps[at]  # one step at the first end, two further on
            w, letter = step[1] if step[0][0] == prev else step[0]
            word.append(letter)
            prev, at = at, w
        return "".join(word)

    def _group_by(self, end):
        groups = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source not in groups or a.target not in groups:
                v = a.source if a.source not in groups else a.target
                raise UnknownVertexError(
                    f"arrow {a.name}: endpoint {v} is not a declared vertex")
            groups[end(a)].append(a)
        return {v: tuple(arrows) for v, arrows in groups.items()}

    def is_acyclic(self):
        return self._acyclic

    def is_connected(self):
        return self._connected

    def is_tree(self):
        """Connected with n - 1 arrows, so without loops or cycles."""
        return len(self.arrows) == len(self.vertices) - 1 and self._connected

    def has_loop(self):
        return any(a.source == a.target for a in self.arrows)


def _parent_validate_presentation(pres):
    """Structural checks; returns a list of Violation records."""
    out = []
    q = pres.quiver
    if not q.vertices:
        out.append(Violation("EmptyQuiver", "quiver", "no vertices"))
    if len(set(q.vertices)) != len(q.vertices):
        out.append(Violation("DuplicateVertex", "quiver", "vertex ids repeat"))
    names = [a.name for a in q.arrows]
    if len(set(names)) != len(names):
        out.append(Violation("DuplicateArrow", "quiver", "arrow names repeat"))
    vset = set(q.vertices)
    declared = True
    for a in q.arrows:
        if a.source not in vset or a.target not in vset:
            declared = False
            out.append(Violation("UnknownVertex", a.name,
                                 "arrow endpoint not declared"))
    if declared and not q.is_connected():  # connectivity reads endpoints
        out.append(Violation("Disconnected", "quiver",
                             "underlying graph is not connected"))
    by_name = q.by_name
    for idx, rel in enumerate(pres.relations):
        where = f"relation {idx}"
        if not rel.terms:
            out.append(Violation("EmptyRelation", where, "no terms"))
            continue
        srcs, tgts = set(), set()
        for coeff, path in rel.terms:
            if coeff == 0:
                out.append(Violation("ZeroCoefficient", where, str(path)))
            if len(path) < 2:
                out.append(Violation("ShortRelationTerm", where, str(path)))
                continue
            if any(n not in by_name for n in path):
                out.append(Violation("UnknownArrow", where, str(path)))
                continue
            if not path_is_composable(q, path):
                out.append(Violation("NonComposablePath", where, str(path)))
                continue
            srcs.add(path_source(q, path))
            tgts.add(path_target(q, path))
        if len(srcs) > 1 or len(tgts) > 1:
            out.append(Violation("NonParallelRelation", where,
                                 "terms have different endpoints"))
    return out


def _parent_require_valid(pres):
    violations = _parent_validate_presentation(pres)
    if violations:
        if {v.code for v in violations} == {"Disconnected"}:
            error = DisconnectedError
        else:
            error = QuivertauError
        exc = error("; ".join(f"{v.code} ({v.where}): {v.detail}"
                              for v in violations))
        exc.violations = violations
        raise exc


def _parent_zero_relation_paths(pres):
    return frozenset(terms[0][1] for terms in map(Relation.combined,
                                                   pres.relations)
                     if len(terms) == 1)


def _parent_check_tree_relations(pres):
    q = pres.quiver
    for idx, rel in enumerate(pres.relations):
        if not rel.terms:
            continue
        path = rel.terms[0][1]
        path_source(q, path), path_target(q, path)  # as the ideal build
        if not path_is_composable(q, path) or \
                any(p != path for _, p in rel.terms):
            raise QuivertauError(
                f"relation {idx}: terms are not parallel paths")


def _parent_zero_pair_test(pres):
    tree = pres.quiver.is_tree()
    if tree:
        _parent_check_tree_relations(pres)
    zero = _parent_zero_relation_paths(pres)
    if tree:
        return lambda a, b: not zero.isdisjoint(((a, b), (a,), (b,)))
    acyclic = pres.quiver.is_acyclic()
    return lambda a, b: (a, b) in zero or (
        acyclic and pres.ideal.contains({(a, b): 1}))


def _parent_is_rad_square_zero(pres):
    zero, out = _parent_zero_pair_test(pres), pres.quiver.out
    return all(zero(a.name, b.name)
               for a in pres.quiver.arrows for b in out[a.target])


def _parent_line_orientation(quiver):
    return quiver._line_word


def _parent_structural_profile(pres):
    q = pres.quiver
    acyclic = q.is_acyclic()
    line = _parent_line_orientation(q)
    rsz = schurian = None
    if acyclic:
        rsz = _parent_is_rad_square_zero(pres)
        schurian = q.is_tree() or all(len(pres.ideal.basis(pair)) <= 1
                                      for pair in all_paths(q))
    return Profile(
        simple_count=len(q.vertices),
        is_acyclic=acyclic,
        is_local=len(q.vertices) == 1,
        is_hereditary=not any(map(Relation.combined, pres.relations)),
        is_linear_nakayama=line is not None and len(set(line)) <= 1,
        is_radical_square_zero=rsz,
        is_schurian=schurian,
    )


# reader name -> (the library reader, the parent's reader); each takes a
# presentation, and the quiver readers read its quiver
_READERS = {
    "validate_presentation": (validate_presentation,
                              _parent_validate_presentation),
    "require_valid": (require_valid, _parent_require_valid),
    "structural_profile": (structural_profile, _parent_structural_profile),
    "zero_pair_test": (zero_pair_test, _parent_zero_pair_test),
    "is_rad_square_zero": (is_rad_square_zero, _parent_is_rad_square_zero),
    "line_orientation": (lambda p: line_orientation(p.quiver),
                         lambda p: _parent_line_orientation(p.quiver)),
    "homology_rank": (homology_rank, homology_rank),
    "out": (lambda p: p.quiver.out, lambda p: p.quiver.out),
    "is_connected": (lambda p: p.quiver.is_connected(),
                     lambda p: p.quiver.is_connected()),
    "is_tree": (lambda p: p.quiver.is_tree(), lambda p: p.quiver.is_tree()),
    "is_acyclic": (lambda p: p.quiver.is_acyclic(),
                   lambda p: p.quiver.is_acyclic()),
    "has_loop": (lambda p: p.quiver.has_loop(),
                 lambda p: p.quiver.has_loop()),
}


def _outcome(reader, pres):
    """What a reader gives: its value (a zero-pair test as its answers on
    the composable arrow pairs), or the type, message and violations of
    what it raises."""
    try:
        value = reader(pres)
    except Exception as exc:  # noqa: BLE001  compared as an outcome
        return ("raises", type(exc), str(exc),
                getattr(exc, "violations", ()))
    if callable(value):
        by_name = pres.quiver.by_name
        pairs = [(x, y) for x, a in by_name.items()
                 for y, b in by_name.items() if a.target == b.source]
        return ("answers", [_outcome(lambda _: value(x, y), pres)
                            for x, y in pairs])
    return ("returns", value)


def _term_path(draw, arrows):
    """A relation term's path: mostly a walk of two or three arrows,
    sometimes names that are unknown, too short, or do not compose."""
    names = [a.name for a in arrows] or ["zz"]
    starts = [a for a in arrows if any(b.source == a.target for b in arrows)]
    kind = draw(st.sampled_from(("walk",) * 12 + ("short", "unknown", "any")))
    if kind == "short" or not starts:
        return draw(st.sampled_from(((), (names[0],))))
    if kind == "unknown":
        return (names[0], "zz")
    if kind == "any":
        return tuple(draw(st.lists(st.sampled_from(names), min_size=2,
                                   max_size=3)))
    path = [draw(st.sampled_from(starts))]
    for _ in range(draw(st.integers(1, 2))):
        nxt = [a for a in arrows if a.source == path[-1].target]
        if not nxt:
            break
        path.append(draw(st.sampled_from(nxt)))
    return tuple(a.name for a in path)


@st.composite
def read_inputs(draw):
    """Presentations on up to 7 vertices: mostly trees (lines among them)
    with zero and commutativity relations, beside loops, cycles, parallel
    arrows, disconnected and empty quivers, and invalid inputs: undeclared
    ends, repeated names, and relations that are empty, cancel, or hold
    unknown, short, zero-coefficient, non-composable or non-parallel
    terms."""
    n = draw(st.integers(0, 7))
    vertices = list(draw(st.permutations(NAMES))[:n])
    ends = []
    if n and draw(st.integers(0, 3)):  # a tree; a line if each step extends
        line_shaped = draw(st.booleans())
        for i in range(1, n):
            j = i - 1 if line_shaped else draw(st.integers(0, i - 1))
            pair = (vertices[j], vertices[i])
            ends.append(pair if draw(st.booleans()) else pair[::-1])
    if n and (not ends or draw(st.integers(0, 3)) == 0):
        pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
        ends += draw(st.lists(pairs, min_size=1, max_size=2 if ends else n))
    if ends and draw(st.integers(0, 9)) == 0:  # an undeclared end
        k = draw(st.integers(0, len(ends) - 1))
        ends[k] = (ends[k][0], "zz") if draw(st.booleans()) else \
            ("zz", ends[k][1])
    names = [f"a{i}" for i in range(len(ends))]
    if len(names) > 1 and draw(st.integers(0, 9)) == 0:
        names[-1] = names[0]
    if n and draw(st.integers(0, 9)) == 0:
        vertices.append(vertices[0])
    arrows = tuple(Arrow(name, s, t) for name, (s, t) in zip(names, ends))
    relations = []
    coeffs = st.sampled_from((Fraction(1),) * 6 +
                             (Fraction(-1), Fraction(2), Fraction(1, 2),
                              Fraction(0)))
    composable = any(a.target == b.source for a in arrows for b in arrows)
    for _ in range(draw(st.integers(0, 3 if composable else 1))):
        terms = [(draw(coeffs), _term_path(draw, arrows))
                 for _ in range(draw(st.sampled_from((1, 1, 1, 2, 2, 0, 3))))]
        if terms and draw(st.integers(0, 4)) == 0:  # a term that cancels
            terms.append((-terms[0][0], terms[0][1]))
        relations.append(Relation(tuple(terms)))
    return tuple(vertices), arrows, tuple(relations)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(read_inputs())
def test_one_walk_and_one_pass_read_as_the_parent_did(data):
    vertices, arrows, relations = data
    # each reader on a fresh presentation, then all of them on one, in
    # reverse order, so that no reader leans on another's cache
    shared = Presentation(Quiver(vertices, arrows), relations)
    shared_parent = Presentation(_ParentQuiver(vertices, arrows), relations)
    for name, (reader, parent) in reversed(_READERS.items()):
        for pres, parent_pres in (
                (Presentation(Quiver(vertices, arrows), relations),
                 Presentation(_ParentQuiver(vertices, arrows), relations)),
                (shared, shared_parent)):
            got = _outcome(reader, pres)
            expected = _outcome(parent, parent_pres)
            if expected[:2] == ("raises", StopIteration):
                # repeated vertex ids that close a line leave the parent's
                # walk no end to start from; now such a quiver has no word
                assert name in ("line_orientation", "structural_profile")
                if name == "line_orientation":
                    assert got == ("returns", None)
                continue
            assert got == expected, name
