"""Property tests on random loop-free quivers with at most 9 vertices,
the union-find ideal against full Gaussian elimination, and quotient
search against the search that rebuilds every candidate."""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertau.catalog import (
    QuotientWitness,
    _arrow_maps,
    _transported_relation_vectors,
    _vertex_maps,
    catalog_get,
    catalog_ids,
    frame_ids,
    has_quotient,
    verify_quotient_witness,
    witness_frame,
)
from quivertau.linalg import SparseSpace
from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    all_paths,
    dimension_table,
    ideal_membership_spaces,
    opposite,
    parse_presentation,
    path_key,
    path_source,
    path_target,
    quotient,
    serialize_presentation,
)
from quivertau.tensor import tensor_pair_dims, tensor_product

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
    idx = q.index
    assert idx.by_name == {a.name: a for a in q.arrows}
    assert list(idx.out) == list(q.vertices) == list(idx.inc)
    for v in q.vertices:
        assert idx.out[v] == tuple(a for a in q.arrows if a.source == v)
        assert idx.inc[v] == tuple(a for a in q.arrows if a.target == v)
    pairs = [(a.source, a.target) for a in q.arrows]
    assert idx.mult == {p: pairs.count(p) for p in pairs}
    assert q.index is idx


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


def _elimination_ideal_spaces(pres):
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
                    spaces[pair] = SparseSpace(path_key)
                spaces[pair].add(vec)
                padded.setdefault(pair, []).append(vec)
    return spaces, padded


def _elimination_bases(pres, spaces):
    """Reference dimension-table pairs: non-pivot paths per pair."""
    q = pres.quiver
    paths = all_paths(q)
    pairs = []
    for i in q.vertices:
        for j in q.vertices:
            pivots = spaces[(i, j)].pivots() if (i, j) in spaces else set()
            basis = ([()] if i == j else []) + [
                p for p in paths.get((i, j), ()) if p not in pivots]
            if basis:
                pairs.append(((i, j), tuple(basis)))
    return tuple(pairs)


def _assert_bases_match(pres):
    spaces, _ = _elimination_ideal_spaces(pres)
    assert dimension_table(pres).pairs == _elimination_bases(pres, spaces)


COEFFS = st.one_of(
    st.sampled_from([Fraction(c) for c in (1, -1, 2, -2, 3)]
                    + [Fraction(1, 2), Fraction(-2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))


@st.composite
def ideal_presentations(draw):
    """Acyclic multiquiver on 2 to 7 vertices with n to 3n arrows and up to
    8 relations of 1 to 4 terms; terms may repeat a path, so some relations
    cancel.  A pair is picked once per parallel path, so relations crowd
    where they interact."""
    n = draw(st.integers(2, 7))
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
    spaces, padded = _elimination_ideal_spaces(pres)
    assert dimension_table(pres).pairs == _elimination_bases(pres, spaces)
    ideal = ideal_membership_spaces(pres)
    paths = all_paths(pres.quiver)
    for pair in paths:
        assert ideal.rank(pair) == (spaces[pair].rank if pair in spaces
                                    else 0)
    if not paths:
        return
    draw = data.draw
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


# every target classify.py searches for, two with parallel arrows and a
# disconnected one
QUOTIENT_TARGETS = tuple(catalog_get(cat_id) for cat_id in (
    "A(3,++)", "A(3,+-)", "A(3,-+)", "A(3,--)", "N(3)", "B1", "L42",
    "L43square", "B5_1", "B5_2", "B5_3", "LNak4", "A(4,-+-)")) + (
    parse_presentation("vertex 1\nvertex 2\n"
                       "arrow a : 1 -> 2\narrow b : 1 -> 2\n"),
    parse_presentation("vertex 1\nvertex 2\nvertex 3\n"
                       "arrow a : 1 -> 2\narrow b : 1 -> 2\n"
                       "arrow c : 3 -> 2\n"),
    parse_presentation("vertex 1\nvertex 2\nvertex 3\n"
                       "arrow a : 1 -> 2\n"))


@st.composite
def quotient_sources(draw):
    """A tree on 1 to 7 vertices, or a square with up to 3 tree vertices
    hanging off it; sometimes one arrow doubled; up to 2 zero paths, and
    on a square a commutativity, weighted or zero relation."""
    square = draw(st.booleans())
    if square:
        vertices = ["1", "2", "3", "4"]
        arrows = [Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                  Arrow("c", "1", "3"), Arrow("d", "3", "4")]
    else:
        vertices, arrows = ["1"], []
    for _ in range(draw(st.integers(0, 3 if square else 6))):
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
    if square:
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
