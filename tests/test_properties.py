"""Property tests on random loop-free quivers with at most 9 vertices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    Relation,
    all_paths,
    parse_presentation,
    path_key,
    serialize_presentation,
)

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
