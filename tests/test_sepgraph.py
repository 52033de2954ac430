"""Recognition, separated quivers, the finiteness criterion, cycle witnesses."""

import itertools
import time
from collections import Counter

import pytest

from conftest import (
    all_choices,
    assignment_bad,
    counted_calls,
    cycle_presentation,
    line,
    naive_minimal_bad_single_subquiver,
    random_quiver,
    seeded,
)

from quivertau import sepgraph, strings
from quivertau.catalog import catalog_get
from quivertau.presentation import (
    Arrow,
    NoOrientedCycleError,
    NotRadicalSquareZeroError,
    Presentation,
    Quiver,
    QuivertauError,
    UnsupportedLoopError,
    embeddings,
)
from quivertau.sepgraph import (
    GraphType,
    SingleSubquiver,
    UGraph,
    adachi_decide,
    classify_graph,
    cycle_witness,
    find_oriented_cycle,
    induced_single_subquiver,
    is_single_subquiver,
    separated_quiver,
    underlying_graph,
)
from quivertau.tensor import rad_square_quotient, tensor_product


def ug(edges, extra_vertices=()):
    vertices = []
    for u, v in edges:
        for x in (u, v):
            if x not in vertices:
                vertices.append(x)
    vertices.extend(extra_vertices)
    return UGraph(tuple(vertices), tuple(edges))


def path_edges(k):
    return [(str(i), str(i + 1)) for i in range(1, k)]


class TestClassifyGraph:
    @pytest.mark.parametrize("edges,expected", [
        (path_edges(5), "A5"),
        ([("a", "d"), ("b", "d"), ("c", "d")], "D4"),
        (path_edges(6) + [("6", "1")], "A~5"),
        ([("a", "b"), ("a", "b")], "A~1"),
        ([("a", "b"), ("a", "b"), ("a", "b")], "other"),
        ([("c", "x"), ("x", "y"), ("c", "u"), ("u", "v"), ("c", "p")],
         "E6"),
        ([("c", "x"), ("x", "y"), ("y", "z"), ("y", "w"), ("c", "u"),
          ("c", "p"), ("w", "q")], "other"),
        ([("c", "p"), ("c", "x"), ("x", "y"), ("c", "1"), ("1", "2"),
          ("2", "3")], "E7"),
        ([("c", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("c", "u"),
          ("u", "v"), ("c", "p")], "E8"),
        ([("c", "1"), ("1", "2"), ("c", "3"), ("3", "4"), ("c", "5"),
          ("5", "6")], "E~6"),
        ([("c", "1"), ("1", "2"), ("2", "3"), ("c", "4"), ("4", "5"),
          ("5", "6"), ("c", "7")], "E~7"),
        ([("c", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
          ("c", "6"), ("6", "7"), ("c", "8")], "E~8"),
        ([("c", "1"), ("c", "2"), ("c", "3"), ("c", "4")], "D~4"),
        ([("b1", "1"), ("b1", "2"), ("b1", "b2"), ("b2", "3"),
          ("b2", "4")], "D~5"),
        ([("b1", "1"), ("b1", "2"), ("b1", "m"), ("m", "b2"), ("b2", "3"),
          ("b2", "4")], "D~6"),
        ([("c", "1"), ("c", "2"), ("c", "3"), ("c", "4"), ("c", "5")],
         "other"),
        ([("a", "a")], "other"),
        # one branch vertex of degree 3 with legs (2, 2, 3)
        ([("c", "1"), ("1", "2"), ("c", "3"), ("3", "4"), ("c", "5"),
          ("5", "6"), ("6", "7")], "other"),
        # three branch vertices of degree 3
        ([("b1", "1"), ("b1", "2"), ("b1", "m"), ("m", "5"), ("m", "b2"),
          ("b2", "3"), ("b2", "4")], "other"),
        # two branch vertices, of degrees 4 and 3
        ([("b1", "1"), ("b1", "2"), ("b1", "3"), ("b1", "b2"), ("b2", "4"),
          ("b2", "5")], "other"),
        (path_edges(4) + [("4", "1"), ("1", "3")], "other"),
    ])
    def test_shapes(self, edges, expected):
        report = classify_graph(ug(edges))
        assert len(report.components) == 1
        assert report.components[0][1].label() == expected

    def test_single_vertex(self):
        g = ug([], extra_vertices=("1",))
        assert classify_graph(g).tags() == ("A1",)

    def test_multi_component(self):
        g = ug(path_edges(3), extra_vertices=("z",))
        assert sorted(classify_graph(g).tags()) == ["A1", "A3"]

    def test_relabel_invariance(self):
        rng = seeded(31)
        base_edges = [("1", "2"), ("2", "3"), ("3", "4"), ("2", "5"),
                      ("5", "6"), ("2", "7")]
        base = sorted(classify_graph(ug(base_edges)).tags())
        names = ["1", "2", "3", "4", "5", "6", "7"]
        for _ in range(30):
            perm = names[:]
            rng.shuffle(perm)
            relabel = dict(zip(names, perm))
            edges = [(relabel[u], relabel[v]) for u, v in base_edges]
            assert sorted(classify_graph(ug(edges)).tags()) == base


    def test_edges_read_a_fixed_number_of_times(self):
        # the separated quiver of a line has n + 1 components, so a pass
        # over the edges per component would read them n + 2 times
        class CountingEdges(tuple):
            reads = 0

            def __iter__(self):
                CountingEdges.reads += 1
                return super().__iter__()

        reads = []
        for n in (50, 100):
            graph = underlying_graph(separated_quiver(
                catalog_get(f"A({n},{'+' * (n - 1)})").quiver))
            counted = UGraph(graph.vertices, CountingEdges(graph.edges))
            CountingEdges.reads = 0
            assert classify_graph(counted) == classify_graph(graph)
            reads.append(CountingEdges.reads)
        assert reads[0] == reads[1]


class TestSeparatedQuiver:
    def test_line(self):
        sep = separated_quiver(line(3).quiver)
        assert len(sep.vertices) == 6
        assert sorted(classify_graph(underlying_graph(sep)).tags()) == \
            ["A1", "A1", "A2", "A2"]

    def test_three_cycle_matching(self):
        sep = separated_quiver(cycle_presentation(3).quiver)
        assert sorted(classify_graph(underlying_graph(sep)).tags()) == \
            ["A2", "A2", "A2"]

    def test_double_arrow(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        sep = separated_quiver(q)
        report = classify_graph(underlying_graph(sep))
        assert "A~1" in report.tags()


def _oracle_witness(quiver):
    """The witness payload ``adachi_decide`` should give, from the brute
    sweep; None when the criterion finds no bad single subquiver."""
    witness = naive_minimal_bad_single_subquiver(quiver)
    if witness is None:
        return None
    return witness.to_payload()


class TestAdachi:
    def test_n5_finite(self):
        pres = catalog_get("N(5)")
        assert naive_minimal_bad_single_subquiver(pres.quiver) is None
        assert adachi_decide(pres).status == "finite"

    def test_kronecker_infinite(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        pres = rad_square_quotient(Presentation(q, ()))
        v = adachi_decide(pres)
        assert v.status == "infinite"
        assert v.certificate.witness["component_types"] == ["A~1"]
        assert v.certificate.witness == _oracle_witness(q)

    def test_dtilde4_witness(self):
        # the 2-line times a three-source star, radical square zero
        star = Presentation(
            Quiver(("1", "2", "3", "s"),
                   (Arrow("a", "1", "s"), Arrow("b", "2", "s"),
                    Arrow("c", "3", "s"))), ())
        pres = rad_square_quotient(tensor_product(line(2), star))
        v = adachi_decide(pres)
        assert v.status == "infinite"
        assert "D~4" in v.certificate.witness["component_types"]

    def test_not_rad_square_zero_rejected(self):
        with pytest.raises(NotRadicalSquareZeroError):
            adachi_decide(line(3))

    def test_loop_rejected(self):
        q = Quiver(("1",), (Arrow("l", "1", "1"),))
        pres = rad_square_quotient(Presentation(q, ()))
        with pytest.raises(UnsupportedLoopError):
            adachi_decide(pres)

    def test_loop_rejected_by_the_witness_search(self):
        q = Quiver(("1",), (Arrow("l", "1", "1"),))
        with pytest.raises(UnsupportedLoopError) as info:
            sepgraph.minimal_bad_single_subquiver(q)
        assert str(info.value) == "loop arrows are outside the criterion"

    def test_empty_quiver_rejected(self):
        with pytest.raises(QuivertauError, match="EmptyQuiver") as info:
            adachi_decide(Presentation(Quiver((), ()), ()))
        assert [v.code for v in info.value.violations] == ["EmptyQuiver"]

    def test_disconnected_decided(self):
        # the criterion holds componentwise
        two = Presentation(Quiver(("1", "2"), ()), ())
        assert adachi_decide(two).status == "finite"
        kronecker = Quiver(("1", "2", "3"),
                           (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        pres = rad_square_quotient(Presentation(kronecker, ()))
        assert adachi_decide(pres).status == "infinite"

    def test_finite_verdict_random_recheck(self):
        # for a finite verdict, random single subquivers stay Dynkin
        rng = seeded(43)
        pres = catalog_get("N(6)")
        q = pres.quiver
        assert adachi_decide(pres).status == "finite"
        for _ in range(1000):
            sides = {v: rng.randint(0, 1) for v in q.vertices
                     if rng.random() < 0.7}
            ssq = induced_single_subquiver(q, sides)
            assert ssq.report().all_dynkin()

    def test_modes_agree_random(self):
        # the search and the brute oracle give the same witness
        rng = seeded(47)
        for _ in range(60):
            pres = random_quiver(rng, max_vertices=6)
            if pres.quiver.has_loop():
                continue
            v = adachi_decide(rad_square_quotient(pres))
            expected = _oracle_witness(pres.quiver)
            assert v.status == ("finite" if expected is None else "infinite")
            assert v.certificate.witness == expected


def _choice_key(sides):
    return frozenset(sides.items())


def _sides(pattern):
    """Side of each pattern vertex, in vertex order: 0 for the vertices
    that arrows leave."""
    return [0 if pattern.out[p] else 1 for p in pattern.vertices]


def _embedded_choices(quiver, pattern):
    """The {host vertex: side} choices of the maps ``embeddings`` yields."""
    sides = _sides(pattern)
    return {frozenset(zip((quiver.vertices[i] for i in image), sides))
            for image in embeddings(quiver, pattern)}


def _pattern_images(quiver, k):
    """Every choice that a Euclidean pattern on k vertices embeds onto."""
    out = set()
    for pattern, _ in sepgraph._patterns_of_size(k):
        out |= _embedded_choices(quiver, pattern)
    return out


class TestConnectedEnumeration:
    def test_bad_sets_match_brute_sweep_at_minimal_size(self):
        rng = seeded(53)
        checked = finite = 0
        while checked < 40 or finite < 40:
            q = random_quiver(rng, max_vertices=8).quiver
            n = len(q.vertices)
            brute = None
            for k in range(2, n + 1):
                brute = {_choice_key(s) for s in all_choices(q, k)
                         if assignment_bad(q, s)}
                if brute:
                    break
            witness = sepgraph.minimal_bad_single_subquiver(q)
            if not brute:
                # finite: no pattern embeds at any size
                assert not any(_pattern_images(q, k)
                               for k in range(2, n + 1))
                assert witness is None
                finite += 1
                continue
            checked += 1
            assert not any(_pattern_images(q, j) for j in range(2, k))
            assert _pattern_images(q, k) == brute
            assert witness.vertices == min(tuple(sorted(c)) for c in brute)

    def test_probe_size_on_the_largest_component(self):
        # an A~3 square beside a longer Dynkin line: the bad size 4 is the
        # node count of the largest separated component
        q = Quiver(tuple("abcdwxyz"),
                   (Arrow("p", "a", "b"), Arrow("q", "c", "b"),
                    Arrow("r", "c", "d"), Arrow("s", "a", "d"),
                    Arrow("t", "w", "x"), Arrow("u", "x", "y"),
                    Arrow("v", "y", "z")))
        witness = sepgraph.minimal_bad_single_subquiver(q)
        assert witness.vertices == (("a", 0), ("b", 1), ("c", 0), ("d", 1))

    def test_large_grid_witness_fast(self):
        a6 = catalog_get("A(6,+-+-+)")
        pres = rad_square_quotient(tensor_product(a6, a6))
        assert len(pres.quiver.vertices) == 36
        start = time.perf_counter()
        v = adachi_decide(pres)
        assert time.perf_counter() - start < 2.0
        assert v.status == "infinite"
        payload = v.certificate.witness
        w = SingleSubquiver(
            tuple((name, side) for name, side in payload["vertices"]),
            tuple((tuple(src), tuple(tgt), name)
                  for src, tgt, name in payload["arrows"]))
        assert len(w.vertices) == 5
        assert is_single_subquiver(pres.quiver, w)
        assert not classify_graph(w.underlying()).all_dynkin()


def _rsz_grid(line_id):
    line = catalog_get(line_id)
    return rad_square_quotient(tensor_product(line, line))


class TestDecidedFromTheShape:
    @pytest.mark.parametrize("n", [5, 10])
    def test_linear_grid_searches_only_size_two(self, n):
        # every separated component of A(n)⊗A(n) with rad² = 0 is Dynkin,
        # so only the Kronecker pattern is mapped and no string is walked,
        # at n as at 2n
        grid = _rsz_grid(f"A({n},{'+' * (n - 1)})")
        with counted_calls(embeddings) as mapped:
            assert adachi_decide(grid).status == "finite"
        with counted_calls(strings._first_band) as walked:
            assert strings.band_search(grid) is None
        assert (mapped[0], walked[0]) == (1, 0)

    @pytest.mark.parametrize("line", ["A(3,+-)", "A(4,+-+)"])
    def test_alternating_grids_reach_the_search(self, line):
        # every size from 2 to the witness's 5 is searched
        with counted_calls(sepgraph._least_image) as sizes:
            v = adachi_decide(_rsz_grid(line))
        assert sizes[0] == 4
        assert v.certificate.witness["vertices"] == [
            ["(1,2)", 0], ["(2,1)", 0], ["(2,2)", 1], ["(2,3)", 0],
            ["(3,2)", 0]]
        assert v.certificate.witness["component_types"] == ["D~4"]

    def test_kronecker_reaches_both_searches(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        pres = rad_square_quotient(Presentation(q, ()))
        with counted_calls(embeddings) as mapped:
            v = adachi_decide(pres)
        with counted_calls(strings._first_band) as walked:
            band = strings.band_search(pres)
        # a generator counts once more each time it resumes after a yield
        assert mapped[0] >= 1 and walked[0] == 1
        assert v.certificate.witness["vertices"] == [["1", 0], ["2", 1]]
        assert str(band) == "a-.b"

    def test_dynkin_component_larger_than_the_bad_one(self):
        # an alternating square (A~3, four nodes) beside a zigzag line whose
        # separated component is A7: the search stops at size 4
        zigzag = [Arrow(f"z{i}", f"w{i + (i % 2)}", f"w{i + 1 - (i % 2)}")
                  for i in range(6)]
        q = Quiver(tuple("abcd") + tuple(f"w{i}" for i in range(7)),
                   (Arrow("p", "a", "b"), Arrow("q", "c", "b"),
                    Arrow("r", "c", "d"), Arrow("s", "a", "d"), *zigzag))
        report = classify_graph(underlying_graph(separated_quiver(q)))
        assert "A7" in report.tags()
        assert sepgraph.minimal_bad_single_subquiver(q) == \
            naive_minimal_bad_single_subquiver(q)
        assert sepgraph.minimal_bad_single_subquiver(
            Quiver(q.vertices, tuple(zigzag))) is None


def _reversed(pattern):
    """The pattern in the other coloring: every arrow turned around."""
    return Quiver(pattern.vertices,
                  tuple(Arrow(a.name, a.target, a.source)
                        for a in pattern.arrows))


# every Euclidean pattern on at most 7 vertices, in both colorings: trees
# come in both from _patterns_of_size, and the patterns with as many
# arrows as vertices (the Kronecker quiver and even cycles) come once, so
# their reversals are added
PATTERNS = [variant for size in range(2, 8)
            for pattern, _ in sepgraph._patterns_of_size(size)
            for variant in ((pattern, _reversed(pattern))
                            if len(pattern.arrows) == size else (pattern,))]


def _brute_embeds(quiver, pattern):
    """Reference: the {host vertex: side} choices of the injections of the
    pattern's vertices under which every arrow count of the pattern is at
    most the quiver's count between the images."""
    have = Counter((a.source, a.target) for a in quiver.arrows)
    need = Counter((a.source, a.target) for a in pattern.arrows)
    sides = _sides(pattern)
    out = set()
    for images in itertools.permutations(quiver.vertices,
                                         len(pattern.vertices)):
        image = dict(zip(pattern.vertices, images))
        if all(have[image[s], image[t]] >= m for (s, t), m in need.items()):
            out.add(frozenset(zip(images, sides)))
    return out


def _star4(center_side):
    """The D~4 pattern with its center on the given side."""
    ends = [("o", str(k)) for k in range(4)]
    return Quiver(("o", "0", "1", "2", "3"),
                  tuple(Arrow(f"e{k}", *(end if center_side == 0
                                         else end[::-1]))
                        for k, end in enumerate(ends)))


class TestPatternEmbedding:
    def test_matches_brute_force_over_injections(self):
        rng = seeded(61)
        hits = misses = 0
        for _ in range(200):
            n = rng.randint(5, 7)
            q = random_quiver(rng, max_vertices=n, max_extra=4 * n).quiver
            for pattern in PATTERNS:
                found = _embedded_choices(q, pattern)
                assert found == _brute_embeds(q, pattern)
                hits += bool(found)
                misses += not found
        assert hits > 100 and misses > 100

    def test_branch_vertex_without_four_arrows_one_way(self):
        # three successors and one predecessor: degree 4 in the quiver,
        # but neither side of the separated quiver branches four ways
        q = Quiver(("c", "1", "2", "3", "4"),
                   (Arrow("a", "c", "1"), Arrow("b", "c", "2"),
                    Arrow("d", "c", "3"), Arrow("e", "4", "c")))
        for side in (0, 1):
            assert not _embedded_choices(q, _star4(side))
            assert not _brute_embeds(q, _star4(side))
        # a fourth successor makes the D~4 star embed, centre colored 0
        q4 = Quiver(q.vertices + ("5",), q.arrows + (Arrow("f", "c", "5"),))
        expected = {frozenset({("c", 0), ("1", 1), ("2", 1), ("3", 1),
                               ("5", 1)})}
        assert _embedded_choices(q4, _star4(0)) == expected
        assert _brute_embeds(q4, _star4(0)) == expected

    def test_each_pattern_is_its_own_witness(self):
        # the patterns cover every bipartite Euclidean graph on 2..9
        # vertices, and each is found on itself at its own size (the brute
        # oracle rechecks up to 8 vertices; 9 would cost a second)
        labels = set()
        for size in range(2, 10):
            for pattern, sides in sepgraph._patterns_of_size(size):
                assert list(sides) == _sides(pattern)
                witness = sepgraph.minimal_bad_single_subquiver(pattern)
                assert len(witness.vertices) == size
                if size <= 8:
                    assert witness == \
                        naive_minimal_bad_single_subquiver(pattern)
                (label,) = witness.report().tags()
                labels.add(label)
        assert labels == {"A~1", "A~3", "A~5", "A~7", "D~4", "D~5", "D~6",
                          "D~7", "D~8", "E~6", "E~7", "E~8"}

    def test_parallel_arrows_count_once(self):
        # four arrows to two targets: the star needs four distinct ones
        q = Quiver(("c", "1", "2", "3"),
                   (Arrow("a", "c", "1"), Arrow("b", "c", "1"),
                    Arrow("d", "c", "2"), Arrow("e", "c", "2"),
                    Arrow("f", "c", "3")))
        assert not _embedded_choices(q, _star4(0))
        assert not _brute_embeds(q, _star4(0))


class TestCycleWitness:
    def test_three_cycle(self):
        pres = cycle_presentation(3)
        w = cycle_witness(pres)
        assert len(w.vertices) == 6
        ambient = tensor_product(rad_square_quotient(pres),
                                 rad_square_quotient(pres)).quiver
        assert is_single_subquiver(ambient, w)
        assert not w.report().all_dynkin()

    def test_four_cycle_even_case(self):
        pres = cycle_presentation(4)
        w = cycle_witness(pres)
        assert len(w.vertices) == 8
        assert not w.report().all_dynkin()

    def test_loop_only_rejected(self):
        q = Quiver(("1",), (Arrow("l", "1", "1"),))
        with pytest.raises(NoOrientedCycleError):
            cycle_witness(Presentation(q, ()))

    def test_cycle_inside_bigger_quiver(self):
        q = Quiver(("1", "2", "3", "4"),
                   (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                    Arrow("c", "3", "1"), Arrow("d", "3", "4")))
        pres = Presentation(q, ())
        assert find_oriented_cycle(q) is not None
        w = cycle_witness(pres)
        assert not w.report().all_dynkin()

    def test_single_condition_all_lengths(self):
        for n in range(2, 7):
            pres = cycle_presentation(n)
            w = cycle_witness(pres)
            ambient = tensor_product(rad_square_quotient(pres),
                                     rad_square_quotient(pres)).quiver
            assert is_single_subquiver(ambient, w)
            originals = [v for v, _ in w.vertices]
            assert len(set(originals)) == len(originals)

    def test_random_cyclic_quivers(self):
        from conftest import random_quiver
        rng = seeded(71)
        checked = 0
        while checked < 25:
            pres = random_quiver(rng, max_vertices=6)
            if find_oriented_cycle(pres.quiver) is None:
                continue
            checked += 1
            w = cycle_witness(pres)
            ambient = tensor_product(rad_square_quotient(pres),
                                     rad_square_quotient(pres)).quiver
            assert is_single_subquiver(ambient, w)
            assert not w.report().all_dynkin()

    def test_long_cycle_no_recursion_limit(self):
        n = 1200
        vertices = tuple(str(i) for i in range(n))
        q = Quiver(vertices, tuple(Arrow(f"a{i}", str(i), str((i + 1) % n))
                                   for i in range(n)))
        assert find_oriented_cycle(q) == list(vertices)

    def test_cycle_found_after_dead_ends(self):
        # 1 -> 2 is a dead end; the cycle 3 -> 4 -> 5 -> 3 is reached from 1
        q = Quiver(("1", "2", "3", "4", "5"),
                   (Arrow("a", "1", "2"), Arrow("b", "1", "3"),
                    Arrow("c", "3", "4"), Arrow("d", "4", "5"),
                    Arrow("e", "5", "3")))
        assert find_oriented_cycle(q) == ["3", "4", "5"]


class TestGraphTypeBasics:
    def test_dynkin_euclidean_partition(self):
        assert GraphType("A", 4).is_dynkin()
        assert GraphType("E~", 7).is_euclidean()
        assert not GraphType("other", 0).is_dynkin()


def test_euclidean_size_refuses_a_dynkin_type():
    with pytest.raises(ValueError) as info:
        sepgraph.euclidean_size(GraphType("A", 3))
    assert str(info.value) == "not Euclidean: GraphType(tag='A', n=3)"


@pytest.mark.parametrize("vertices", [
    (("9", 0),), (("1", 2),), (("1", 0), ("1", 1)),
], ids=["unknown-vertex", "bad-side", "repeated-vertex"])
def test_is_single_subquiver_refuses_bad_vertices(vertices):
    q = line(3).quiver
    assert is_single_subquiver(q, SingleSubquiver((("1", 0),), ()))
    assert not is_single_subquiver(q, SingleSubquiver(vertices, ()))
