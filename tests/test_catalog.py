"""Catalog entries, isomorphism testing, quotient search, witness frames."""

import dataclasses
import gc
import itertools
import random
import time

import pytest

from conftest import embedding_images, line, mono, presentations_equal

from quivertau import catalog
from quivertau.catalog import (
    BadParameterError,
    MalformedFrameError,
    QuotientWitness,
    UnknownFrameError,
    UnknownIdError,
    WitnessFrame,
    _arrow_maps,
    _kill_choices,
    _twin_orders,
    catalog_get,
    catalog_ids,
    frame_ids,
    has_quotient,
    is_iso,
    verify_quotient_witness,
    verify_witness,
    witness_frame,
)
from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    SizeLimitError,
    dimension_table,
    opposite,
    parse_presentation,
    structural_profile,
    twin_classes,
    validate_presentation,
)
from quivertau.sepgraph import GraphType
from quivertau.tensor import rad_square_quotient, tensor_product


class TestCatalogGet:
    def test_n3(self):
        p = catalog_get("N(3)")
        assert presentations_equal(p, rad_square_quotient(line(3)))

    def test_b1(self):
        p = catalog_get("B1")
        assert [(a.name, a.source, a.target) for a in p.quiver.arrows] == \
            [("α", "1", "2"), ("β", "3", "2"), ("γ", "4", "3")]
        assert len(p.relations) == 1

    def test_a3_orientation(self):
        p = catalog_get("A(3,+-)")
        assert p.relations == ()
        targets = {a.target for a in p.quiver.arrows}
        assert targets == {"2"}

    def test_all_fixed_validate(self):
        for cat_id in catalog_ids():
            if "(" in cat_id and "n" in cat_id:
                continue  # family patterns
            pres = catalog_get(cat_id)
            assert validate_presentation(pres) == []

    def test_bad_ids(self):
        with pytest.raises(UnknownIdError):
            catalog_get("Z99")
        with pytest.raises(BadParameterError):
            catalog_get("A(3,+)")
        with pytest.raises(BadParameterError):
            catalog_get("D(3,++)")
        with pytest.raises(BadParameterError):
            catalog_get("N(0)")
        with pytest.raises(BadParameterError) as info:
            catalog_get("A(0,)")
        assert str(info.value) == "catalog id 'A(0,)': A(n,eps) needs n >= 1"

    def test_orientation_length_checked_before_any_edge(self):
        # so a huge n with a short orientation builds nothing
        def unread():
            raise AssertionError("an edge was read")
            yield

        n = 10 ** 30
        with pytest.raises(BadParameterError) as info:
            catalog._oriented_quiver(n, unread(), "+")
        assert str(info.value) == f"orientation '+' needs length {n - 1}"

    def test_n_line_cap(self, monkeypatch):
        cap = catalog.N_VERTEX_CAP
        assert len(catalog_get(f"N({cap})").quiver.vertices) == cap

        def unbuilt(n, eps):
            raise AssertionError("the line was built")

        # refused before the line is built
        monkeypatch.setattr(catalog, "_line_quiver", unbuilt)
        with pytest.raises(SizeLimitError) as info:
            catalog_get("N(10001)")
        assert str(info.value) == \
            f"catalog id 'N(10001)': N(n) has at most {cap} vertices"

    def test_d4(self):
        p = catalog_get("D(4,+++)")
        prof = structural_profile(p)
        assert prof.is_hereditary and prof.simple_count == 4


class TestIsIso:
    def test_search_limit(self):
        n21 = catalog_get("N(21)")
        with pytest.raises(SizeLimitError) as info:
            is_iso(n21, n21)
        assert str(info.value) == "isomorphism search limit exceeded"

    def test_identity(self):
        b1 = catalog_get("B1")
        iso = is_iso(b1, opposite(opposite(b1)))
        assert iso is not None
        assert dict(iso.vertex_map) == {v: v for v in b1.quiver.vertices}

    def test_tensor_swap_nonidentity(self):
        a2 = catalog_get("A(2,+)")
        t = tensor_product(a2, a2)
        swapped = tensor_product(a2, a2)
        iso = is_iso(t, swapped)
        assert iso is not None

    def test_b1_not_iso_opposite(self):
        b1 = catalog_get("B1")
        assert is_iso(b1, opposite(b1)) is None

    def test_relations_matter(self):
        with_rel = catalog_get("LNak4")
        without = line(4)
        assert is_iso(with_rel, without) is None

    def test_equivalence_on_fixed_set(self):
        reps = [catalog_get(i) for i in
                ("B1", "L42", "N(4)", "A(4,++-)", "LNak4")]
        for p in reps:
            assert is_iso(p, p) is not None
        for p, q in itertools.combinations(reps, 2):
            forward = is_iso(p, q) is not None
            backward = is_iso(q, p) is not None
            assert forward == backward
            assert not forward  # all chosen representatives are distinct

    def test_iso_implies_matching_profiles(self):
        p = catalog_get("B1")
        relabeled = parse_presentation(
            "vertex x\nvertex y\nvertex z\nvertex w\n"
            "arrow u : x -> y\narrow v : z -> y\narrow t : w -> z\n"
            "zero t.v\n")
        assert is_iso(p, relabeled) is not None
        prof1 = structural_profile(p)
        prof2 = structural_profile(relabeled)
        assert (prof1.is_schurian, prof1.is_radical_square_zero) == \
            (prof2.is_schurian, prof2.is_radical_square_zero)
        t1 = sorted(len(ps) for _, ps in dimension_table(p).pairs)
        t2 = sorted(len(ps) for _, ps in dimension_table(relabeled).pairs)
        assert t1 == t2


class TestHasQuotient:
    def test_b51_to_b1(self):
        w = has_quotient(catalog_get("B5_1"), catalog_get("B1"))
        assert w is not None
        assert w.killed_vertices == ("5",)
        assert verify_quotient_witness(catalog_get("B5_1"),
                                       catalog_get("B1"), w)

    def test_mutated_witnesses_are_rejected(self):
        b51, b1 = catalog_get("B5_1"), catalog_get("B1")
        w = has_quotient(b51, b1)
        assert w.vertex_map == (("1", "1"), ("2", "2"), ("3", "3"),
                                ("4", "4"))
        assert w.arrow_map == (("α", "α"), ("β", "β"), ("γ", "γ"))
        # a vertex map that misses the target's vertex 4
        not_onto = dataclasses.replace(w, vertex_map=(
            ("1", "1"), ("2", "2"), ("3", "3"), ("4", "1")))
        assert not verify_quotient_witness(b51, b1, not_onto)
        # a bijective arrow map sending α : 1 -> 2 to β : 3 -> 2
        swapped = dataclasses.replace(w, arrow_map=(
            ("α", "β"), ("β", "α"), ("γ", "γ")))
        assert not verify_quotient_witness(b51, b1, swapped)

    def test_blocked_by_surviving_relation(self):
        ka4bg = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow β : 2 -> 3\narrow γ : 3 -> 4\n"
            "zero β.γ\n")
        assert has_quotient(ka4bg, catalog_get("LNak4")) is None

    def test_reflexive(self):
        for cat_id in ("B1", "L42", "LNak4", "N(4)"):
            p = catalog_get(cat_id)
            w = has_quotient(p, p)
            assert w is not None and w.killed_vertices == ()

    def test_dimension_monotone(self):
        pairs = [("B5_1", "B1"), ("B5_2", "B1"), ("LNak4", "A(3,++)"),
                 ("N(4)", "N(3)")]
        for big_id, small_id in pairs:
            big, small = catalog_get(big_id), catalog_get(small_id)
            assert has_quotient(big, small) is not None
            assert dimension_table(small).total <= \
                dimension_table(big).total

    def test_transitive_spot_check(self):
        b52 = catalog_get("B5_2")
        b1 = catalog_get("B1")
        a3 = catalog_get("A(3,+-)")
        assert has_quotient(b52, b1) is not None
        assert has_quotient(b1, a3) is not None
        assert has_quotient(b52, a3) is not None

    def test_extra_relations_reachable(self):
        # the commutative square surjects onto the monomial square
        comm = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow γ : 1 -> 3\n"
            "arrow β : 2 -> 4\narrow δ : 3 -> 4\n"
            "relation 1*α.β - 1*γ.δ\n")
        assert has_quotient(comm, catalog_get("L43square")) is not None
        # but the hereditary square is not a quotient of the monomial one
        hered = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow γ : 1 -> 3\n"
            "arrow β : 2 -> 4\narrow δ : 3 -> 4\n")
        assert has_quotient(catalog_get("L43square"), hered) is None


class TestTreeSource:
    """On a tree source the search kills no arrow, so it makes no kill
    choices, and a connected target that is no tree is rejected before
    any embedding is sought; no search rebuilds a quotient."""

    @staticmethod
    def _count(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, name=name, inner=getattr(catalog, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(catalog, name, counted)
        return calls

    def test_no_quotient_rebuilt_and_no_kill_choices(self, monkeypatch):
        calls = self._count(monkeypatch, "quotient", "_kill_choices")
        sources = [catalog_get(c) for c in ("B5_1", "B5_2", "LNak4", "N(4)")]
        targets = [catalog_get(c) for c in ("A(3,+-)", "B1", "N(3)")]
        found = [(s, t, has_quotient(s, t)) for s in sources
                 for t in targets]
        assert calls == {"quotient": 0, "_kill_choices": 0}
        # off a tree no quotient is rebuilt either, and only a kept set
        # with surplus arrows makes kill choices: any three vertices of the
        # square carry A(3,+-) as they are, its witness for B1 kills α
        square = catalog_get("L43square")
        assert has_quotient(square, catalog_get("A(3,+-)")) \
            .killed_arrows == ()
        assert calls == {"quotient": 0, "_kill_choices": 0}
        assert has_quotient(square, catalog_get("B1")).killed_arrows == ("α",)
        assert calls["quotient"] == 0 and calls["_kill_choices"]
        # a linearly oriented line has no A(3,+-) or B1 quotient
        assert [w is not None for _, _, w in found] == \
            [True] * 6 + [False, False, True] * 2
        for source, target, w in found:
            assert w is None or w.killed_arrows == () and \
                verify_quotient_witness(source, target, w)

    def test_witness_may_need_the_second_twin_order(self):
        # 1 and 3 are twins of the quiver but not of the ideal, so only the
        # map that swaps them carries the zero path b.c onto a.c
        fork = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                "arrow a : 1 -> 2\narrow b : 3 -> 2\narrow c : 2 -> 4\n")
        source = parse_presentation(fork + "zero b.c\n")
        target = parse_presentation(fork + "zero a.c\n")
        w = has_quotient(source, target)
        assert w.vertex_map == (("1", "3"), ("2", "2"), ("3", "1"),
                                ("4", "4"))
        assert w.arrow_map == (("a", "b"), ("b", "a"), ("c", "c"))

    def test_square_target_needs_no_embedding(self, monkeypatch):
        calls = self._count(monkeypatch, "embeddings")
        square = catalog_get("L43square")
        for cat_id in ("B5_1", "B5_3", "LNak4", "N(6)", "A(5,+-+-)"):
            assert has_quotient(catalog_get(cat_id), square) is None
        assert calls == {"embeddings": 0}

    def test_every_tree_maps_onto_the_empty_quiver(self):
        # the empty target is connected and no tree, yet has a witness
        empty = Presentation(Quiver((), ()), ())
        for cat_id in ("A(1,)", "B1"):
            source = catalog_get(cat_id)
            w = has_quotient(source, empty)
            assert w == QuotientWitness(source.quiver.vertices, (), (), ())


def _kronecker(n):
    return Presentation(
        Quiver(("1", "2"), tuple(Arrow(f"k{i:02d}", "1", "2")
                                 for i in range(n))), ())


class TestVerifyQuotientWitness:
    """Forged witnesses: each map agrees with the quivers arrow by arrow
    and no relation is violated, but the arrow map is no bijection from the
    surviving arrows onto the target's."""

    @staticmethod
    def _witness(vertex_map, arrow_map, killed_vertices=(),
                 killed_arrows=()):
        return QuotientWitness(killed_vertices, killed_arrows,
                               tuple(sorted(vertex_map.items())),
                               tuple(sorted(arrow_map.items())))

    def test_genuine_witness_verifies(self):
        b51, b1 = catalog_get("B5_1"), catalog_get("B1")
        assert verify_quotient_witness(b51, b1, has_quotient(b51, b1))

    def test_non_injective_arrow_map(self):
        a2 = parse_presentation("vertex 1\nvertex 2\narrow c : 1 -> 2\n")
        k2 = parse_presentation("vertex 1\nvertex 2\n"
                                "arrow a : 1 -> 2\narrow b : 1 -> 2\n")
        forged = self._witness({"1": "1", "2": "2"}, {"a": "c", "b": "c"})
        assert not verify_quotient_witness(k2, a2, forged)

    def test_key_outside_the_surviving_arrows(self):
        b51, b1 = catalog_get("B5_1"), catalog_get("B1")
        w = has_quotient(b51, b1)
        assert "δ" in w.killed_arrows or "5" in w.killed_vertices
        forged = self._witness(dict(w.vertex_map),
                               {**dict(w.arrow_map), "δ": "α"},
                               w.killed_vertices, w.killed_arrows)
        assert not verify_quotient_witness(b51, b1, forged)

    def test_arrow_map_not_onto_the_target_arrows(self):
        a2 = parse_presentation("vertex 1\nvertex 2\narrow c : 1 -> 2\n")
        k2 = parse_presentation("vertex 1\nvertex 2\n"
                                "arrow a : 1 -> 2\narrow b : 1 -> 2\n")
        forged = self._witness({"1": "1", "2": "2"}, {"c": "a"})
        assert not verify_quotient_witness(a2, k2, forged)


class TestParallelArrows:
    def test_arrow_maps_keep_product_order(self):
        # two parallel pools and a single arrow between them
        q = Quiver(("1", "2", "3"), (
            Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2"),
            Arrow("d", "2", "3"), Arrow("e", "3", "1"), Arrow("f", "3", "1")))
        vmap = {v: v for v in q.vertices}
        pools = [[list(zip(names, perm))
                  for perm in itertools.permutations(names)]
                 for names in (("a", "b", "c"), ("d",), ("e", "f"))]
        expected = [dict(pair for pairs in combo for pair in pairs)
                    for combo in itertools.product(*pools)]
        names_to = {("1", "2"): ["a", "b", "c"], ("2", "3"): ["d"],
                    ("3", "1"): ["e", "f"]}
        assert list(_arrow_maps(q.arrows, names_to, vmap)) == expected

    def test_twelve_parallel_arrows_return_at_once(self):
        k12 = _kronecker(12)
        identity = tuple((a.name, a.name) for a in k12.quiver.arrows)
        start = time.perf_counter()
        w = has_quotient(k12, k12)
        iso = is_iso(k12, k12)
        assert time.perf_counter() - start < 2.0
        assert w is not None and w.arrow_map == identity
        assert iso is not None and iso.arrow_map == identity

    def test_twenty_parallel_arrows_onto_ten_return_at_once(self):
        # C(20, 10) = 184,756 choices of arrows to kill; the first passes
        start = time.perf_counter()
        w = has_quotient(_kronecker(20), _kronecker(10))
        assert time.perf_counter() - start < 2.0
        assert w.killed_arrows == tuple(f"k{i:02d}" for i in range(10))
        assert verify_quotient_witness(_kronecker(20), _kronecker(10), w)


class TestCandidateOrder:
    """The two lazy candidate streams of ``has_quotient`` against sorted
    brute-force lists."""

    def test_kill_choices_are_the_sorted_products(self):
        rng = random.Random(5)
        for _ in range(200):
            rest = list(range(rng.randint(0, 9)))
            rng.shuffle(rest)
            surplus = []
            while rest:
                k = rng.randint(1, len(rest))
                group, rest = sorted(rest[:k]), rest[k:]
                surplus.append((group, rng.randint(1, len(group))))
            expected = sorted(
                tuple(sorted(itertools.chain(*parts)))
                for parts in itertools.product(
                    *(itertools.combinations(g, need) for g, need in surplus)))
            assert list(_kill_choices(surplus)) == expected

    def test_twin_orders_are_the_sorted_permutations(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(1, 7)
            key, rest = list(range(m)), list(range(m))
            rng.shuffle(key)
            rng.shuffle(rest)
            classes = []
            while rest:
                k = rng.randint(1, len(rest))
                classes.append(tuple(sorted(rest[:k])))
                rest = rest[k:]
            class_of = {k: c for c in classes if len(c) > 1 for k in c}
            expected = set()
            for perms in itertools.product(
                    *(itertools.permutations(c) for c in classes)):
                sigma = {}
                for c, perm in zip(classes, perms):
                    sigma.update(zip(c, perm))
                expected.add(tuple(sigma[k] for k in key))
            assert list(_twin_orders(tuple(key), class_of)) == \
                sorted(expected)

    def test_twin_classes(self):
        star = Quiver(("c", "x", "y", "z", "w"), (
            Arrow("a", "c", "x"), Arrow("b", "c", "y"), Arrow("d", "c", "z"),
            Arrow("e", "w", "c")))
        assert twin_classes(star) == ((1, 2, 3),)
        assert twin_classes(_kronecker(2).quiver) == ()
        assert twin_classes(Quiver(tuple("abc"), ())) == ((0, 1, 2),)


class TestHostSets:
    def test_loops_and_parallel_arrows_are_counted(self):
        q = Quiver(("1", "2", "3"), (
            Arrow("l", "1", "1"), Arrow("a", "1", "2"), Arrow("b", "1", "2"),
            Arrow("c", "3", "2")))
        loop = Quiver(("x",), (Arrow("m", "x", "x"),))
        two_loops = Quiver(("x",), (Arrow("m", "x", "x"),
                                    Arrow("n", "x", "x")))
        assert embedding_images(q, loop) == [(0,)]
        assert embedding_images(q, two_loops) == []
        assert embedding_images(q, _kronecker(2).quiver) == [(0, 1)]
        assert embedding_images(q, _kronecker(3).quiver) == []

    def test_isolated_target_vertices_are_not_permuted(self):
        # seven interchangeable vertices: each of the C(12, 7) sets is
        # reached once, not once per ordering (7! = 5,040 each)
        source = catalog_get(f"A(12,{'+' * 11})")
        target = Presentation(Quiver(tuple("abcdefg"), ()), ())
        start = time.perf_counter()
        assert len(embedding_images(source.quiver, target.quiver)) == 792
        w = has_quotient(source, target)
        assert time.perf_counter() - start < 2.0
        assert w.killed_vertices == tuple(str(i) for i in range(1, 6))
        assert verify_quotient_witness(source, target, w)

    def test_many_isolated_target_vertices_return_at_once(self):
        # 10! and 20! orderings of one image set; candidates come lazily,
        # so the first, which passes, is the only one built, and the
        # twenty vertices (the isomorphism limit) are embedded along one
        # path, not 2^20
        source = catalog_get(f"A(16,{'+' * 15})")
        target = Presentation(Quiver(tuple(f"v{i}" for i in range(10)), ()),
                              ())
        twenty = Presentation(Quiver(tuple(f"v{i}" for i in range(20)), ()),
                              ())
        start = time.perf_counter()
        w = has_quotient(source, target)
        iso = is_iso(twenty, twenty)
        assert time.perf_counter() - start < 2.0
        assert w.killed_vertices == tuple(str(i) for i in range(1, 7))
        assert verify_quotient_witness(source, target, w)
        assert iso.vertex_map == tuple((v, v) for v in sorted(
            twenty.quiver.vertices))


class TestFrames:
    def test_all_frames_verify(self):
        for frame_id in frame_ids():
            report = verify_witness(witness_frame(frame_id))
            assert report.quotient_ok, frame_id
            assert report.connected, frame_id
            assert report.ok, frame_id

    def test_count_anomalies_reported_verbatim(self):
        anomalies = {fid for fid in frame_ids()
                     if verify_witness(witness_frame(fid)).count_anomaly}
        assert anomalies == {"a3a3:++,++", "a4n3:++-", "n3-square"}
        for fid in anomalies:
            report = verify_witness(witness_frame(fid))
            assert "count-anomaly (paper figure)" in report.notes

    def test_hereditary_frame_full_verification(self):
        report = verify_witness(witness_frame("a4n3:+-+"))
        assert report.hereditary_ok
        assert report.induced_graph == "D~5"
        assert report.marked_count == 6

    def test_claimed_types(self):
        expected = {
            "a3a3:++,++": "D~4", "a3a3:++,-+": "E~6",
            "a3a3:+-,+-": "D~4", "a3a3:+-,-+": "D~6",
            "a4n3:+-+": "D~5", "a4n3:-++": "E~7", "a4n3:++-": "D~5",
            "n3-L42": "E~6", "n3-square": "A~6",
            "n4-B5_1": "E~8", "n3-B5_2": "E~8", "n3-B5_3": "E~7",
            "n4-LNak4": "E~7",
        }
        for fid, label in expected.items():
            assert witness_frame(fid).claimed_type.label() == label

    def test_unknown_frame(self):
        with pytest.raises(UnknownFrameError):
            witness_frame("nope")

    def test_marked_vertex_outside_the_ambient(self):
        frame = WitnessFrame("bad", ("N(3)", "N(3)"), ("(9,9)",),
                             GraphType("D~", 4), "concealed-quotient")
        with pytest.raises(MalformedFrameError) as info:
            verify_witness(frame)
        assert str(info.value) == \
            "bad: marked vertices missing from the ambient quiver"

    def test_reports_pinned(self):
        # quotient_ok, connected, marked and expected counts, count anomaly,
        # hereditary check, induced graph, ok, notes
        anomaly = ["count-anomaly (paper figure)"]
        expected = {
            "a3a3:++,++": (True, True, 7, 5, True, None, "other", True,
                           anomaly),
            "a3a3:++,-+": (True, True, 7, 7, False, None, "other", True, []),
            "a3a3:+-,+-": (True, True, 5, 5, False, None, "D~4", True, []),
            "a3a3:+-,-+": (True, True, 7, 7, False, None, "D~6", True, []),
            "a4n3:++-": (True, True, 7, 6, True, None, "other", True,
                         anomaly),
            "a4n3:+-+": (True, True, 6, 6, False, True, "D~5", True, []),
            "a4n3:-++": (True, True, 8, 8, False, None, "other", True, []),
            "n3-B5_2": (True, True, 9, 9, False, None, "E~8", True, []),
            "n3-B5_3": (True, True, 8, 8, False, None, "E~7", True, []),
            "n3-L42": (True, True, 7, 7, False, None, "E~6", True, []),
            "n3-square": (True, True, 6, 7, True, None, "A~5", True,
                          anomaly),
            "n4-B5_1": (True, True, 9, 9, False, None, "E~8", True, []),
            "n4-LNak4": (True, True, 8, 8, False, None, "other", True, []),
        }
        keys = ("quotient_ok", "connected", "marked_count",
                "expected_count", "count_anomaly", "hereditary_ok",
                "induced_graph", "ok", "notes")
        assert set(frame_ids()) == set(expected)
        for fid, values in expected.items():
            payload = verify_witness(witness_frame(fid)).to_payload()
            assert payload == {"frame": fid, **dict(zip(keys, values))}, fid


def test_searches_leave_no_cyclic_garbage():
    # a recursive closure keeps itself alive through its own cell, so only
    # the cycle collector frees it and the tables it holds
    from quivertau.sepgraph import adachi_decide
    from quivertau.strings import band_search

    b1, b51 = catalog_get("B1"), catalog_get("B5_1")
    n3, lnak4 = catalog_get("N(3)"), catalog_get("LNak4")
    alternating = catalog_get("A(4,+-+)")
    grid = rad_square_quotient(tensor_product(alternating, alternating))
    linear = catalog_get("A(5,++++)")
    finite_grid = rad_square_quotient(tensor_product(linear, linear))
    kronecker = rad_square_quotient(_kronecker(2))
    gc.collect()
    gc.disable()
    try:
        assert has_quotient(b51, b1) is not None
        assert has_quotient(n3, lnak4) is None
        assert is_iso(b1, b1) is not None
        assert is_iso(_kronecker(3), _kronecker(3)) is not None
        assert is_iso(b1, opposite(b1)) is None
        assert adachi_decide(grid).status == "infinite"
        assert adachi_decide(finite_grid).status == "finite"
        assert str(band_search(kronecker)) == "k00-.k01"
        assert band_search(finite_grid) is None
        assert gc.collect() == 0
    finally:
        gc.enable()
