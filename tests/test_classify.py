"""Decision engine: verdicts, certificates, symmetry and soundness."""

import gc
import itertools
import sys
import weakref
from fractions import Fraction

import pytest

from conftest import (
    cycle_presentation,
    line,
    mono,
    quiver_from_cells,
    quivers_up_to_iso,
    random_tree_quiver,
    seeded,
)

from quivertau import presentation
from quivertau.catalog import (
    QuotientWitness,
    catalog_get,
    catalog_ids,
    has_quotient,
    is_iso,
    verify_quotient_witness,
    verify_witness,
    witness_frame,
)
from quivertau.classify import (
    _a3_quotient,
    _a3a3_frame,
    classify_enveloping,
    classify_self_tensor,
    classify_single,
    classify_tensor,
    classify_triple,
    line_class,
    opposite_class,
    orientation_class,
)
from quivertau.presentation import (
    CyclicQuiverError,
    NotSimplyConnectedError,
    Presentation,
    QuivertauError,
    Quiver,
    Arrow,
    Relation,
    SizeLimitError,
    all_paths,
    dimension_table,
    opposite,
    parse_presentation,
    quotient,
)
from quivertau.sepgraph import adachi_decide, is_single_subquiver
from quivertau.strings import band_search, special_biserial_check
from quivertau.tensor import rad_square_quotient, tensor_product

C = catalog_get

NON_SCHURIAN_SC = parse_presentation(
    "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "vertex 5\nvertex 6\nvertex 7\n"
    "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
    "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
    "arrow e : 4 -> 5\narrow f : 5 -> 7\n"
    "arrow g : 4 -> 6\narrow h : 6 -> 7\n"
    "relation 1*a.b.e.f - 1*c.d.g.h\n"
    "relation 1*a.b.g.h - 1*c.d.e.f\n")

SQUARE = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
          "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
          "arrow c : 1 -> 3\narrow d : 3 -> 4\n")
CYCLE3 = ("vertex 1\nvertex 2\nvertex 3\n"
          "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 1\n")


class TestOrientationHelpers:
    def test_classes(self):
        assert orientation_class("++") == "++"
        assert orientation_class("--") == "++"
        assert orientation_class("+-") == "+-"
        assert orientation_class("-+") == "-+"
        assert orientation_class("-+-") == "+-+"
        assert opposite_class("+-") == "-+"
        assert opposite_class("++") == "++"

    def test_line_class(self):
        assert line_class(C("A(4,-+-)").quiver) == "+-+"
        assert line_class(C("B1").quiver) == "++-"
        assert line_class(C("D(4,+++)").quiver) is None
        assert line_class(C("N(1)").quiver) == ""

    @pytest.mark.parametrize(
        "ca, cb", itertools.product(("++", "+-", "-+"), repeat=2))
    def test_every_three_line_pair_reaches_a_frame(self, ca, cb):
        frame_id, bridge = _a3a3_frame(ca, cb)
        x, y = (cb, ca) if "swap" in bridge else (ca, cb)
        if "op" in bridge:
            x, y = opposite_class(x), opposite_class(y)
        factors = witness_frame(frame_id).factors
        assert (x, y) == tuple(line_class(C(f).quiver) for f in factors)


class TestSingle:
    def test_dynkin_lines(self):
        for eps in ("+++", "+-+", "--+"):
            assert classify_single(C(f"A(4,{eps})")).status == "finite"

    def test_euclidean_tree_rejected_or_infinite(self):
        # the star D~4 is a tree, simply connected, hereditary non-Dynkin
        star = parse_presentation(
            "vertex c\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> c\narrow b : 2 -> c\n"
            "arrow d : 3 -> c\narrow e : 4 -> c\n")
        v = classify_single(star)
        assert v.status == "infinite"
        assert v.certificate.rule == "hereditary-non-dynkin"

    def test_cycle_shape_not_simply_connected(self):
        pentagon = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 4\n"
            "arrow d : 4 -> 5\narrow e : 1 -> 5\n")
        with pytest.raises(NotSimplyConnectedError):
            classify_single(pentagon)

    def test_nakayama_any_relations(self):
        p = line(5, relations=mono("a1.a2.a3", "a3.a4"))
        assert classify_single(p).status == "finite"

    def test_rad_square_zero_star_infinite(self):
        # tree with a 4-in vertex and all compositions zero: simply
        # connected, radical square zero, and the separated quiver has a
        # degree-4 node
        star = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex s\nvertex t\n"
            "arrow a : 1 -> s\narrow b : 2 -> s\narrow c : 3 -> s\n"
            "arrow d : 4 -> s\narrow e : s -> t\n"
            "zero a.e\nzero b.e\nzero c.e\nzero d.e\n")
        v = classify_single(star)
        assert v.status == "infinite"
        assert v.certificate.rule == "rad-square-zero-separated"
        assert "D~4" in v.certificate.witness["component_types"]

    def test_open_case(self):
        comm = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow γ : 1 -> 3\n"
            "arrow β : 2 -> 4\narrow δ : 3 -> 4\n"
            "relation 1*α.β - 1*γ.δ\n")
        assert classify_single(comm).status == "open"

    def test_non_schurian(self):
        # the grid-dims workload's three-term shape: three parallel
        # length-2 paths and one 3-term relation leave e_1 A e_5 of
        # dimension 2
        three_term = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
            "arrow a1 : 1 -> 2\narrow b1 : 2 -> 5\n"
            "arrow a2 : 1 -> 3\narrow b2 : 3 -> 5\n"
            "arrow a3 : 1 -> 4\narrow b3 : 4 -> 5\n"
            "relation 1*a1.b1 - 2*a2.b2 + 1/3*a3.b3\n")
        assert dimension_table(three_term).dim("1", "5") == 2
        for pres in (NON_SCHURIAN_SC, three_term):
            v = classify_single(pres)
            assert (v.status, v.certificate.rule) == \
                ("infinite", "non-schurian")
            assert v.certificate.trace == (
                "hereditary: no", "rad-square-zero: no", "nakayama-line: no",
                "non-schurian")


class TestCombinedRelations:
    """A relation means its combined terms (``Relation.combined``) to the
    gate and to every rule, as it does to the ideal."""

    def test_cancelling_square_is_not_simply_connected(self):
        cancelling = parse_presentation(
            SQUARE + "relation 1*a.b + 1*c.d - 1*c.d\n")
        zero_ab = parse_presentation(SQUARE + "zero a.b\n")
        assert dimension_table(cancelling) == dimension_table(zero_ab)
        assert dimension_table(cancelling).total == 9
        for pres in (cancelling, zero_ab):
            with pytest.raises(NotSimplyConnectedError,
                               match="homology proxy rank 1 > 0$"):
                classify_single(pres)
            with pytest.raises(NotSimplyConnectedError):
                classify_tensor(pres, C("N(3)"))

    def test_summed_cycle_is_rad_square_zero(self):
        summed = parse_presentation(
            CYCLE3 + "relation 1*a.b + 1*a.b\nzero b.c\nzero c.a\n")
        zeros = parse_presentation(CYCLE3 + "zero a.b\nzero b.c\nzero c.a\n")
        assert adachi_decide(summed) == adachi_decide(zeros)
        assert adachi_decide(summed).status == "finite"

    def test_vacuous_relation_keeps_a_factor_hereditary(self):
        a4 = C("A(4,+++)")
        vacuous = Presentation(a4.quiver, (Relation((
            (Fraction(1), ("a1", "a2")), (Fraction(-1), ("a1", "a2")))),))
        for pres in (a4, vacuous):
            v = classify_tensor(C("A(2,+)"), pres)
            assert (v.status, v.certificate.rule) == \
                ("finite", "hereditary-pair")


class TestTensorRules:
    def test_local_factor(self):
        v = classify_tensor(C("N(1)"), C("A(4,+++)"))
        assert v.status == "finite"
        assert v.certificate.rule == "local-factor"

    def test_multiple_arrows(self):
        # parallel arrows with a cell-closing relation, so the homology
        # proxy does not reject the input first
        doubled = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\n"
            "arrow a : 1 -> 2\narrow b : 1 -> 2\narrow c : 2 -> 3\n"
            "relation 1*a.c - 1*b.c\n")
        v = classify_tensor(doubled, C("N(3)"))
        assert v.status == "infinite"
        assert v.certificate.rule == "multiple-arrows"

    def test_one_parallel_arrow_scan_per_factor(self, monkeypatch):
        # rule R2 is the only reader of parallel arrows
        scans = []
        scan = Quiver.first_parallel_pair

        def counted(quiver):
            scans.append(quiver)
            return scan(quiver)

        monkeypatch.setattr(Quiver, "first_parallel_pair", counted)
        pa, pb = C("B1"), C("N(3)")
        assert classify_tensor(pa, pb).status == "finite"
        assert scans == [pa.quiver, pb.quiver]

    def test_non_schurian(self):
        v = classify_tensor(NON_SCHURIAN_SC, C("N(3)"))
        assert v.status == "infinite"
        assert v.certificate.rule == "non-schurian"
        # the first pair, in vertex order, with two basis paths
        assert v.certificate.witness == {"kind": "structural",
                                         "factor": "A", "pair": ["1", "4"]}
        v = classify_tensor(C("N(3)"), opposite(NON_SCHURIAN_SC))
        assert v.certificate.rule == "non-schurian"
        assert v.certificate.witness == {"kind": "structural",
                                         "factor": "B", "pair": ["4", "1"]}

    def test_hereditary_pair_finite_boundary(self):
        assert classify_tensor(C("A(2,+)"), C("A(4,+-+)")).status == "finite"
        assert classify_tensor(C("A(2,+)"), C("A(5,++++)")).status == \
            "infinite"
        assert classify_tensor(C("A(3,++)"), C("A(3,++)")).status == \
            "infinite"
        assert classify_tensor(C("A(2,+)"), C("D(4,+++)")).status == \
            "infinite"

    def test_a3_grid_frames(self):
        cases = {
            ("++", "++"): ("a3a3:++,++", "D~4"),
            ("++", "-+"): ("a3a3:++,-+", "E~6"),
            ("+-", "+-"): ("a3a3:+-,+-", "D~4"),
            ("+-", "-+"): ("a3a3:+-,-+", "D~6"),
        }
        for (ea, eb), (frame_id, label) in cases.items():
            v = classify_tensor(C(f"A(3,{ea})"), C(f"A(3,{eb})"))
            assert v.status == "infinite"
            w = v.certificate.witness
            assert w["frame"] == frame_id
            assert w["claimed_type"] == label

    def test_a3_grid_bridged_orientations(self):
        # orientations outside the four stored cases reach a frame through
        # swaps and opposites
        v = classify_tensor(C("A(3,--)"), C("A(3,+-)"))
        assert v.status == "infinite"
        assert v.certificate.witness is not None
        assert v.certificate.witness["frame"].startswith("a3a3:")

    def test_line3_vs_rad_square_zero(self):
        assert classify_tensor(C("A(3,+-)"), C("N(6)")).status == "finite"
        assert classify_tensor(C("N(3)"), C("A(3,-+)")).status == "finite"

    def test_line3_vs_other_infinite_with_frame(self):
        v = classify_tensor(C("A(3,++)"), C("LNak4"))
        assert v.status == "infinite"
        assert v.certificate.rule == "line3-factor"
        w = v.certificate.witness
        assert w["frame"].startswith("a3a3:")
        assert w["quotients"][0]["target"].startswith("A(3,")

    def test_line4_vs_n3_frame(self):
        v = classify_tensor(C("A(4,+-+)"), C("N(3)"))
        assert v.status == "infinite"
        assert v.certificate.rule == "line4-factor"
        assert v.certificate.witness["frame"] == "a4n3:+-+"

    def test_line4_linear_orientation_no_frame(self):
        v = classify_tensor(C("A(4,+++)"), C("N(3)"))
        assert v.status == "infinite"
        assert v.certificate.witness is None

    @pytest.mark.parametrize("eps_class, frame_id", [
        ("+++", None), ("++-", "a4n3:++-"), ("+-+", "a4n3:+-+"),
        ("-++", "a4n3:-++"),
    ])
    def test_line4_classes_vs_n3(self, eps_class, frame_id):
        # every 4-line of a class gets its class's frame, keyed by the
        # class that line_class returns, in either factor order
        n3 = C("N(3)")
        words = [w for w in map("".join, itertools.product("+-", repeat=3))
                 if orientation_class(w) == eps_class]
        assert len(words) == 2
        for word in words:
            a4 = C(f"A(4,{word})")
            assert line_class(a4.quiver) == eps_class
            for pair in ((a4, n3), (n3, a4)):
                v = classify_tensor(*pair)
                assert (v.status, v.certificate.rule) == \
                    ("infinite", "line4-factor")
                w = v.certificate.witness
                assert (w and w["frame"]) == frame_id
                if w is None:
                    continue
                assert verify_witness(witness_frame(frame_id)).ok
                [q] = w["quotients"]
                assert q["target"] == "N(3)"
                assert verify_quotient_witness(n3, n3, QuotientWitness(
                    tuple(q["killed_vertices"]), tuple(q["killed_arrows"]),
                    tuple(sorted(q["vertex_map"].items())),
                    tuple(sorted(q["arrow_map"].items()))))

    def test_line2_branches(self):
        assert classify_tensor(C("A(2,+)"), C("N(5)")).status == "finite"
        v = classify_tensor(C("A(2,+)"), C("B1"))
        assert v.status == "open"
        assert "line2-separated-necessary: passed" in v.certificate.trace
        # a factor whose separated quiver has a D-shaped component
        bad = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex s\nvertex t\n"
            "arrow a : 1 -> s\narrow b : 2 -> s\narrow c : 3 -> s\n"
            "arrow d : s -> t\nzero a.d\nzero b.d\nzero c.d\n")
        v = classify_tensor(C("A(2,+)"), bad)
        assert v.status == "infinite"
        assert v.certificate.rule == "line2-separated-necessary"

    def test_dynkin_de_factor(self):
        v = classify_tensor(C("D(4,++-)"), C("B1"))
        assert v.status == "infinite"
        assert v.certificate.rule == "dynkin-de-factor"

    def test_both_non_nakayama(self):
        v = classify_tensor(C("B1"), C("L42"))
        assert v.status == "infinite"
        assert v.certificate.rule == "both-non-nakayama"
        assert v.certificate.witness["frame"].startswith("a3a3:")

    def test_rsz_vs_b1_finite_both_ops(self):
        assert classify_tensor(C("N(3)"), C("B1")).status == "finite"
        assert classify_tensor(C("N(5)"), opposite(C("B1"))).status == \
            "finite"

    def test_rsz_vs_l42_uses_frame(self):
        v = classify_tensor(C("N(3)"), C("L42"))
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n3-L42"

    def test_rsz_vs_l42_like_quotient(self):
        # one zero composition only: reaches L42 by imposing the other
        partial = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 3\narrow β : 3 -> 2\narrow γ : 4 -> 3\n"
            "zero α.β\n")
        v = classify_tensor(C("N(3)"), partial)
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n3-L42"

    def test_rsz_vs_opposite_l42(self):
        v = classify_tensor(C("N(3)"), opposite(C("L42")))
        assert v.status == "infinite"
        w = v.certificate.witness
        assert w["frame"] == "n3-L42" and w.get("bridge") == "op"

    def test_rsz_vs_square_uses_frame(self):
        comm = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow γ : 1 -> 3\n"
            "arrow β : 2 -> 4\narrow δ : 3 -> 4\n"
            "relation 1*α.β - 1*γ.δ\n")
        v = classify_tensor(C("N(4)"), comm)
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n3-square"

    def test_rsz3_vs_big_branches(self):
        assert classify_tensor(C("N(3)"), C("B5_1")).status == "open"
        v = classify_tensor(C("N(3)"), C("B5_2"))
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n3-B5_2"
        v = classify_tensor(C("N(3)"), C("B5_4"))
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "a4n3:+-+"

    def test_rsz4_vs_big(self):
        v = classify_tensor(C("N(4)"), C("B5_1"))
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n4-B5_1"

    def test_deep_line_rules(self):
        assert classify_tensor(C("LNak4"), C("LNak4")).status == "infinite"
        assert classify_tensor(C("LNak4"), C("B1")).status == "infinite"
        v = classify_tensor(C("N(4)"), C("LNak4"))
        assert v.status == "infinite"
        assert v.certificate.witness["frame"] == "n4-LNak4"
        assert classify_tensor(C("N(3)"), C("LNak4")).status == "open"

    def test_gates(self):
        with pytest.raises(CyclicQuiverError):
            classify_tensor(cycle_presentation(3), C("N(3)"))
        monomial_square = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow α : 1 -> 2\narrow γ : 1 -> 3\n"
            "arrow β : 2 -> 4\narrow δ : 3 -> 4\n"
            "zero α.β\nzero γ.δ\n")
        with pytest.raises(NotSimplyConnectedError):
            classify_tensor(monomial_square, C("N(3)"))


def _broom(n):
    """The tree a1, ..., a(n-2) along 1 -> ... -> n-1 with b: 3 -> n and
    zero a1.a2: a non-line factor on n vertices."""
    return parse_presentation(
        "".join(f"vertex {v}\n" for v in range(1, n + 1))
        + "".join(f"arrow a{i} : {i} -> {i + 1}\n" for i in range(1, n - 1))
        + f"arrow b : 3 -> {n}\nzero a1.a2\n")


class TestWitnessSearchLimit:
    """A witness search past the quotient search's 16-vertex limit leaves
    the verdict it decorates without a witness; a search that decides a
    verdict still raises."""

    @pytest.mark.parametrize("cat_id, rule", [
        ("A(3,++)", "line3-factor"),
        ("A(4,+-+)", "line4-factor"),
        ("N(4)", "rad-square-zero-line4-vs-big"),
        ("B1", "both-non-nakayama"),
    ])
    def test_decided_without_a_witness(self, cat_id, rule):
        v = classify_tensor(C(cat_id), _broom(16))
        assert (v.status, v.certificate.rule) == ("infinite", rule)
        assert v.certificate.witness is not None
        big = _broom(18)
        for pair in ((C(cat_id), big), (big, C(cat_id))):
            v = classify_tensor(*pair)
            assert (v.status, v.certificate.rule) == ("infinite", rule)
            assert v.certificate.witness is None

    def test_deciding_searches_raise(self):
        deep_line = line(17, relations=mono("a1.a2.a3"))
        for pair in ((C("N(3)"), _broom(18)), (C("N(4)"), deep_line)):
            with pytest.raises(SizeLimitError,
                               match="quotient search limit exceeded"):
                classify_tensor(*pair)


CORPUS = ("N(1)", "N(3)", "N(4)", "A(2,+)", "A(3,+-)", "A(3,++)",
          "A(4,+-+)", "B1", "L42", "B5_2", "LNak4", "D(4,+++)")


class TestSymmetryAndSoundness:
    def test_swap_symmetry(self):
        for a_id, b_id in itertools.combinations_with_replacement(
                CORPUS, 2):
            v1 = classify_tensor(C(a_id), C(b_id))
            v2 = classify_tensor(C(b_id), C(a_id))
            assert v1.status == v2.status, (a_id, b_id)

    def test_opposite_symmetry(self):
        for a_id, b_id in itertools.combinations_with_replacement(
                CORPUS, 2):
            v1 = classify_tensor(C(a_id), C(b_id))
            v2 = classify_tensor(opposite(C(a_id)), opposite(C(b_id)))
            assert v1.status == v2.status, (a_id, b_id)

    def test_quotient_soundness(self):
        # no finite parent with an infinite quotient child
        children = {
            "B5_1": ("B1", "A(3,+-)"),
            "B5_2": ("B1",),
            "LNak4": ("A(3,++)", "N(3)"),
            "N(4)": ("N(3)",),
            "B1": ("A(3,+-)",),
        }
        for a_id in ("N(3)", "N(4)", "A(2,+)", "A(3,+-)"):
            for b_id, subs in children.items():
                parent = classify_tensor(C(a_id), C(b_id)).status
                if parent != "finite":
                    continue
                for sub_id in subs:
                    child = classify_tensor(C(a_id), C(sub_id)).status
                    assert child != "infinite", (a_id, b_id, sub_id)

    def test_infinite_witnesses_reverify(self):
        pairs = [("A(3,++)", "A(3,-+)"), ("A(3,+-)", "A(3,+-)"),
                 ("N(3)", "L42"), ("N(4)", "LNak4"), ("N(4)", "B5_1"),
                 ("N(3)", "B5_2"), ("B1", "B1"), ("A(4,+-+)", "N(3)"),
                 ("A(3,++)", "LNak4")]
        for a_id, b_id in pairs:
            v = classify_tensor(C(a_id), C(b_id))
            assert v.status == "infinite"
            w = v.certificate.witness
            assert w is not None and w["kind"] == "frame"
            report = verify_witness(witness_frame(w["frame"]))
            assert report.ok
            for q in w.get("quotients", ()):
                target = C(q["target"])
                sources = [C(a_id), C(b_id), opposite(C(a_id)),
                           opposite(C(b_id))]
                from quivertau.catalog import QuotientWitness
                qw = QuotientWitness(
                    tuple(q["killed_vertices"]),
                    tuple(q["killed_arrows"]),
                    tuple(sorted(q["vertex_map"].items())),
                    tuple(sorted(q["arrow_map"].items())))
                assert any(verify_quotient_witness(src, target, qw)
                           for src in sources), (a_id, b_id, q["target"])


class TestRandomSimplyConnected:
    def test_engine_total_and_symmetric(self):
        # random monomial tree algebras are simply connected; the engine
        # must answer on every pair, symmetrically, without errors
        from conftest import random_tree_quiver
        from quivertau.presentation import Relation, all_paths
        from fractions import Fraction

        rng = seeded(83)

        def random_tree_algebra():
            pres = random_tree_quiver(rng, max_vertices=6)
            long_paths = [p for ps in all_paths(pres.quiver).values()
                          for p in ps if len(p) >= 2]
            rels = tuple(Relation(((Fraction(1), p),))
                         for p in long_paths if rng.random() < 0.4)
            return Presentation(pres.quiver, rels)

        for _ in range(30):
            pa = random_tree_algebra()
            pb = random_tree_algebra()
            v1 = classify_tensor(pa, pb)
            v2 = classify_tensor(pb, pa)
            v3 = classify_tensor(opposite(pa), opposite(pb))
            assert v1.status in ("finite", "infinite", "open")
            assert v1.status == v2.status == v3.status


class TestEnveloping:
    def test_rad_square_zero_lines_finite(self):
        for n in range(1, 5):
            assert classify_enveloping(C(f"N({n})")).status == "finite"

    def test_infinite_cases(self):
        for cat_id in ("A(3,++)", "A(3,+-)", "B1", "D(4,+++)"):
            assert classify_enveloping(C(cat_id)).status == "infinite"

    def test_agrees_with_the_isomorphism_route(self):
        # the rule once asked whether A is isomorphic to N(n); that search
        # (up to 20 vertices) is the oracle for the profile's answer
        def isomorphic_to_the_line(pres):
            n = len(pres.quiver.vertices)
            iso = is_iso(pres, C(f"N({n})"))
            return "finite" if iso is not None else "infinite"

        samples = [C(i) for i in catalog_ids() if "n" not in i]
        samples += [C(f"N({n})") for n in range(1, 21)]
        samples += [C(f"A({n},{''.join(eps)})") for n in range(1, 6)
                    for eps in itertools.product("+-", repeat=n - 1)]
        samples += [C("D(4,+-+)"), C("D(5,++-+)"), C("D(6,-----)")]
        rng = seeded(21)
        for _ in range(60):
            tree = _with_zero_paths(rng, random_tree_quiver(rng, 12))
            n = rng.randint(1, 12)
            eps = rng.choice(("+" * (n - 1), "-" * (n - 1),
                              "".join(rng.choice("+-") for _ in range(n - 1))))
            samples += [tree, _with_zero_paths(rng, line(n, eps))]
        statuses = []
        for pres in samples:
            try:
                status = classify_enveloping(pres).status
            except NotSimplyConnectedError:
                continue  # the gate, which both routes pass through first
            assert status == isomorphic_to_the_line(pres)
            statuses.append(status)
        assert statuses.count("finite") >= 40
        assert statuses.count("infinite") >= 40


def _with_zero_paths(rng, pres):
    """pres with every length-2 path zero half of the time, else with a
    random set of its paths of length 2 or 3 zero."""
    paths = [p for ps in presentation.all_paths(pres.quiver).values()
             for p in ps if len(p) in (2, 3)]
    if rng.random() < 0.5:
        paths = [p for p in paths if len(p) == 2]
    else:
        paths = [p for p in paths if rng.random() < 0.3]
    return Presentation(pres.quiver, mono(*(".".join(p) for p in paths)))


class TestSelfTensor:
    def test_cycle_infinite_with_witness(self):
        pres = cycle_presentation(3)
        v = classify_self_tensor(pres)
        assert v.status == "infinite"
        w = v.certificate.witness
        assert w["kind"] == "single-subquiver"
        assert any(t.startswith("A~") for t in w["component_types"])
        ambient = tensor_product(rad_square_quotient(pres),
                                 rad_square_quotient(pres)).quiver
        vertices = {tuple(x) for x in w["vertices"]}
        sides = {v_: s for v_, s in vertices}
        from quivertau.sepgraph import induced_single_subquiver
        assert is_single_subquiver(ambient,
                                   induced_single_subquiver(ambient, sides))

    def test_acyclic_delegates(self):
        assert classify_self_tensor(C("N(3)")).status == "finite"
        assert classify_self_tensor(C("B1")).status == "infinite"

    def test_loop_only_open(self):
        loop = Presentation(Quiver(("1",), (Arrow("l", "1", "1"),)), ())
        v = classify_self_tensor(loop)
        assert v.status == "open"
        assert v.certificate.rule == "self-tensor-unresolved"


class TestTriple:
    def test_three_non_local(self):
        a2 = C("A(2,+)")
        v = classify_triple(a2, a2, a2)
        assert v.status == "infinite"
        assert v.certificate.rule == "triple-non-local"

    def test_one_local(self):
        v = classify_triple(C("N(1)"), C("N(3)"), C("N(4)"))
        assert v.status == "finite"

    def test_two_local(self):
        v = classify_triple(C("N(1)"), C("N(1)"), C("A(4,+++)"))
        assert v.status == "finite"

    def test_all_local(self):
        one = C("N(1)")
        assert classify_triple(one, one, one).status == "finite"

    def test_cyclic_factor_rejected(self):
        # k[x] has one vertex, yet it is no local finite-dimensional factor:
        # dropping it gave finite verdicts, k[x,y,z] among them
        kx = Presentation(Quiver(("1",), (Arrow("x", "1", "1"),)), ())
        for factors in [(kx, C("A(2,+)"), C("A(4,+-+)")), (kx, kx, kx),
                        (C("N(1)"), C("N(1)"), cycle_presentation(3))]:
            with pytest.raises(CyclicQuiverError, match="acyclic"):
                classify_triple(*factors)


class TestEmptyQuiver:
    """An empty quiver is an input error at every classify entry point,
    never a verdict nor a simple-connectedness complaint."""

    EMPTY = Presentation(Quiver((), ()), ())

    @pytest.mark.parametrize("classify", [
        classify_single,
        classify_enveloping,
        classify_self_tensor,
        lambda e: classify_tensor(e, C("N(3)")),
        lambda e: classify_tensor(C("N(3)"), e),
        lambda e: classify_triple(e, C("N(3)"), C("N(3)")),
        lambda e: classify_triple(C("N(1)"), C("N(1)"), e),
    ])
    def test_rejected(self, classify):
        with pytest.raises(QuivertauError, match="EmptyQuiver") as info:
            classify(self.EMPTY)
        assert not isinstance(info.value, NotSimplyConnectedError)


class TestIdealOwnership:
    def test_decided_presentation_is_not_kept(self):
        pres = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 4 -> 3\n"
            "zero a.b\n")
        ref = weakref.ref(pres)
        dimension_table(pres)
        classify_tensor(pres, C("N(3)"))
        special_biserial_check(pres)
        del pres
        gc.collect()
        assert ref() is None

    @staticmethod
    def _ideal_builds(monkeypatch):
        """The list of presentations whose ideal is built from now on."""
        built = []
        build = presentation.ideal_membership_spaces

        def counting(pres):
            built.append(pres)
            return build(pres)

        # every module binding, as by-name imports hold their own
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "quivertau" and \
                    getattr(module, "ideal_membership_spaces", None) is build:
                monkeypatch.setattr(module, "ideal_membership_spaces",
                                    counting)
        return built

    def test_catalog_targets_keep_their_ideals(self, monkeypatch):
        built = self._ideal_builds(monkeypatch)
        pa, pb = C("A(3,+-)"), C("LNak4")
        first = classify_tensor(pa, pb)
        built.clear()
        assert classify_tensor(pa, pb) == first
        targets = [C(f"A(3,{omega})") for omega in ("++", "+-", "-+", "--")]
        assert not [p for p in built if p in targets]
        assert pa.ideal is pa.ideal

    def test_rad_square_quotient_needs_no_ideal(self, monkeypatch):
        # every composition of the grid is a zero relation
        line5 = C("A(5,++++)")
        grid = rad_square_quotient(tensor_product(line5, line5))
        built = self._ideal_builds(monkeypatch)
        assert adachi_decide(grid).status == "finite"
        assert band_search(grid) is None
        assert built == []


def _four_vertex_factors():
    """Every presentation on a 4-vertex acyclic connected quiver without
    parallel arrows, one quiver per class up to relabeling, with up to 3
    relations: zero paths of length 2 to 4, and binomials of two parallel
    such paths with coefficients (1, -1) or (2, -3)."""
    cells = [(i, j) for i in range(4) for j in range(4) if i != j]
    for counts in quivers_up_to_iso(4, max_arrows=6):
        q = quiver_from_cells(4, cells, counts)
        if max(counts) > 1 or not q.is_acyclic() or not q.is_connected():
            continue
        parallel = [[p for p in ps if len(p) >= 2]
                    for ps in all_paths(q).values()]
        candidates = [Relation(((Fraction(1), p),))
                      for ps in parallel for p in ps]
        candidates += [Relation(((Fraction(c1), p1), (Fraction(c2), p2)))
                       for ps in parallel
                       for p1, p2 in itertools.combinations(ps, 2)
                       for c1, c2 in ((1, -1), (2, -3))]
        for k in range(4):
            for rels in itertools.combinations(candidates, k):
                yield Presentation(q, rels)


def test_b1_rule_reads_the_line_class():
    # reference: the two isomorphism searches that the line read stands for
    b1 = C("B1")
    reached = []
    for pres in _four_vertex_factors():
        try:
            v = classify_tensor(C("N(3)"), pres)
        except QuivertauError:
            continue
        if "rad-square-zero-line-vs-b1: isomorphic" in v.certificate.trace:
            reached.append(True)
        elif "rad-square-zero-line-vs-b1: not isomorphic" in \
                v.certificate.trace:
            reached.append(False)
        else:
            continue
        assert reached[-1] == (is_iso(pres, b1) is not None
                               or is_iso(opposite(pres), b1) is not None)
    assert len(reached) == 37 and 0 < sum(reached) < 37


def test_b1_classes_are_those_the_rule_reads():
    assert {line_class(C("B1").quiver),
            line_class(opposite(C("B1")).quiver)} == {"++-", "-++"}


def test_a3_minus_minus_adds_no_quotient():
    # A(3,--) is A(3,++) relabeled, so _a3_quotient does not search for it
    mm, pp = C("A(3,--)"), C("A(3,++)")
    assert is_iso(mm, pp) is not None
    rng = seeded(11)
    sources = [C(cat_id) for cat_id in CORPUS]
    sources += [_with_zero_paths(rng, random_tree_quiver(rng, 7))
                for _ in range(60)]
    omegas = set()
    for pres in sources:
        assert (has_quotient(pres, mm) is None) == \
            (has_quotient(pres, pp) is None)
        omegas.add(_a3_quotient(pres)[1])
    assert omegas == {None, "++", "+-", "-+"}
