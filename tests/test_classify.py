"""Decision engine: verdicts, certificates, symmetry and soundness."""

import gc
import itertools
import sys
import weakref

import pytest

from conftest import cycle_presentation, line, mono, seeded

from quivertau import presentation
from quivertau.catalog import (
    catalog_get,
    verify_quotient_witness,
    verify_witness,
    witness_frame,
)
from quivertau.classify import (
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
    Quiver,
    Arrow,
    dimension_table,
    opposite,
    parse_presentation,
    quotient,
)
from quivertau.sepgraph import is_single_subquiver
from quivertau.strings import special_biserial_check
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

    def test_non_schurian(self):
        v = classify_tensor(NON_SCHURIAN_SC, C("N(3)"))
        assert v.status == "infinite"
        assert v.certificate.rule == "non-schurian"

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

    def test_catalog_targets_keep_their_ideals(self, monkeypatch):
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
        pa, pb = C("A(3,+-)"), C("LNak4")
        first = classify_tensor(pa, pb)
        built.clear()
        assert classify_tensor(pa, pb) == first
        targets = [C(f"A(3,{omega})") for omega in ("++", "+-", "-+", "--")]
        assert not [p for p in built if p in targets]
        assert pa.ideal is pa.ideal
