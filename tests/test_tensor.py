"""Tensor constructions: counts, dimensions, symmetry."""

import pytest

from conftest import line, mono, random_tree_quiver, seeded

from quivertau.catalog import catalog_get, is_iso
from quivertau.presentation import (
    QuivertauError,
    dimension_table,
    opposite,
    parse_presentation,
    presentations_equal,
    structural_profile,
)
from quivertau.tensor import (
    enveloping,
    rad_square_quotient,
    tensor_pair_dims,
    tensor_product,
    tensor_vertex,
    triangular_matrix,
)


def nn(n):
    return catalog_get(f"N({n})")


class TestTensorProduct:
    def test_a2_squared(self):
        p = tensor_product(line(2), line(2))
        assert len(p.quiver.vertices) == 4
        assert len(p.quiver.arrows) == 4
        assert len(p.relations) == 1
        assert dimension_table(p).total == 9

    def test_count_formulas_random(self):
        rng = seeded(23)
        for _ in range(25):
            pa = random_tree_quiver(rng, 6)
            pb = random_tree_quiver(rng, 6)
            t = tensor_product(pa, pb)
            na, nb = len(pa.quiver.vertices), len(pb.quiver.vertices)
            ka, kb = len(pa.quiver.arrows), len(pb.quiver.arrows)
            assert len(t.quiver.vertices) == na * nb
            assert len(t.quiver.arrows) == ka * nb + na * kb
            commutes = sum(
                1 for rel in t.relations if len(rel.terms) == 2
                and {c for c, _ in rel.terms} == {1, -1})
            assert commutes >= ka * kb

    def test_n3_with_two_zero_star(self):
        # 12-vertex product: lifted square-zero columns, lifted star zeros,
        # one commutative square per arrow pair
        t = tensor_product(catalog_get("L42"), nn(3))
        assert len(t.quiver.vertices) == 12
        assert len(t.relations) == 2 * 3 + 4 * 1 + 3 * 2
        assert dimension_table(t).total == \
            dimension_table(catalog_get("L42")).total * 5

    def test_n4_with_zero_cube_line(self):
        t = tensor_product(catalog_get("LNak4"), nn(4))
        assert len(t.quiver.vertices) == 16
        assert dimension_table(t).total == 9 * 7

    def test_dimension_multiplicativity_pairwise(self):
        pa = catalog_get("B1")
        pb = nn(3)
        t = tensor_product(pa, pb)
        table = dimension_table(t).as_dict()
        predicted = tensor_pair_dims(pa, pb)
        for pair, dim in predicted.items():
            got = len(table.get(pair, ()))
            assert got == dim

    def test_swap_isomorphic(self):
        pa, pb = line(2), line(3, "+-")
        assert is_iso(tensor_product(pa, pb),
                      tensor_product(pb, pa)) is not None

    def test_opposite_compatible(self):
        pa, pb = line(2), nn(3)
        t1 = opposite(tensor_product(pa, pb))
        t2 = tensor_product(opposite(pa), opposite(pb))
        assert is_iso(t1, t2) is not None

    def test_schurian_iff_factors(self):
        schurian = catalog_get("B1")
        assert structural_profile(
            tensor_product(schurian, nn(3))).is_schurian
        # a non-Schurian factor: two commuting squares stacked so the long
        # paths stay independent
        non_schurian = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "vertex 5\nvertex 6\nvertex 7\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "arrow e : 4 -> 5\narrow f : 5 -> 7\n"
            "arrow g : 4 -> 6\narrow h : 6 -> 7\n"
            "relation 1*a.b.e.f - 1*c.d.g.h\n"
            "relation 1*a.b.g.h - 1*c.d.e.f\n")
        assert structural_profile(non_schurian).is_schurian is False
        t = tensor_product(non_schurian, line(2))
        assert structural_profile(t).is_schurian is False


class TestDerivedConstructions:
    def test_triangular_definition(self):
        t1 = triangular_matrix(line(2), 2)
        t2 = tensor_product(line(2), line(2))
        assert presentations_equal(t1, t2)

    def test_triangular_identity(self):
        p = catalog_get("B1")
        assert triangular_matrix(p, 1) is p

    def test_triangular_n3(self):
        t = triangular_matrix(nn(3), 3)
        assert len(t.quiver.vertices) == 9
        assert dimension_table(t).total == 5 * 6

    def test_enveloping_a2(self):
        e = enveloping(line(2))
        assert len(e.quiver.vertices) == 4
        assert len(e.relations) == 1

    def test_enveloping_point(self):
        from quivertau.presentation import Presentation, Quiver
        point = Presentation(Quiver(("1",), ()), ())
        e = enveloping(point)
        assert len(e.quiver.vertices) == 1

    def test_enveloping_n3_dimension(self):
        e = enveloping(nn(3))
        assert len(e.quiver.vertices) == 9
        assert dimension_table(e).total == 25

    def test_rad_square_quotient_line(self):
        q = rad_square_quotient(line(3))
        assert presentations_equal(q, nn(3))

    def test_rad_square_quotient_idempotent(self):
        q = rad_square_quotient(nn(4))
        assert presentations_equal(q, nn(4))

    def test_rad_square_quotient_cycle(self):
        from conftest import cycle_presentation
        q = rad_square_quotient(cycle_presentation(3))
        assert len(q.relations) == 3
        assert all(rel.is_monomial() and len(rel.terms[0][1]) == 2
                   for rel in q.relations)


class TestNaming:
    def test_vertex_id_collision_rejected(self):
        # (1,2) x 3 and 1 x (2,3) would both be named (1,2,3)
        pa = parse_presentation("vertex 1,2\nvertex 1\n")
        pb = parse_presentation("vertex 3\nvertex 2,3\n")
        with pytest.raises(QuivertauError, match="vertex ids collide"):
            tensor_product(pa, pb)

    def test_vertex_names(self):
        t = tensor_product(line(2), line(2))
        assert tensor_vertex("1", "1") in t.quiver.vertices
        names = {a.name for a in t.quiver.arrows}
        assert "a1@1" in names and "1@a1" in names
