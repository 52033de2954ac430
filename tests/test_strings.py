"""Special biserial recognition and band search."""

import pytest
from fractions import Fraction

from conftest import line, mono

from quivertau.catalog import BadParameterError, catalog_get
from quivertau.presentation import (
    Arrow,
    CyclicQuiverError,
    Presentation,
    Quiver,
    Relation,
    parse_presentation,
)
from quivertau.sepgraph import adachi_decide
from quivertau.strings import (
    NotStringAlgebraError,
    StringWord,
    band_search,
    special_biserial_check,
)
from quivertau.tensor import rad_square_quotient, tensor_product


SQUARE = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
          "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
          "arrow c : 1 -> 3\narrow d : 3 -> 4\n")


class TestSpecialBiserial:
    def test_tensor_of_lines_passes(self):
        t = tensor_product(catalog_get("N(3)"), catalog_get("N(4)"))
        assert special_biserial_check(t).ok

    def test_three_source_star_fails(self):
        star = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex s\n"
            "arrow a : 1 -> s\narrow b : 2 -> s\narrow c : 3 -> s\n")
        report = special_biserial_check(star)
        assert not report.ok
        assert any("incoming" in v for v in report.violations)

    def test_b1_passes(self):
        assert special_biserial_check(catalog_get("B1")).ok

    def test_composition_uniqueness_violation(self):
        # hereditary line on 3 vertices composed with a second branch:
        # vertex 2 has one in, two outs, both compositions nonzero
        p = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 2 -> 4\n")
        report = special_biserial_check(p)
        assert not report.ok
        assert any("right compositions" in v for v in report.violations)

    def test_cyclic_quiver_refused(self):
        # every composition is a zero relation, so no ideal would be needed;
        # the refusal stays because admissibility is not checked here
        c3 = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\n"
            "arrow b : 2 -> 3\narrow c : 3 -> 1\n"
            "zero a.b\nzero b.c\nzero c.a\n")
        with pytest.raises(CyclicQuiverError,
                           match="^path enumeration needs an acyclic quiver$"):
            special_biserial_check(c3)


class TestBandSearch:
    def test_n5_no_band(self):
        assert band_search(catalog_get("N(5)")) is None

    def test_kronecker_band(self):
        kron = Presentation(
            Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))),
            ())
        band = band_search(rad_square_quotient(kron))
        assert band is not None
        assert str(band) == "a-.b"

    def test_alternating_cycle_band(self):
        alt = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 3 -> 2\n"
            "arrow c : 3 -> 4\narrow d : 1 -> 4\n")
        band = band_search(alt)
        assert str(band) == "a-.d.c-.b"
        assert adachi_decide(alt).status == "infinite"

    def test_band_matches_adachi_on_bad_grid(self):
        # the 2-line times a 3-source star has a degree-4 separated vertex,
        # but that quiver is not special biserial; use the alternating
        # 6-cycle instead
        hexa = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
            "arrow a : 1 -> 2\narrow b : 3 -> 2\narrow c : 3 -> 4\n"
            "arrow d : 5 -> 4\narrow e : 5 -> 6\narrow f : 1 -> 6\n")
        assert adachi_decide(hexa).status == "infinite"
        band = band_search(hexa, length_bound=8)
        assert str(band) == "a-.f.e-.d.c-.b"

    @pytest.mark.parametrize("n", [5, 6])
    def test_linear_grids_have_no_band(self, n):
        a = catalog_get(f"A({n},{'+' * (n - 1)})")
        grid = rad_square_quotient(tensor_product(a, a))
        assert band_search(grid,
                           length_bound=4 * len(grid.quiver.vertices)) is None
        assert band_search(grid) is None

    @pytest.mark.parametrize("line", ["A(3,+-)", "A(4,+-+)"])
    def test_alternating_grids_are_not_string_algebras(self, line):
        # a middle vertex takes four arrows from the two factors
        a = catalog_get(line)
        grid = rad_square_quotient(tensor_product(a, a))
        with pytest.raises(NotStringAlgebraError, match="more than 2"):
            band_search(grid)

    def test_non_string_rejected(self):
        star = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex s\n"
            "arrow a : 1 -> s\narrow b : 2 -> s\narrow c : 3 -> s\n")
        with pytest.raises(NotStringAlgebraError):
            band_search(star)

    @pytest.mark.parametrize("bound", [0, -5])
    def test_bad_length_bound_rejected(self, bound):
        with pytest.raises(BadParameterError):
            band_search(catalog_get("N(4)"), length_bound=bound)

    def test_length_bound_prunes(self):
        # the square's one band has length 4
        sq = parse_presentation(SQUARE)
        assert band_search(sq, length_bound=3) is None
        assert str(band_search(sq, length_bound=4)) == "a-.c.d.b-"

    def test_relations_combining_to_one_path_are_monomial(self):
        # a relation is monomial when its terms combine to at most one
        # path, so these are zero a.b, and a vacuous relation is none
        zero_ab = band_search(parse_presentation(SQUARE + "zero a.b\n"))
        assert zero_ab is None
        for relation in ("1*a.b + 1*c.d - 1*c.d", "1*a.b + 1*a.b"):
            pres = parse_presentation(SQUARE + f"relation {relation}\n")
            assert band_search(pres) == zero_ab
        vacuous = parse_presentation(SQUARE + "relation 1*c.d - 1*c.d\n")
        assert str(band_search(vacuous)) == "a-.c.d.b-"

    def test_non_monomial_rejected(self):
        comm = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "relation 1*a.b - 1*c.d\n")
        with pytest.raises(NotStringAlgebraError):
            band_search(comm)

    def test_vanishing_zero_relation_is_no_zero_path(self):
        # 0*a.b puts nothing in the ideal, so it must not block the band
        # that the triangle has without relations
        triangle = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 1 -> 3\n")
        vanishing = Presentation(triangle.quiver, (
            Relation(((Fraction(0), ("a", "b")),)),))
        assert str(band_search(triangle)) == "a-.c.b-"
        assert str(band_search(vanishing)) == "a-.c.b-"

    def test_longer_zero_paths_respected(self):
        # zero length-3 path: the straight-through band is blocked
        p = line(3, relations=())
        # build 1 -> 2 -> 3 with extra back structure: no bands at all in
        # a hereditary line
        assert band_search(p) is None

    def test_search_deeper_than_the_stack(self, shallow_stack):
        # band search once recursed once per letter: a 1,100-vertex zigzag
        # line with bound 3,300 raised RecursionError
        n = 300
        zigzag = catalog_get(f"A({n},{'+-' * ((n - 1) // 2)}+)")
        assert band_search(zigzag, length_bound=3 * n) is None

    @pytest.mark.parametrize("first, band", [
        ("12345678", "w-.y.z.x-"),
        ("56781234", "a-.c.d.b-"),
    ])
    def test_first_band_met_not_least(self, first, band):
        # two squares joined by e, with e killed on both sides: each square
        # is a band of length 4, and the walk meets the one whose vertices
        # are declared first, although a-.c.d.b- sorts before w-.y.z.x-
        pres = parse_presentation(
            "".join(f"vertex {v}\n" for v in first)
            + "arrow w : 1 -> 2\narrow x : 2 -> 4\n"
              "arrow y : 1 -> 3\narrow z : 3 -> 4\n"
              "arrow a : 5 -> 6\narrow b : 6 -> 8\n"
              "arrow c : 5 -> 7\narrow d : 7 -> 8\n"
              "arrow e : 4 -> 5\nzero x.e\nzero e.c\n")
        assert str(band_search(pres)) == band

    def test_rotation_inversion_normal_form(self):
        word = StringWord((("a", True), ("b", False)))
        variants = {str(r) for r in word.rotations()}
        variants |= {str(r) for r in word.inverse().rotations()}
        assert min(variants) == "a-.b"
