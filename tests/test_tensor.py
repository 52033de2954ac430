"""Tensor constructions: counts, dimensions, symmetry."""

import hashlib
from fractions import Fraction

import pytest

from conftest import (
    elimination_bases,
    elimination_ideal_spaces,
    line,
    mono,
    presentations_equal,
    random_tree_quiver,
    seeded,
    tensor_pair_dims,
)

from quivertau.catalog import catalog_get, is_iso
from quivertau.linalg import SparseSpace
from quivertau.presentation import (
    LIKELY_SIMPLY_CONNECTED,
    Arrow,
    PathIdeal,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    all_paths,
    dimension_table,
    homology_rank,
    opposite,
    parse_presentation,
    structural_profile,
)
from quivertau.tensor import (
    enveloping,
    rad_square_quotient,
    tensor_product,
    tensor_vertex,
    triangular_matrix,
)


def nn(n):
    return catalog_get(f"N({n})")


def _routes(arrows, terms):
    """One relation (coefficient, dotted path) on the given arrows."""
    vertices = sorted({v for _, s, t in arrows for v in (s, t)})
    relation = Relation(tuple((Fraction(c), tuple(p.split(".")))
                              for c, p in terms))
    return Presentation(
        Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows)),
        (relation,))


def three_term():
    """Three parallel routes 1 -> 5 in one relation of three terms."""
    return _routes([("a1", "1", "2"), ("b1", "2", "5"), ("a2", "1", "3"),
                    ("b2", "3", "5"), ("a3", "1", "4"), ("b3", "4", "5")],
                   [(1, "a1.b1"), (-2, "a2.b2"), (Fraction(1, 3), "a3.b3")])


def weighted_square():
    """A square whose two routes agree up to the factor 2/3."""
    return _routes([("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"),
                    ("d", "3", "4")], [(1, "a.b"), (Fraction(-2, 3), "c.d")])


def tensor_all(*factors):
    product = factors[0]
    for f in factors[1:]:
        product = tensor_product(product, f)
    return product


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_triangular_size_must_be_positive(self, n):
        with pytest.raises(QuivertauError) as info:
            triangular_matrix(line(2), n)
        assert str(info.value) == "triangular size must be >= 1"

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

    def test_arrow_name_collision_rejected(self):
        # arrow x at vertex 1 and vertex x with arrow 1 are both named x@1
        pa = Presentation(Quiver(("x", "y"), (Arrow("x", "x", "y"),)), ())
        pb = Presentation(Quiver(("1", "2"), (Arrow("1", "1", "2"),)), ())
        with pytest.raises(QuivertauError) as info:
            tensor_product(pa, pb)
        assert str(info.value) == "tensor arrow names collide; rename factors"

    def test_vertex_names(self):
        t = tensor_product(line(2), line(2))
        assert tensor_vertex("1", "1") in t.quiver.vertices
        names = {a.name for a in t.quiver.arrows}
        assert "a1@1" in names and "1@a1" in names


# sha256 of repr(dimension_table(p).pairs) for the grid products that the
# grid-dims benchmark times, under these names; a change to the ideal that
# moves any basis path changes a hash
GRID_TABLES = (
    ("A(6)^2", lambda: tensor_all(line(6), line(6)),
     "3e524d7ed805c4c066714c25a6d640dba45feec3e76bccd0f9c6192f69515c57"),
    ("A(6)*A(7)", lambda: tensor_all(line(6), line(7)),
     "6b843b06ca2200dee61e38dfa663106e6a1e0469ffbf7c40504dd6d17982e787"),
    ("N(3)^3*A(2)", lambda: tensor_all(nn(3), nn(3), nn(3), line(2)),
     "7be2e9180162255c81b94b85be944cf14bac40fe1956ea9c7d0ff1bc8ca901fc"),
    ("N(4)^2*N(3)", lambda: tensor_all(nn(4), nn(4), nn(3)),
     "1d96092db3e809a08669777c704809428d940b87a148ca7990b9ea35a9934dee"),
    ("three-term*A(4)*A(3)", lambda: tensor_all(three_term(), line(4),
                                                line(3)),
     "56f12514c714c33de1a7f652ca2bab1049d443086c969f831995e6854f39cd6f"),
    ("three-term^2*A(3)", lambda: tensor_all(three_term(), three_term(),
                                             line(3)),
     "6b7edb345f8b26469ddcaabe8447c3f5b277fd8e8061917556da368b58c8f8d4"),
    ("weighted-square^2*A(3)", lambda: tensor_all(
        weighted_square(), weighted_square(), line(3)),
     "4ab54af7e35eac64991aa4274147445bac23e70e885d9edb59e9601037996843"),
)


class TestGridTables:
    @pytest.mark.parametrize("label, build, digest", GRID_TABLES,
                             ids=[label for label, _, _ in GRID_TABLES])
    def test_table_bytes_pinned(self, label, build, digest):
        pairs = dimension_table(build()).pairs
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("build", [
        lambda: tensor_all(three_term(), line(3)),
        lambda: tensor_all(weighted_square(), line(3)),
        lambda: tensor_all(nn(3), nn(3)),
    ], ids=["three-term*A(3)", "weighted-square*A(3)", "N(3)^2"])
    def test_table_matches_full_elimination(self, build):
        product = build()
        spaces, _ = elimination_ideal_spaces(product)
        assert dimension_table(product).pairs == \
            elimination_bases(product, spaces)


class TestPaddingWork:
    """The ideal build pads only by roots of the union-find (see PathIdeal);
    the comments give the counts of padding by every path."""

    @staticmethod
    def _calls(monkeypatch, owner, name):
        """The list of calls to owner.name made from now on."""
        calls = []
        method = getattr(owner, name)

        def counting(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_grid_joins_once_per_non_root(self, monkeypatch):
        product = tensor_all(line(6), line(7))
        joins = self._calls(monkeypatch, PathIdeal, "_join")
        ideal = product.ideal
        assert len(joins) == 5790  # 11,212 when padding by every left
        # every pair of the commutative grid is one class, and each join
        # took one path out of the roots
        assert len(joins) == sum(ideal.rank(pair)
                                 for pair in all_paths(product.quiver))

    def test_three_terms_pad_by_nonzero_roots(self, monkeypatch):
        product = tensor_all(three_term(), line(4), line(3))
        adds = self._calls(monkeypatch, SparseSpace, "add")
        product.ideal
        assert len(adds) == 200  # 368 when padding by every path

    def test_table_reads_only_pairs_with_paths(self, monkeypatch):
        # a 3x3 grid has 27 pairs with paths and 9 diagonal ones, of 81
        product = tensor_all(line(3), line(3))
        bases = self._calls(monkeypatch, PathIdeal, "basis")
        table = dimension_table(product)
        assert len(bases) == len(all_paths(product.quiver)) + 9 == 36
        assert table.total == 36


class TestIntegerElimination:
    def test_rows_hold_ints(self, monkeypatch):
        spaces = []
        init = SparseSpace.__init__

        def recording(space):
            init(space)
            spaces.append(space)

        monkeypatch.setattr(SparseSpace, "__init__", recording)
        tensor_all(three_term(), line(3)).ideal  # its relation has a 1/3
        square = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a : 1 -> 2\n"
            "arrow b : 2 -> 4\narrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "relation 1*a.b - 1*c.d\n")
        assert homology_rank(square) == (0, LIKELY_SIMPLY_CONNECTED)
        values = [c for space in spaces for row in space.rows.values()
                  for c in row.values()]
        # one space per pair ((1, x), (5, y)) with x <= y, and the cells
        assert len(spaces) == 7 and values
        assert all(type(c) is int for c in values)
