"""Presentation layer: parsing, validation, dimensions, structure."""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    line,
    mono,
    presentations_equal,
    random_tree_quiver,
    seeded,
)

from quivertau import classify, linalg, presentation

from quivertau.classify import classify_single, classify_tensor, line_class
from quivertau.presentation import (
    LIKELY_SIMPLY_CONNECTED,
    NOT_SIMPLY_CONNECTED,
    SIMPLY_CONNECTED,
    Arrow,
    CyclicQuiverError,
    DisconnectedError,
    InvalidExtraRelationError,
    ParseError,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    SizeLimitError,
    UnknownArrowError,
    UnknownVertexError,
    Violation,
    all_paths,
    dimension_table,
    homology_rank,
    ideal_membership_spaces,
    is_rad_square_zero,
    opposite,
    parse_presentation,
    path_is_composable,
    path_is_zero,
    quotient,
    require_valid,
    serialize_presentation,
    structural_profile,
    validate_presentation,
    zero_pair_test,
    zero_relation_paths,
)
from quivertau.sepgraph import adachi_decide
from quivertau.strings import band_search, special_biserial_check
from quivertau.tensor import rad_square_quotient

B1_TEXT = """\
vertex 1
vertex 2
vertex 3
vertex 4
arrow α : 1 -> 2
arrow β : 3 -> 2
arrow γ : 4 -> 3
zero γ.β
"""


@pytest.fixture
def b1():
    return parse_presentation(B1_TEXT)


LINE3 = "vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"


def nn(n):
    return line(n, relations=mono(*(f"a{i}.a{i+1}" for i in range(1, n - 1))))


# int() refuses more than 4,300 digits unless the interpreter's limit is
# lifted (PYTHONINTMAXSTRDIGITS=0) or predates it (before 3.10.7)
_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter converts integers of any length")


class TestParsing:
    def test_smallest_quiver(self):
        p = parse_presentation("vertex 1\nvertex 2\narrow a : 1 -> 2")
        assert len(p.quiver.vertices) == 2
        assert len(p.quiver.arrows) == 1
        assert p.relations == ()

    def test_b1_file(self, b1):
        assert [a.name for a in b1.quiver.arrows] == ["α", "β", "γ"]
        assert b1.relations[0].terms == ((Fraction(1), ("γ", "β")),)

    def test_short_relation_term_rejected(self):
        text = ("vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\n"
                "arrow b : 2 -> 3\narrow c : 1 -> 3\n"
                "relation 1*a.b - 1*c")
        with pytest.raises(ParseError, match="length < 2"):
            parse_presentation(text)

    def test_comments_and_fractions(self):
        p = parse_presentation(
            "vertex 1 # first\nvertex 2\nvertex 3\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 1 -> 2\n"
            "relation 2/3*a.b - 1*c.b\n")
        assert p.relations[0].terms[0][0] == Fraction(2, 3)

    @pytest.mark.parametrize("term, message", [
        ("1/0*a.b", "zero denominator"),
        ("0/0*a.b", "zero denominator"),
        *(pytest.param(term, "too many digits", marks=_DIGIT_LIMIT)
          for term in ("9" * 5000 + "*a.b", "1/" + "9" * 5000 + "*a.b")),
    ])
    def test_bad_coefficient_rejected(self, term, message):
        text = ("vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\n"
                f"arrow b : 2 -> 3\nrelation {term}\n")
        with pytest.raises(ParseError,
                           match=f"line 6: {message} in relation term"):
            parse_presentation(text)

    def test_unknown_arrow_in_path(self):
        with pytest.raises(ParseError, match="unknown arrow"):
            parse_presentation("vertex 1\nvertex 2\narrow a : 1 -> 2\n"
                               "zero a.zz")

    def test_non_composable_path(self):
        with pytest.raises(ParseError, match="not composable"):
            parse_presentation("vertex 1\nvertex 2\narrow a : 1 -> 2\n"
                               "zero a.a")

    @pytest.mark.parametrize("text, message", [
        ("vertex a*b\n", "line 1: bad vertex name 'a*b'"),
        ("vertex 1\nvertex 2\narrow a.b : 1 -> 2\n",
         "line 3: bad arrow name 'a.b' (no dots allowed)"),
        (LINE3 + "relation a.b\n", "line 6: bad relation term 'a.b'"),
        (LINE3 + "relation 0*a.b\n",
         "line 6: zero coefficient in relation term"),
        ("vertex 1\narrow a 1 2\n", "line 2: malformed arrow line"),
        ("vertex 1\narrow a : 1 -> 9\n", "line 2: unknown vertex '9'"),
        (LINE3 + "zero a\n", "line 6: relation term of length < 2"),
        (LINE3 + "relation 1*a.b 1*a.b\n",
         "line 6: expected + or - before '1*a.b'"),
        (LINE3 + "relation 1*a.b -\n", "line 6: relation with no terms"),
        ("vertex 1\nedge 1\n", "line 2: unrecognized line 'edge 1'"),
        ("vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a : 1 -> 2\n"
         "arrow b : 2 -> 3\narrow c : 2 -> 4\nrelation 1*a.b + 1*a.c\n",
         "relation terms not parallel: [('a', 'b'), ('a', 'c')]"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert str(info.value) == message

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_presentation("vertex 1\nvertex 1")
        with pytest.raises(ParseError, match="duplicate"):
            parse_presentation("vertex 1\nvertex 2\n"
                               "arrow a : 1 -> 2\narrow a : 1 -> 2")


class TestSerialization:
    def test_a2_form(self):
        p = parse_presentation("vertex 1\nvertex 2\narrow a : 1 -> 2")
        assert serialize_presentation(p) == \
            "vertex 1\nvertex 2\narrow a : 1 -> 2\n"

    def test_round_trip_b1(self, b1):
        text = serialize_presentation(b1)
        again = parse_presentation(text)
        assert serialize_presentation(again) == text
        assert presentations_equal(again, b1)

    def test_signs_preserved(self):
        text = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
                "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
                "relation 1*a.b - 1*c.d\n")
        p = parse_presentation(text)
        assert "relation 1*a.b - 1*c.d" in serialize_presentation(p)

    def test_parse_serialize_identity_on_canonical(self, b1):
        canon = serialize_presentation(b1)
        assert serialize_presentation(parse_presentation(canon)) == canon

    def test_empty_relation_skipped(self, b1):
        # validation reports it as EmptyRelation and the ideal skips it
        p = Presentation(b1.quiver, b1.relations + (Relation(()),))
        assert [v.code for v in validate_presentation(p)] == \
            ["EmptyRelation"]
        again = parse_presentation(serialize_presentation(p))
        assert again == b1
        assert dimension_table(again) == dimension_table(p)


class TestValidation:
    def test_b1_clean(self, b1):
        assert validate_presentation(b1) == []

    def test_disconnected(self):
        p = Presentation(Quiver(("1", "2"), ()), ())
        codes = [v.code for v in validate_presentation(p)]
        assert codes == ["Disconnected"]

    def test_empty_quiver(self):
        p = Presentation(Quiver((), ()), ())
        codes = [v.code for v in validate_presentation(p)]
        assert codes == ["EmptyQuiver"]

    def test_require_valid_message(self):
        with pytest.raises(DisconnectedError) as info:
            require_valid(Presentation(Quiver(("1", "2"), ()), ()))
        assert str(info.value) == \
            "Disconnected (quiver): underlying graph is not connected"
        assert [v.code for v in info.value.violations] == ["Disconnected"]
        with pytest.raises(QuivertauError) as info:
            require_valid(Presentation(Quiver(("1", "1", "2"), ()), ()))
        assert type(info.value) is QuivertauError
        assert str(info.value) == (
            "DuplicateVertex (quiver): vertex ids repeat; "
            "Disconnected (quiver): underlying graph is not connected")
        assert [v.code for v in info.value.violations] == \
            ["DuplicateVertex", "Disconnected"]

    @pytest.mark.parametrize("arrows, terms, violation", [
        ((Arrow("a", "1", "2"), Arrow("a", "2", "3")), None,
         Violation("DuplicateArrow", "quiver", "arrow names repeat")),
        ((Arrow("a", "1", "2"), Arrow("b", "2", "9")), None,
         Violation("UnknownVertex", "b", "arrow endpoint not declared")),
        (None, (), Violation("EmptyRelation", "relation 0", "no terms")),
        (None, ((0, ("a", "b")),),
         Violation("ZeroCoefficient", "relation 0", "('a', 'b')")),
        (None, ((1, ("a",)),),
         Violation("ShortRelationTerm", "relation 0", "('a',)")),
        (None, ((1, ("a", "z")),),
         Violation("UnknownArrow", "relation 0", "('a', 'z')")),
        (None, ((1, ("b", "a")),),
         Violation("NonComposablePath", "relation 0", "('b', 'a')")),
    ], ids=["DuplicateArrow", "UnknownVertex", "EmptyRelation",
            "ZeroCoefficient", "ShortRelationTerm", "UnknownArrow",
            "NonComposablePath"])
    def test_violation_table(self, arrows, terms, violation):
        # the line 1 -> 2 -> 3 with the given arrows or one relation
        if arrows is None:
            arrows = (Arrow("a", "1", "2"), Arrow("b", "2", "3"))
        relations = () if terms is None else (Relation(tuple(
            (Fraction(c), path) for c, path in terms)),)
        p = Presentation(Quiver(("1", "2", "3"), arrows), relations)
        assert validate_presentation(p) == [violation]
        message = f"{violation.code} ({violation.where}): {violation.detail}"
        for check in (require_valid, classify_single,
                      lambda p: classify_tensor(p, line(2))):
            with pytest.raises(QuivertauError) as info:
                check(p)
            assert type(info.value) is QuivertauError
            assert str(info.value) == message

    def test_non_parallel_relation(self):
        q = Quiver(("1", "2", "3", "4"),
                   (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                    Arrow("c", "2", "4")))
        p = Presentation(q, (Relation(((Fraction(1), ("a", "b")),
                                       (Fraction(1), ("a", "c")))),))
        codes = [v.code for v in validate_presentation(p)]
        assert "NonParallelRelation" in codes


class TestDimensions:
    def test_all_paths_deeper_than_the_stack(self, shallow_stack):
        # a long line once recursed once per arrow (RecursionError at
        # ~1,000 vertices); a 1,200-vertex line itself would need ~2 GB of
        # path tuples, so the stack is made shallow instead
        paths = all_paths(line(200).quiver)
        assert paths[("1", "200")] == (tuple(f"a{i}" for i in range(1, 200)),)
        assert sum(len(ps) for ps in paths.values()) == 200 * 199 // 2

    def test_path_budget(self):
        # ~288M path letters; the budget stops it before any path is built
        with pytest.raises(SizeLimitError):
            all_paths(line(1200).quiver)

    def test_nn_total(self):
        for n in range(1, 7):
            assert dimension_table(nn(n)).total == 2 * n - 1

    def test_b1_total(self, b1):
        table = dimension_table(b1)
        assert table.total == 7
        assert table.dim("4", "2") == 0
        assert table.dim("4", "3") == 1

    def test_hereditary_a3(self):
        p = line(3)
        table = dimension_table(p)
        assert table.dim("1", "3") == 1
        assert table.total == 6

    def test_cyclic_rejected(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
        with pytest.raises(CyclicQuiverError):
            dimension_table(Presentation(q, ()))

    def test_commutativity_basis_choice(self):
        # two parallel paths identified; the lex-smaller one survives
        p = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "relation 1*a.b - 1*c.d\n")
        basis = dimension_table(p).basis("1", "4")
        assert basis == (("a", "b"),)

    def test_monomial_path_oracle(self):
        # independent oracle: enumerate paths, drop those containing a
        # zero-relation path as a contiguous factor
        rng = seeded(7)
        for _ in range(40):
            pres = random_tree_quiver(rng, max_vertices=7)
            paths = all_paths(pres.quiver)
            long_paths = [p for ps in paths.values() for p in ps
                          if len(p) >= 2]
            if not long_paths:
                continue
            zeros = tuple({long_paths[rng.randrange(len(long_paths))]
                           for _ in range(2)})
            pres = Presentation(pres.quiver, tuple(
                Relation(((Fraction(1), z),)) for z in zeros))

            def dead(path):
                return any(
                    path[i:i + len(z)] == z
                    for z in zeros for i in range(len(path) - len(z) + 1))

            expected = len(pres.quiver.vertices) + sum(
                1 for ps in paths.values() for p in ps if not dead(p))
            assert dimension_table(pres).total == expected


SQUARE = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
          "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
          "arrow c : 1 -> 3\narrow d : 3 -> 4\n")
# three parallel routes a.b, c.d, e.f from 1 to 5
ROUTES = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
          "arrow a : 1 -> 2\narrow b : 2 -> 5\n"
          "arrow c : 1 -> 3\narrow d : 3 -> 5\n"
          "arrow e : 1 -> 4\narrow f : 4 -> 5\n")


def _paths(*dotted):
    return tuple(tuple(p.split(".")) for p in dotted)


class TestIdeal:
    def test_weighted_square_routes_disagree(self):
        # padding a.b = 2 c.d by x gives x.a.b = 2 x.c.d; the relation
        # x.a.b = x.c.d reaches the same class with ratio 1, so it dies
        text = SQUARE + "vertex 0\narrow x : 0 -> 1\n" \
            "relation 1*x.a.b - 1*x.c.d\n"
        p = parse_presentation(text + "relation 1*a.b - 2*c.d\n")
        table = dimension_table(p)
        assert table.basis("1", "4") == _paths("a.b")
        assert table.basis("0", "4") == ()
        assert path_is_zero(p, ("x", "c", "d"))
        assert not path_is_zero(p, ("c", "d"))
        agree = parse_presentation(text + "relation 1*a.b - 1*c.d\n")
        assert dimension_table(agree).basis("0", "4") == _paths("x.a.b")

    def test_zero_path_kills_binomial_class(self):
        text = ROUTES + "relation 1*a.b - 1*c.d\nrelation 1*c.d - 1/2*e.f\n"
        alive = parse_presentation(text)
        assert dimension_table(alive).basis("1", "5") == _paths("a.b")
        p = parse_presentation(text + "zero e.f\n")
        assert dimension_table(p).basis("1", "5") == ()
        assert path_is_zero(p, ("a", "b"))
        assert ideal_membership_spaces(p).rank(("1", "5")) == 3

    def test_three_term_normal_form_vanishes(self):
        text = ROUTES + "relation 1*a.b - 1*c.d\nrelation 1*c.d - 1*e.f\n"
        p = parse_presentation(text + "relation 1*a.b + 1*c.d - 2*e.f\n")
        assert dimension_table(p).basis("1", "5") == _paths("a.b")
        assert ideal_membership_spaces(p).rank(("1", "5")) == 2
        dead = parse_presentation(text + "relation 1*a.b + 1*c.d + 1*e.f\n")
        assert dimension_table(dead).basis("1", "5") == ()

    def test_terms_on_one_path_cancel(self):
        q = parse_presentation(SQUARE).quiver
        ab = ("a", "b")
        cancel = Presentation(q, (Relation(((Fraction(1), ab),
                                            (Fraction(-1), ab))),))
        assert dimension_table(cancel).basis("1", "4") == _paths("a.b", "c.d")
        merged = Presentation(q, (Relation(((Fraction(1), ab),
                                            (Fraction(2), ab))),))
        assert dimension_table(merged).basis("1", "4") == _paths("c.d")

    def test_only_longer_relations_reach_sparse_space(self, monkeypatch):
        added = []
        add = linalg.SparseSpace.add

        def counting_add(space, vec):
            added.append(vec)
            return add(space, vec)

        monkeypatch.setattr(linalg.SparseSpace, "add", counting_add)
        ideal_membership_spaces(parse_presentation(
            ROUTES + "relation 1*a.b - 1*c.d\nzero e.f\n"))
        assert added == []
        ideal_membership_spaces(parse_presentation(
            ROUTES + "relation 1*a.b - 1*c.d + 1*e.f\n"))
        assert len(added) == 1

    def test_no_relations_is_the_zero_ideal(self):
        p = parse_presentation(ROUTES)
        ideal = ideal_membership_spaces(p)
        paths = all_paths(p.quiver)
        for pair, ps in paths.items():
            assert ideal.basis(pair) == ps
            assert ideal.rank(pair) == 0
            for path in ps:
                assert not ideal.contains({path: 1})
            assert not ideal.contains(
                {path: Fraction(k + 1) for k, path in enumerate(ps)})
        assert ideal.contains({})

    @pytest.mark.parametrize("text", [
        ROUTES, ROUTES + "relation 1*a.b - 1*c.d\n",
        ROUTES + "relation 1*a.b - 1*c.d + 1*e.f\n"])
    def test_pair_without_paths_has_rank_zero(self, text):
        ideal = ideal_membership_spaces(parse_presentation(text))
        for pair in (("5", "1"), ("2", "3"), ("1", "1")):
            assert ideal.basis(pair) == ()
            assert ideal.rank(pair) == 0

    @pytest.mark.parametrize("text", [
        ROUTES, ROUTES + "relation 1*a.b - 1*c.d\n",
        ROUTES + "relation 1*a.b - 1*c.d + 1*e.f\n"])
    def test_contains_on_paths_outside_the_quiver(self, text):
        ideal = ideal_membership_spaces(parse_presentation(text))
        # the pair comes from the first path, so an unknown arrow at
        # either of its ends raises; anywhere else it is a foreign path
        for path in (("zz",), ("a", "zz"), ("zz", "b")):
            with pytest.raises(UnknownArrowError):
                ideal.contains({path: 1})
        assert not ideal.contains({("a", "b"): 1, ("zz",): 1})
        # a non-composable word is no path, so it never lies in I
        assert not ideal.contains({("a", "d"): 1})
        assert not ideal.contains({("a", "b"): 1, ("c", "d"): -1,
                                   ("a", "d"): 1})

    @pytest.mark.parametrize("relations", [
        "relation 1*a.b - 1*c.d\nzero x.c.d\n",
        "zero x.c.d\nrelation 1*a.b - 1*c.d\n"])
    def test_zero_path_meets_padded_binomial_class(self, relations):
        # padding a.b = c.d by x makes the class {x.a.b, x.c.d} with root
        # x.a.b; the zero path x.c.d meets it after or before that
        p = parse_presentation(SQUARE + "vertex 0\nvertex 5\n"
                               "arrow x : 0 -> 1\narrow y : 4 -> 5\n"
                               + relations)
        table = dimension_table(p)
        assert table.basis("1", "4") == _paths("a.b")
        assert table.basis("1", "5") == _paths("a.b.y")
        assert table.basis("0", "4") == ()
        assert table.basis("0", "5") == ()
        assert path_is_zero(p, ("x", "a", "b"))
        assert path_is_zero(p, ("x", "c", "d", "y"))
        assert not path_is_zero(p, ("c", "d", "y"))
        assert ideal_membership_spaces(p).rank(("0", "4")) == 2

    def test_relation_terms_must_be_parallel_paths(self):
        q = parse_presentation(SQUARE).quiver
        for second in (("a",), ("c", "b")):
            # a term that cancels is checked too
            for cancel in ((), ((Fraction(1), second),)):
                pres = Presentation(q, (Relation(((Fraction(1), ("a", "b")),
                                                  (Fraction(-1), second))
                                                 + cancel),))
                with pytest.raises(QuivertauError,
                                   match="not parallel paths"):
                    ideal_membership_spaces(pres)
        # on a tree no ideal is built, and the readers check the relations
        # themselves: a.b and b.c are not one path, a.c is no path at all
        tree = parse_presentation("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                                  "arrow a : 1 -> 2\narrow b : 2 -> 3\n"
                                  "arrow c : 3 -> 4\n").quiver
        for terms in ((("a", "b"), ("b", "c")), (("a", "c"),),
                      (("a", "b"), ("b", "c"), ("b", "c"))):
            pres = Presentation(tree, (Relation(tuple(
                (Fraction((-1) ** k), path)
                for k, path in enumerate(terms))),))
            for reader in (lambda p: zero_pair_test(p)("a", "b"),
                           is_rad_square_zero, structural_profile,
                           special_biserial_check):
                with pytest.raises(QuivertauError,
                                   match="^relation 0: terms are not "
                                         "parallel paths$"):
                    reader(pres)


class TestCombined:
    AB, CD = ("a", "b"), ("c", "d")

    def test_sums_repeated_paths_in_first_appearance_order(self):
        ab, cd = self.AB, self.CD
        assert Relation(((Fraction(1), cd), (Fraction(2), ab),
                         (Fraction(1, 2), cd))).combined() == \
            ((Fraction(3, 2), cd), (Fraction(2), ab))
        assert Relation(((Fraction(1), cd), (Fraction(2), ab),
                         (Fraction(-1), cd))).combined() == \
            ((Fraction(2), ab),)
        assert Relation(((Fraction(1), ab),
                         (Fraction(-1), ab))).combined() == ()
        assert Relation(()).combined() == ()

    def test_one_term_is_read_as_written(self):
        rel = Relation(((Fraction(-1, 2), self.AB),))
        assert rel.combined() is rel.terms
        assert Relation(((Fraction(0), self.AB),)).combined() == ()

    def test_monomial_means_at_most_one_path(self):
        ab, cd = self.AB, self.CD
        for terms, monomial in (
                (((Fraction(1), ab),), True),
                (((Fraction(1), ab), (Fraction(1), ab)), True),
                (((Fraction(1), ab), (Fraction(-1), ab)), True),
                (((Fraction(1), ab), (Fraction(1), cd),
                  (Fraction(-1), cd)), True),
                (((Fraction(1), ab), (Fraction(-1), cd)), False)):
            assert Relation(terms).is_monomial() is monomial

    def test_raw_terms_kept_where_the_input_as_written_matters(self):
        text = SQUARE + "relation 1*a.b + 1*c.d - 1*c.d\n"
        pres = parse_presentation(text)
        assert len(pres.relations[0].terms) == 3
        assert serialize_presentation(pres).count("c.d") == 2
        assert not validate_presentation(pres)
        assert zero_relation_paths(pres) == {("a", "b")}


class TestOpposite:
    def test_a2(self):
        p = parse_presentation("vertex 1\nvertex 2\narrow a : 1 -> 2")
        assert opposite(p).quiver.arrows[0] == Arrow("a", "2", "1")

    def test_involution(self, b1):
        assert presentations_equal(opposite(opposite(b1)), b1)

    def test_b1_relation_reversed(self, b1):
        op = opposite(b1)
        assert op.relations[0].terms == ((Fraction(1), ("β", "γ")),)
        assert op.quiver.by_name["β"] == Arrow("β", "2", "3")

    def test_transposed_dimensions(self, b1):
        rng = seeded(11)
        samples = [b1, nn(4), line(4, "+-+")]
        samples += [random_tree_quiver(rng, 6) for _ in range(10)]
        for pres in samples:
            t1 = dimension_table(pres)
            t2 = dimension_table(opposite(pres))
            assert t1.total == t2.total
            for (i, j), paths in t1.pairs:
                assert t2.dim(j, i) == len(paths)


class TestProfile:
    def test_nn4(self):
        prof = structural_profile(nn(4))
        assert prof.is_linear_nakayama
        assert prof.is_radical_square_zero
        assert not prof.is_hereditary

    def test_a3_nonlinear(self):
        prof = structural_profile(line(3, "+-"))
        assert prof.is_hereditary
        assert not prof.is_linear_nakayama

    def test_b1_flags(self, b1):
        prof = structural_profile(b1)
        assert prof.is_schurian
        assert prof.simple_count == 4
        # the only length-2 path is the zero relation, so rad^2 vanishes
        assert prof.is_radical_square_zero

    def test_local(self):
        prof = structural_profile(Presentation(Quiver(("1",), ()), ()))
        assert prof.is_local and prof.is_linear_nakayama

    def test_cyclic_partial(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
        prof = structural_profile(Presentation(q, ()))
        assert prof.is_acyclic is False
        assert prof.is_radical_square_zero is None
        assert prof.is_schurian is None

    def test_rad_square_zero_through_the_ideal(self):
        # a.b is zero only because it equals c.d, which is a zero relation
        square = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                  "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
                  "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
                  "relation 1*a.b - 1*c.d\n")
        pres = parse_presentation(square + "zero c.d\n")
        assert zero_pair_test(pres)("a", "b")
        assert is_rad_square_zero(pres)
        assert structural_profile(pres).is_radical_square_zero is True
        commuting = parse_presentation(square)
        assert not zero_pair_test(commuting)("a", "b")
        assert not is_rad_square_zero(commuting)
        assert structural_profile(commuting).is_radical_square_zero is False
        # a zero relation needs a nonzero coefficient, as in the ideal
        vanishing = Presentation(commuting.quiver, (
            Relation(((Fraction(0), ("a", "b")),)),))
        assert not zero_pair_test(vanishing)("a", "b")
        assert not vanishing.ideal.contains({("a", "b"): 1})
        assert zero_relation_paths(vanishing) == frozenset()
        assert zero_relation_paths(pres) == {("c", "d")}

    def test_tree_sums_coefficients_without_the_ideal(self, monkeypatch):
        def unbuilt(pres_or_quiver):
            raise AssertionError("a tree needs no paths and no ideal")

        monkeypatch.setattr(presentation, "all_paths", unbuilt)
        monkeypatch.setattr(presentation, "ideal_membership_spaces", unbuilt)
        a3 = "vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\n" \
             "arrow b : 2 -> 3\n"
        # the parser keeps repeated terms: 2*a.b is zero, 0*a.b is not
        for relation, zero in (("1*a.b + 1*a.b", True),
                               ("1*a.b - 1*a.b", False),
                               ("-1/2*a.b", True)):
            pres = parse_presentation(a3 + f"relation {relation}\n")
            assert len(pres.relations[0].terms) == relation.count("*")
            assert zero_pair_test(pres)("a", "b") is zero
            prof = structural_profile(pres)
            assert (prof.is_radical_square_zero, prof.is_schurian,
                    prof.is_hereditary) == (zero, True, not zero)
            assert special_biserial_check(pres).ok

    @staticmethod
    def _searches(pres, monkeypatch):
        """The quiver's searches while its readers run twice: the one walk
        over its arrows, the component walk it reads for connectivity, and
        the oriented-cycle search behind the cached acyclicity answer."""
        searches = []
        walk = Quiver._walk

        def counted_walk(quiver):
            searches.append("walk")
            return walk(quiver)

        def counted_components(*args, search=presentation.components):
            searches.append("components")
            return search(*args)

        def counted_cycles(quiver, search=presentation.find_oriented_cycle):
            searches.append("cycles")
            return search(quiver)

        monkeypatch.setattr(Quiver, "_walk", counted_walk)
        monkeypatch.setattr(presentation, "components", counted_components)
        monkeypatch.setattr(presentation, "find_oriented_cycle",
                            counted_cycles)
        pres = Presentation(Quiver(pres.quiver.vertices, pres.quiver.arrows),
                            pres.relations)
        for _ in range(2):
            structural_profile(pres)
            dimension_table(pres)
            require_valid(pres)
            homology_rank(pres)
            assert pres.quiver.is_acyclic() and pres.quiver.is_connected()
            assert not pres.quiver.has_loop()
        return sorted(searches)

    def test_acyclic_and_connected_answered_once(self, b1, monkeypatch):
        # a tree is acyclic without a cycle search
        assert self._searches(b1, monkeypatch) == ["components", "walk"]

    def test_cycle_search_answered_once_off_a_tree(self, monkeypatch):
        square = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "relation 1*a.b - 1*c.d\n")
        assert self._searches(square, monkeypatch) == \
            ["components", "cycles", "walk"]

    def test_gate_and_profile_read_a_tree_once(self, monkeypatch):
        # the gate and the profile read the arrows in at most three passes
        # (the lookup by name, the one walk, the composable pairs) and the
        # relations in one, whatever the size of the tree
        reads = Counter()

        class Counted(tuple):
            def __iter__(self):
                reads[self.what] += 1
                return super().__iter__()

        def counted(what, items):
            items = Counted(items)
            items.what = what
            return items

        combine = Relation.combined

        def counted_combine(rel):
            reads["combined"] += 1
            return combine(rel)

        monkeypatch.setattr(Relation, "combined", counted_combine)

        def reads_of(n):
            # a binary tree on n + 1 vertices with two zero relations
            vertices = tuple(f"v{i}" for i in range(n + 1))
            arrows = counted("arrows", (
                Arrow(f"a{i}", f"v{(i - 1) // 2}", f"v{i}")
                for i in range(1, n + 1)))
            relations = counted("relations", (mono("a1.a3") + mono("a2.a5")))
            pres = Presentation(Quiver(vertices, arrows), relations)
            reads.clear()
            classify._gate(pres, "test")
            prof = structural_profile(pres)
            assert (prof.is_radical_square_zero, prof.is_hereditary) == \
                (False, False)
            return dict(reads)

        small = reads_of(6)
        assert reads_of(12) == small
        assert small["arrows"] <= 3 and small["relations"] <= 2
        assert small["combined"] <= 2  # once per relation

    def test_line_walked_once(self, b1, monkeypatch):
        # the profile and classify.line_class read the word of one walk
        walks = []
        walk = Quiver._walk

        def counted_walk(quiver):
            walks.append(quiver)
            return walk(quiver)

        monkeypatch.setattr(Quiver, "_walk", counted_walk)
        q = Quiver(b1.quiver.vertices, b1.quiver.arrows)
        for _ in range(2):
            assert structural_profile(Presentation(q, b1.relations)) \
                .is_linear_nakayama is False
            assert line_class(q) == "++-"
        assert walks == [q]


class TestQuotient:
    def test_kill_vertex_drops_relation(self, b1):
        q = quotient(b1, killed_vertices=("4",))
        assert q.relations == ()
        assert len(q.quiver.vertices) == 3

    def test_extra_relation_linear_line(self):
        p = line(4)
        q = quotient(p, extra_relations=mono("a1.a2.a3"))
        assert len(q.relations) == 1
        assert dimension_table(q).total == dimension_table(p).total - 1

    def test_unknown_vertex(self, b1):
        with pytest.raises(UnknownVertexError):
            quotient(b1, killed_vertices=("9",))

    def test_dimension_never_grows(self, b1):
        rng = seeded(3)
        samples = [b1, nn(5), line(4, "+-+")]
        samples += [random_tree_quiver(rng, 6) for _ in range(10)]
        for pres in samples:
            base = dimension_table(pres).total
            for v in pres.quiver.vertices:
                q = quotient(pres, killed_vertices=(v,))
                assert dimension_table(q).total < base
            for a in pres.quiver.arrows:
                q = quotient(pres, killed_arrows=(a.name,))
                assert dimension_table(q).total < base

    def test_noop_quotient_preserves_dimension(self, b1):
        q = quotient(b1)
        assert dimension_table(q).total == dimension_table(b1).total

    def test_extra_relation_reaches_catalog_algebra(self):
        from quivertau.catalog import catalog_get, is_iso
        q = quotient(line(4), extra_relations=mono("a1.a2.a3"))
        assert is_iso(q, catalog_get("LNak4")) is not None

    def test_tensor_projection_onto_factor(self):
        from quivertau.catalog import is_iso
        from quivertau.tensor import tensor_product, tensor_vertex
        a2 = line(2)
        t = tensor_product(a2, a2)
        bottom = (tensor_vertex("1", "2"), tensor_vertex("2", "2"))
        q = quotient(t, killed_vertices=bottom)
        assert is_iso(q, a2) is not None


@pytest.mark.parametrize("call, error, message", [
    (lambda: quotient(line(3), killed_vertices=("9",)),
     UnknownVertexError, "9"),
    (lambda: quotient(line(3), killed_arrows=("zz",)),
     UnknownArrowError, "zz"),
    (lambda: homology_rank(Presentation(Quiver(("1", "2"), ()), ())),
     DisconnectedError, "homology proxy needs a connected quiver"),
    (lambda: all_paths(Quiver(("1", "2"), (Arrow("a", "1", "2"),
                                           Arrow("b", "2", "1")))),
     CyclicQuiverError, "path enumeration needs an acyclic quiver"),
    (lambda: quotient(line(3), extra_relations=mono("a1")),
     InvalidExtraRelationError,
     "Relation(terms=((Fraction(1, 1), ('a1',)),))"),
    (lambda: quotient(line(3), extra_relations=mono("a2.a1")),
     InvalidExtraRelationError,
     "Relation(terms=((Fraction(1, 1), ('a2', 'a1')),))"),
], ids=["quotient-vertex", "quotient-arrow", "homology_rank", "all_paths",
        "quotient-extra-one-arrow", "quotient-extra-not-composable"])
def test_typed_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    adachi_decide, structural_profile, dimension_table, band_search,
    special_biserial_check, is_rad_square_zero, homology_rank,
    rad_square_quotient,
], ids=lambda call: call.__name__)
@pytest.mark.parametrize("arrow", [Arrow("a", "1", "9"), Arrow("a", "9", "1")],
                         ids=["target", "source"])
def test_undeclared_endpoint_is_a_typed_error(call, arrow):
    # the library readers meet it in Quiver.out, .inc or .is_connected
    pres = Presentation(Quiver(("1", "2"), (arrow,)), ())
    with pytest.raises(UnknownVertexError) as info:
        call(pres)
    assert str(info.value) == "arrow a: endpoint 9 is not a declared vertex"
    assert [v.code for v in validate_presentation(pres)] == ["UnknownVertex"]


def test_path_is_composable_needs_every_arrow():
    q = line(3).quiver
    assert path_is_composable(q, ("a1", "a2"))
    assert not path_is_composable(q, ("a1", "zz", "a2"))


@pytest.mark.parametrize("pres, total", [
    (nn(3), 5),
    (parse_presentation(SQUARE + "relation 1*a.b - 1*c.d\n"), 9),
], ids=["tree", "square"])
def test_relation_without_terms_is_skipped(pres, total):
    # the ideal build and the tree reader pass over a Relation(())
    padded = Presentation(pres.quiver, pres.relations + (Relation(()),))
    assert dimension_table(padded).total == total
    assert dimension_table(pres).total == total
    assert structural_profile(padded) == structural_profile(pres)


class TestHomology:
    def test_trees_simply_connected(self):
        rng = seeded(5)
        for _ in range(50):
            pres = random_tree_quiver(rng)
            rank, status = homology_rank(pres)
            assert rank == 0
            assert status == SIMPLY_CONNECTED

    def test_commutative_square(self):
        p = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "relation 1*a.b - 1*c.d\n")
        assert homology_rank(p) == (0, LIKELY_SIMPLY_CONNECTED)

    def test_monomial_square_not_simply_connected(self):
        p = parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
            "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
            "zero a.b\nzero c.d\n")
        assert homology_rank(p) == (1, NOT_SIMPLY_CONNECTED)

    def test_cells_read_combined_terms(self):
        # a cancelled term attaches no cell; a split one attaches its cell
        for relation, expected in (
                ("1*a.b + 1*c.d - 1*c.d", (1, NOT_SIMPLY_CONNECTED)),
                ("1/2*a.b + 1/2*a.b - 1*c.d", (0, LIKELY_SIMPLY_CONNECTED))):
            p = parse_presentation(SQUARE + f"relation {relation}\n")
            assert homology_rank(p) == expected
