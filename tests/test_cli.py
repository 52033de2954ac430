"""Command line surface: subcommands, formats, exit codes."""

import hashlib
import json
import pathlib
import time

import pytest

from quivertau.catalog import N_VERTEX_CAP
from quivertau.cli import main
from quivertau.presentation import parse_presentation

B1 = "catalog:B1"
N3 = "catalog:N(3)"
N4 = "catalog:N(4)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_expect_match(self, capsys):
        code, out, _ = run(capsys, "classify", "catalog:A(2,+)",
                           "catalog:A(4,+-+)", "--expect", "finite")
        assert code == 0
        assert "status: finite" in out

    def test_expect_mismatch_exit_3(self, capsys):
        code, _, _ = run(capsys, "classify", N3, B1,
                         "--expect", "infinite")
        assert code == 3

    def test_json_and_text_agree(self, capsys):
        code, text_out, _ = run(capsys, "classify", N4, "catalog:LNak4")
        assert code == 0
        code, json_out, _ = run(capsys, "classify", N4, "catalog:LNak4",
                                "--format", "json")
        assert code == 0
        payload = json.loads(json_out)
        assert payload["status"] == "infinite"
        assert f"status: {payload['status']}" in text_out
        assert payload["rule"] in text_out
        assert payload["witness"]["frame"] == "n4-LNak4"
        assert isinstance(payload["trace"], list)

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "a2.quiver"
        path.write_text("vertex 1\nvertex 2\narrow a : 1 -> 2\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(path), str(path))
        assert code == 0
        assert "status: finite" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "nope.quiver", N3)
        assert code == 2
        assert "input error" in err

    def test_bad_catalog_id_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "catalog:Z", N3)
        assert code == 2

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 1


def test_parser_shared_across_calls(capsys, monkeypatch):
    from quivertau import cli

    code, out, _ = run(capsys, "classify", N3, B1, "--format", "json",
                       "--expect", "finite")
    assert code == 0
    assert json.loads(out)["status"] == "finite"
    monkeypatch.setattr(cli, "build_parser", None)  # built once already
    # the defaults come back: text output and no expectation to miss
    code, out, _ = run(capsys, "classify", N4, "catalog:LNak4")
    assert code == 0
    assert out.startswith("status: infinite\n")


class TestOtherCommands:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "single", "catalog:A(4,+++)",
                           "--expect", "finite")
        assert code == 0

    def test_envelope(self, capsys):
        code, out, _ = run(capsys, "envelope", N4)
        assert code == 0 and "finite" in out
        code, out, _ = run(capsys, "envelope", "catalog:A(3,++)")
        assert "infinite" in out

    def test_self_tensor(self, capsys, tmp_path):
        path = tmp_path / "cycle.quiver"
        path.write_text(
            "vertex 1\nvertex 2\nvertex 3\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 1\n",
            encoding="utf-8")
        code, out, _ = run(capsys, "self-tensor", str(path))
        assert code == 0 and "infinite" in out

    def test_triple(self, capsys):
        code, out, _ = run(capsys, "triple", "catalog:A(2,+)",
                           "catalog:A(2,+)", "catalog:A(2,+)")
        assert code == 0 and "infinite" in out

    def test_triple_looped_factor_exit_2(self, capsys, tmp_path):
        path = tmp_path / "loop.quiver"
        path.write_text("vertex 1\narrow x : 1 -> 1\n", encoding="utf-8")
        code, out, err = run(capsys, "triple", str(path), "catalog:A(2,+)",
                             "catalog:A(4,+-+)")
        assert code == 2 and out == ""
        assert err.startswith("qt: input error: ") and "acyclic" in err

    def test_tensor_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tensor", "catalog:A(2,+)", N3)
        assert code == 0
        from quivertau.presentation import parse_presentation
        pres = parse_presentation(out)
        assert len(pres.quiver.vertices) == 6

    def test_adachi(self, capsys):
        code, out, _ = run(capsys, "adachi", "catalog:N(5)",
                           "--expect", "finite")
        assert code == 0
        code, out, err = run(capsys, "adachi", N4, "--format", "json")
        assert code == 0 and err == ""
        assert out == (
            '{"citation": "every single subquiver of the separated quiver '
            'is a disjoint union of Dynkin graphs", "rule": '
            '"separated-quiver-criterion", "status": "finite", "trace": '
            '["separated-quiver-criterion[witness-search]"]}\n')

    def test_adachi_mode_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adachi", N4, "--mode", "naive"])
        assert exc.value.code == 1

    def test_separated(self, capsys):
        code, out, _ = run(capsys, "separated", N3, "--format", "json")
        payload = json.loads(out)
        assert sorted(payload["components"]) == ["A1", "A1", "A2", "A2"]

    def test_graph_type(self, capsys):
        code, out, _ = run(capsys, "graph-type", "catalog:D(4,+++)")
        assert code == 0 and "D4" in out

    @pytest.mark.parametrize("argv,expected", [
        (("separated", "catalog:L43square"),
         "vertex (1,0)\nvertex (2,0)\nvertex (3,0)\nvertex (4,0)\n"
         "vertex (1,1)\nvertex (2,1)\nvertex (3,1)\nvertex (4,1)\n"
         "arrow α^sp : (1,0) -> (2,1)\narrow γ^sp : (1,0) -> (3,1)\n"
         "arrow β^sp : (2,0) -> (4,1)\narrow δ^sp : (3,0) -> (4,1)\n"
         "components: A3, A3, A1, A1\n"),
        (("separated", "catalog:L43square", "--format", "json"),
         '{"arrows": [["α^sp", "(1,0)", "(2,1)"], ["γ^sp", "(1,0)", '
         '"(3,1)"], ["β^sp", "(2,0)", "(4,1)"], ["δ^sp", "(3,0)", '
         '"(4,1)"]], "components": ["A3", "A3", "A1", "A1"], "vertices": '
         '["(1,0)", "(2,0)", "(3,0)", "(4,0)", "(1,1)", "(2,1)", "(3,1)", '
         '"(4,1)"]}\n'),
        (("separated", "catalog:B5_3"),
         "vertex (1,0)\nvertex (2,0)\nvertex (3,0)\nvertex (4,0)\n"
         "vertex (5,0)\nvertex (1,1)\nvertex (2,1)\nvertex (3,1)\n"
         "vertex (4,1)\nvertex (5,1)\n"
         "arrow α^sp : (1,0) -> (2,1)\narrow β^sp : (3,0) -> (2,1)\n"
         "arrow γ^sp : (4,0) -> (3,1)\narrow δ^sp : (5,0) -> (1,1)\n"
         "components: A3, A1, A2, A2, A1, A1\n"),
        (("separated", "catalog:B5_3", "--format", "json"),
         '{"arrows": [["α^sp", "(1,0)", "(2,1)"], ["β^sp", "(3,0)", '
         '"(2,1)"], ["γ^sp", "(4,0)", "(3,1)"], ["δ^sp", "(5,0)", '
         '"(1,1)"]], "components": ["A3", "A1", "A2", "A2", "A1", "A1"], '
         '"vertices": ["(1,0)", "(2,0)", "(3,0)", "(4,0)", "(5,0)", '
         '"(1,1)", "(2,1)", "(3,1)", "(4,1)", "(5,1)"]}\n'),
        (("graph-type", "catalog:L43square"), "1+2+3+4: A~3\n"),
        (("graph-type", "catalog:L43square", "--format", "json"),
         '{"components": [{"type": "A~3", "vertices": ["1", "2", "3", '
         '"4"]}]}\n'),
        (("graph-type", "catalog:B5_3"), "1+2+3+4+5: A5\n"),
        (("graph-type", "catalog:B5_3", "--format", "json"),
         '{"components": [{"type": "A5", "vertices": ["1", "2", "3", "4", '
         '"5"]}]}\n'),
    ])
    def test_separated_and_graph_type_output(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", B1)
        assert code == 0 and "total: 7" in out

    def test_quotient_search(self, capsys):
        code, out, _ = run(capsys, "quotient-search", "catalog:B5_1",
                           "--target", B1)
        assert code == 0 and "killed vertices: 5" in out
        code, out, _ = run(capsys, "quotient-search", N3,
                           "--target", "catalog:LNak4")
        assert code == 0 and "no quotient witness" in out

    def test_envelope_isomorphism_limit(self, capsys):
        # the enveloping rule reads the profile, so no isomorphism search
        # limit applies: N(21) is decided as N(20) is
        for line in ("catalog:N(20)", "catalog:N(21)"):
            code, out, err = run(capsys, "envelope", line)
            assert code == 0 and out.startswith("status: finite\n")
            assert err == ""

    @pytest.fixture
    def broom_file(self, tmp_path):
        """The 18-vertex tree a1, ..., a16 along 1 -> ... -> 17 with
        b: 3 -> 18 and zero a1.a2: a non-line factor past the quotient
        search's 16-vertex limit."""
        path = tmp_path / "broom.quiver"
        path.write_text(
            "".join(f"vertex {i}\n" for i in range(1, 19))
            + "".join(f"arrow a{i} : {i} -> {i + 1}\n" for i in range(1, 17))
            + "arrow b : 3 -> 18\nzero a1.a2\n", encoding="utf-8")
        return str(path)

    def test_size_limits_bind_only_deciding_searches(self, capsys,
                                                     broom_file):
        code, _, _ = run(capsys, "envelope", "catalog:N(21)",
                         "--expect", "finite")
        assert code == 0
        code, _, _ = run(capsys, "classify", broom_file, "catalog:A(3,++)",
                         "--expect", "infinite")
        assert code == 0
        code, out, _ = run(capsys, "classify", N3, broom_file)
        assert code == 2 and out == ""

    def test_quotient_search_limit(self, capsys):
        source = "catalog:N(17)"
        code, out, err = run(capsys, "quotient-search", source,
                             "--target", N3)
        assert code == 2 and out == ""
        assert err == "qt: input error: quotient search limit exceeded\n"
        code, out, _ = run(capsys, "quotient-search", source,
                           "--target", N3, "--iso-limit", "17")
        assert code == 0 and out.startswith("killed vertices: ")

    def test_catalog_list_and_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and "B1" in out and "a4n3:+-+" in out
        code, out, _ = run(capsys, "catalog", "show", "B1")
        assert code == 0 and "zero γ.β" in out
        code, out, err = run(capsys, "catalog", "show")
        assert (code, out) == (2, "")
        assert err == "qt: input error: catalog show needs an id\n"

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--frame", "a4n3:+-+")
        assert code == 0
        assert "hereditary check: True" in out
        code, out, _ = run(capsys, "witness", "--frame", "a3a3:++,++")
        assert code == 0
        assert "count-anomaly (paper figure)" in out

    def test_strings(self, capsys):
        code, out, _ = run(capsys, "strings", "catalog:N(5)")
        assert code == 0 and "band: none" in out

    def test_strings_bad_band_bound_exit_2(self, capsys):
        code, out, err = run(capsys, "strings", N4, "--band-bound", "-5")
        assert code == 2 and out == "" and "band length bound" in err

    def test_adachi_invariant_violation_exit_4(self, capsys, monkeypatch,
                                               tmp_path):
        from quivertau import sepgraph
        from quivertau.presentation import InvariantViolationError

        def broken(quiver):
            raise InvariantViolationError("two searches disagree")

        monkeypatch.setattr(sepgraph, "minimal_bad_single_subquiver", broken)
        kronecker = tmp_path / "kronecker.quiver"
        kronecker.write_text("vertex 1\nvertex 2\n"
                             "arrow a : 1 -> 2\narrow b : 1 -> 2\n")
        code, out, err = run(capsys, "adachi", str(kronecker))
        assert code == 4 and out == "" and "invariant" in err

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        from quivertau import cli

        def broken(args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "_cmd_dim", broken)
        code, out, err = run(capsys, "dim", B1)
        assert code == 4 and out == ""
        assert err == "qt: internal error: RuntimeError: first line " \
            "second line\n"

    def test_tensor_vertex_collision_exit_2(self, capsys, tmp_path):
        a = tmp_path / "a.quiver"
        a.write_text("vertex 1,2\nvertex 1\n", encoding="utf-8")
        b = tmp_path / "b.quiver"
        b.write_text("vertex 3\nvertex 2,3\n", encoding="utf-8")
        code, out, err = run(capsys, "tensor", str(a), str(b))
        assert code == 2 and out == "" and "vertex ids collide" in err

    @pytest.mark.parametrize("argv", [
        ("triple", "EMPTY", N3, N3),
        ("single", "EMPTY"),
        ("classify", "EMPTY", N3),
        ("classify", N3, "EMPTY"),
        ("envelope", "EMPTY"),
        ("self-tensor", "EMPTY"),
        ("separated", "EMPTY"),
        ("graph-type", "EMPTY"),
        ("strings", "EMPTY"),
        ("dim", "EMPTY"),
        ("tensor", "EMPTY", N3),
        ("tensor", N3, "EMPTY"),
        ("quotient-search", N3, "--target", "EMPTY"),
    ])
    def test_empty_quiver_exit_2(self, capsys, tmp_path, argv):
        empty = tmp_path / "empty.quiver"
        empty.write_text("", encoding="utf-8")
        argv = [str(empty) if a == "EMPTY" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "qt: input error: EmptyQuiver (quiver): no vertices\n"

    @pytest.mark.parametrize("argv, first_line", [
        (("dim",), "total: 2"),
        (("graph-type",), "1: A1"),
        (("separated",), "vertex (1,0)"),
        (("strings",), "special biserial: True"),
    ])
    def test_disconnected_file_accepted(self, capsys, tmp_path, argv,
                                        first_line):
        path = tmp_path / "two.quiver"
        path.write_text("vertex 1\nvertex 2\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == first_line

    @pytest.mark.parametrize("text, message", [
        ("", "EmptyQuiver (quiver): no vertices"),
        ("vertex 1\nvertex 2\n",
         "Disconnected (quiver): underlying graph is not connected"),
    ])
    def test_invalid_quiver_message(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.quiver"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "single", str(path))
        assert code == 2 and out == ""
        assert err == f"qt: input error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("catalog", "show", "X(3)"),
         "unknown catalog id 'X(3)'; qt catalog list shows the ids"),
        (("classify", "catalog:Q", N3),
         "unknown catalog id 'Q'; qt catalog list shows the ids"),
        (("witness", "--frame", "nope"),
         "unknown witness frame 'nope'; qt catalog list shows the frames"),
        # the families that qt catalog list prints
        (("catalog", "show", "N(n)"), "catalog id 'N(n)' is a family and "
         "needs its parameters, as in N(3)"),
        (("catalog", "show", "A(n,eps)"), "catalog id 'A(n,eps)' is a "
         "family and needs its parameters, as in A(4,+-+)"),
        (("catalog", "show", "D(n,eps)"), "catalog id 'D(n,eps)' is a "
         "family and needs its parameters, as in D(4,+++)"),
        # a bad parameter, quoted with the id as given
        (("catalog", "show", "A(3,+)"),
         "catalog id 'A(3,+)': orientation '+' needs length 2"),
        (("catalog", "show", "N(0)"), "catalog id 'N(0)': N(n) needs n >= 1"),
        (("catalog", "show", "D(3,++)"),
         "catalog id 'D(3,++)': D(n,eps) needs n >= 4"),
        # a parameter past the interpreter's integer digit limit, or past
        # its index size
        pytest.param(("catalog", "show", f"N({'9' * 5000})"),
                     f"catalog id 'N({'9' * 5000})': too many digits",
                     id="N-past-the-digit-limit"),
        pytest.param(("catalog", "show", f"N(1{'0' * 30})"),
                     f"catalog id 'N(1{'0' * 30})': too many digits",
                     id="N-past-the-index-size"),
        pytest.param(("classify", f"catalog:A({'1' * 5000},)", N3),
                     f"catalog id 'A({'1' * 5000},)': too many digits",
                     id="A-past-the-digit-limit"),
    ])
    def test_unknown_id_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"qt: input error: {message}\n"

    def test_n_line_past_the_cap_exit_2(self, capsys):
        # refused before the line is built, so a long line costs nothing
        cat_id = "N(100000000)"
        start = time.perf_counter()
        code, out, err = run(capsys, "catalog", "show", cat_id)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (f"qt: input error: catalog id {cat_id!r}: N(n) has at "
                       f"most {N_VERTEX_CAP} vertices\n")

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.quiver"
        path.write_bytes(b"vertex 1\xff\n")
        code, out, err = run(capsys, "dim", str(path))
        assert code == 2 and out == ""
        assert err == (f"qt: input error: cannot read {path}: 'utf-8' codec "
                       "can't decode byte 0xff in position 8: invalid start "
                       "byte\n")

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "zero.quiver"
        path.write_text("vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\n"
                        "arrow b : 2 -> 3\nrelation 1/0*a.b\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "single", str(path))
        assert code == 2 and out == ""
        assert err == ("qt: input error: line 6: zero denominator in "
                       "relation term\n")

    def test_adachi_empty_quiver_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.quiver"
        empty.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "adachi", str(empty))
        assert code == 2 and out == ""
        assert err == "qt: input error: EmptyQuiver (quiver): no vertices\n"

    def test_dim_deeper_than_the_stack(self, capsys, shallow_stack):
        n = 200
        code, out, err = run(capsys, "dim", f"catalog:A({n},{'+' * (n - 1)})")
        assert code == 0 and err == ""
        assert out.startswith(f"total: {n * (n + 1) // 2}\n")

    def test_dim_path_budget_exit_2(self, capsys):
        # a 1,200-vertex line has ~288M path letters
        n = 1200
        start = time.perf_counter()
        code, out, err = run(capsys, "dim", f"catalog:A({n},{'+' * (n - 1)})")
        assert code == 2 and out == "" and "letters" in err
        assert time.perf_counter() - start < 10

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        assert len(payload["rows"]) >= 24

    def test_verdict_json_schema_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", N3, "catalog:B5_2",
                           "--format", "json")
        payload = json.loads(out)
        assert set(payload) >= {"status", "rule", "citation", "trace"}
        assert json.loads(json.dumps(payload)) == payload

    def test_byte_identical_reruns(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "classify", N4, "catalog:B5_1",
                            "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1
        for _ in range(2):
            _, out, _ = run(capsys, "table")
            outputs.add(out)
        assert len(outputs) == 2


class TestPinnedOutput:
    """Output digests pinned on fixed inputs, run from a directory that
    holds the input files."""

    FILES = {
        # a non-homogeneous binomial: a.b = 2 c.d.e
        "nh.quiver": "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
                     "arrow a : 1 -> 2\narrow b : 2 -> 4\narrow c : 1 -> 3\n"
                     "arrow d : 3 -> 5\narrow e : 5 -> 4\n"
                     "relation 1*a.b - 2*c.d.e\n",
        # a tree source whose quotient witness maps a subtree
        "star.quiver": "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                       "vertex 5\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
                       "arrow c : 4 -> 2\narrow d : 3 -> 5\nzero a.b\n",
        "k3.quiver": "vertex 1\nvertex 2\narrow a : 1 -> 2\n"
                     "arrow b : 1 -> 2\narrow c : 1 -> 2\n",
        "k2.quiver": "vertex 1\nvertex 2\narrow x : 1 -> 2\n"
                     "arrow y : 1 -> 2\n",
    }

    @pytest.fixture
    def inputs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "tensor", "nh.quiver", "catalog:A(3,++)")
        assert code == 0
        (tmp_path / "nh3.quiver").write_text(out, encoding="utf-8")

    @pytest.mark.parametrize("argv,digest", [
        pytest.param(("dim", "nh3.quiver"), "8014d3d4a43346aa308badb76c6f"
                     "36376a72fe9299cb128b5eb4748694123cc1",
                     id="nonhomogeneous-binomial-product-dims"),
        pytest.param(("classify", "star.quiver", "catalog:A(3,+-)",
                      "--format", "json"), "9919a9aa5a1f7cd00c3b3b87bda2"
                     "0e925c77b1d03884f1b092823860a5825167",
                     id="tree-source-quotient-witness"),
        pytest.param(("quotient-search", "catalog:L43square", "--target",
                      "catalog:B1", "--format", "json"), "c92bb8e28112ff90"
                     "62e2476ff94b3f75a866ab1ace082c99c52f9cfe432c3c76",
                     id="square-quotient-witness"),
        pytest.param(("quotient-search", "k3.quiver", "--target",
                      "k2.quiver", "--format", "json"), "ee4a1d7320297e76"
                     "612d44a8c593f385e9d873850c0dcd1731e6a8001b26dfbb",
                     id="kronecker-quotient-witness"),
    ])
    def test_stdout_digest(self, capsys, inputs, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_a4_line_against_n3_gets_its_frame(self, capsys):
        code, out, _ = run(capsys, "classify", "catalog:A(4,--+)", N3,
                           "--format", "json")
        assert code == 0 and "a4n3:-++" in out


class TestCombinedRelations:
    """Inputs where one relation repeats a path."""

    SQUARE = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
              "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
              "arrow c : 1 -> 3\narrow d : 3 -> 4\n")
    A3 = "vertex 1\nvertex 2\nvertex 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"

    def write(self, tmp_path, text):
        path = tmp_path / "in.quiver"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_cancelling_square_fails_the_gate(self, capsys, tmp_path):
        path = self.write(tmp_path,
                          self.SQUARE + "relation 1*a.b + 1*c.d - 1*c.d\n")
        code, out, err = run(capsys, "single", path)
        assert (code, out) == (2, "")
        assert err == "qt: input error: classify_single: homology proxy " \
                      "rank 1 > 0\n"

    def test_vacuous_relation_leaves_the_algebra_hereditary(self, capsys,
                                                            tmp_path):
        path = self.write(tmp_path, self.A3 + "relation 1*a.b - 1*a.b\n")
        code, out, _ = run(capsys, "single", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["rule"] == "hereditary-dynkin"

    FILES = {
        "sum2.quiver": A3 + "relation 1*a.b + 1*a.b\n",
        "sum0.quiver": A3 + "relation 1*a.b - 1*a.b\n",
        "sqc.quiver": SQUARE + "relation 1*a.b + 1*c.d - 1*c.d\n",
        "c3s.quiver": A3 + "arrow c : 3 -> 1\nrelation 1*a.b + 1*a.b\n"
                           "zero b.c\nzero c.a\n",
        "a4v.quiver": "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                      "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 4\n"
                      "relation 1*a.b - 1*a.b\n",
    }

    @pytest.mark.parametrize("argv,code,stdout", [
        pytest.param(("single", "sum2.quiver", "--format", "json"), 0,
                     '"rule": "rad-square-zero-separated"', id="sum2"),
        pytest.param(("single", "sum0.quiver", "--format", "json"), 0,
                     '"rule": "hereditary-dynkin"', id="sum0"),
        pytest.param(("single", "sqc.quiver"), 2, None, id="sqc"),
        pytest.param(("adachi", "c3s.quiver", "--expect", "finite"), 0, "",
                     id="c3s"),
        pytest.param(("classify", "catalog:A(2,+)", "a4v.quiver",
                      "--expect", "finite"), 0, "", id="a2-a4v"),
    ])
    def test_repeated_terms_are_summed(self, capsys, tmp_path, monkeypatch,
                                       argv, code, stdout):
        # stdout: a text the output holds, or None for no output at all
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert (out == "") if stdout is None else (stdout in out)

    @pytest.mark.parametrize("relation", ["1*a.b - 1*a.b", "1*a.b + 1*a.b"])
    def test_strings_searches_bands(self, capsys, tmp_path, relation):
        path = self.write(tmp_path, self.A3 + f"relation {relation}\n")
        code, out, _ = run(capsys, "strings", path)
        assert (code, out) == (0, "special biserial: True\nband: none\n")


def _readme_quiver_file():
    """The fenced block under the README's "Quiver file format" heading."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Quiver file format\n", 1)[1]
    return section.split("```\n", 2)[1]


def test_readme_quiver_file_example(capsys, tmp_path):
    text = _readme_quiver_file()
    pres = parse_presentation(text)
    assert [a.name for a in pres.quiver.arrows] == ["α", "β"]
    path = tmp_path / "readme.quiver"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "single", str(path), "--expect", "finite")
    assert code == 0
    assert "rule: rad-square-zero-separated" in out
