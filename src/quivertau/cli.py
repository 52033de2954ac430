"""The ``qt`` command line tool.

Every subcommand reads quiver files (or ``catalog:<id>`` references),
prints text or ``--format json``, and exits 0 on success, 1 on usage
errors, 2 on input errors, 3 on an ``--expect`` mismatch, and 4 on an
internal error: a violated invariant or any other unexpected exception,
reported in one stderr line instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as cat
from . import classify as cls
from . import sepgraph as sg
from . import strings as st
from . import table as tbl
from .presentation import (
    InvariantViolationError,
    Presentation,
    QuivertauError,
    dimension_table,
    parse_presentation,
    require_valid,
    serialize_presentation,
)
from .tensor import tensor_product


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"qt: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_algebra(spec):
    """A quiver file path or a catalog:<id> reference.  A quiver without
    vertices raises the error ``require_valid`` gives it, so every
    subcommand rejects one; a disconnected quiver is returned."""
    if spec.startswith("catalog:"):
        return cat.catalog_get(spec[len("catalog:"):])
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QuivertauError(f"cannot read {spec}: {exc}") from exc
    pres = parse_presentation(text)
    if not pres.quiver.vertices:
        require_valid(pres)  # raises EmptyQuiver
    return pres


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _verdict_lines(v):
    cert = v.certificate
    lines = [f"status: {v.status}", f"rule: {cert.rule}",
             f"citation: {cert.statement}"]
    if cert.witness is not None:
        lines.append("witness: " + json.dumps(cert.witness, sort_keys=True,
                                              ensure_ascii=False))
    lines.append("trace:")
    lines.extend(f"  - {t}" for t in cert.trace)
    return lines


# the verdict subcommands; each decider takes the subcommand's algebras
_DECIDERS = {
    "classify": cls.classify_tensor,
    "single": cls.classify_single,
    "envelope": cls.classify_enveloping,
    "self-tensor": cls.classify_self_tensor,
    "triple": cls.classify_triple,
    "adachi": sg.adachi_decide,
}


def _cmd_verdict(args):
    v = _DECIDERS[args.command](*(load_algebra(getattr(args, k))
                                  for k in "abc" if hasattr(args, k)))
    _emit(args, v.to_json(), _verdict_lines(v))
    return 3 if args.expect and v.status != args.expect else 0


def _cmd_tensor(args):
    product = tensor_product(load_algebra(args.a), load_algebra(args.b))
    text = serialize_presentation(product)
    _emit(args, {"presentation": text}, [text.rstrip("\n")])
    return 0


def _cmd_separated(args):
    pres = load_algebra(args.a)
    sep = sg.separated_quiver(pres.quiver)
    report = sg.classify_graph(sg.underlying_graph(sep))
    lines = [serialize_presentation(Presentation(sep, ())).rstrip("\n"),
             "components: " + ", ".join(report.tags())]
    payload = {
        "vertices": list(sep.vertices),
        "arrows": [[a.name, a.source, a.target] for a in sep.arrows],
        "components": list(report.tags()),
    }
    _emit(args, payload, lines)
    return 0


def _cmd_graph_type(args):
    pres = load_algebra(args.a)
    report = sg.classify_graph(sg.underlying_graph(pres.quiver))
    lines = [f"{'+'.join(verts)}: {t.label()}"
             for verts, t in report.components]
    payload = {"components": [
        {"vertices": list(verts), "type": t.label()}
        for verts, t in report.components]}
    _emit(args, payload, lines)
    return 0


def _cmd_dim(args):
    pres = load_algebra(args.a)
    table = dimension_table(pres)
    lines = [f"total: {table.total}"]
    payload_pairs = []
    for (i, j), paths in table.pairs:
        shown = [".".join(p) if p else f"e_{i}" for p in paths]
        lines.append(f"({i},{j}): dim {len(paths)}  [{', '.join(shown)}]")
        payload_pairs.append({"from": i, "to": j, "dim": len(paths),
                              "basis": shown})
    _emit(args, {"total": table.total, "pairs": payload_pairs}, lines)
    return 0


def _cmd_quotient_search(args):
    pres = load_algebra(args.a)
    target = load_algebra(args.target)
    witness = cat.has_quotient(pres, target, size_limit=args.iso_limit)
    if witness is None:
        _emit(args, {"found": False}, ["no quotient witness"])
        return 0
    payload = witness.to_payload()
    payload["found"] = True
    lines = [
        "killed vertices: " + (", ".join(witness.killed_vertices) or "-"),
        "killed arrows: " + (", ".join(witness.killed_arrows) or "-"),
        "vertex map: " + ", ".join(f"{u}->{v}"
                                   for u, v in witness.vertex_map),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_catalog(args):
    if args.action == "show" and not args.id:
        raise QuivertauError("catalog show needs an id")
    if args.action == "list":
        ids = cat.catalog_ids()
        frames = cat.frame_ids()
        payload = {"algebras": list(ids), "frames": list(frames)}
        lines = ["algebras:"] + [f"  {i}" for i in ids] + \
            ["frames:"] + [f"  {i}" for i in frames]
        _emit(args, payload, lines)
        return 0
    pres = cat.catalog_get(args.id)
    text = serialize_presentation(pres)
    _emit(args, {"id": args.id, "presentation": text},
          [text.rstrip("\n")])
    return 0


def _cmd_witness(args):
    frame = cat.witness_frame(args.frame)
    report = cat.verify_witness(frame)
    payload = frame.to_payload()
    payload["verification"] = report.to_payload()
    lines = [
        f"frame: {frame.frame_id}",
        f"ambient: tensor of {frame.factors[0]} and {frame.factors[1]}",
        f"claimed type: {frame.claimed_type.label()} "
        f"({frame.claim_kind})",
        f"marked: {', '.join(frame.marked)}",
        f"quotient ok: {report.quotient_ok}",
        f"connected: {report.connected}",
        f"marked count: {report.marked_count} "
        f"(expected {report.expected_count})",
    ]
    if report.hereditary_ok is not None:
        lines.append(f"hereditary check: {report.hereditary_ok} "
                     f"(induced graph {report.induced_graph})")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"ok: {report.ok}")
    _emit(args, payload, lines)
    return 0 if report.ok else 4


def _cmd_strings(args):
    pres = load_algebra(args.a)
    report = st.special_biserial_check(pres)
    lines = [f"special biserial: {report.ok}"]
    lines.extend(f"violation: {v}" for v in report.violations)
    payload = {"special_biserial": report.ok,
               "violations": list(report.violations)}
    band = None
    if report.ok and all(r.is_monomial() for r in pres.relations):
        band = st.band_search(pres, args.band_bound)
        payload["band"] = str(band) if band else None
        lines.append(f"band: {band if band else 'none'}")
    _emit(args, payload, lines)
    return 0


def _cmd_table(args):
    rows, all_ok = tbl.run_table()
    lines = []
    for row in rows:
        mark = "pass" if row["ok"] else "FAIL"
        lines.append(
            f"[{mark}] {row['label']}: ({row['a']}, {row['b']}) "
            f"expected {row['expected']}, got {row['got']} "
            f"[{row['rule']}]")
    lines.append(f"{sum(r['ok'] for r in rows)}/{len(rows)} pairs match")
    _emit(args, {"rows": rows, "all_ok": all_ok}, lines)
    return 0 if all_ok else 4


def build_parser():
    parser = _Parser(prog="qt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *specs, expect=False):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("text", "json"),
                       default="text")
        for spec in specs:
            p.add_argument(spec)
        if expect:
            p.add_argument("--expect",
                           choices=("finite", "infinite", "open"))
        return p

    add("classify", "a", "b", expect=True)
    add("single", "a", expect=True)
    add("envelope", "a", expect=True)
    add("self-tensor", "a", expect=True)
    add("triple", "a", "b", "c", expect=True)
    add("tensor", "a", "b")
    add("adachi", "a", expect=True)
    add("separated", "a")
    add("graph-type", "a")
    add("dim", "a")
    p = add("quotient-search", "a")
    p.add_argument("--target", required=True)
    p.add_argument("--iso-limit", type=int, default=16)
    p = sub.add_parser("catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?")
    p = sub.add_parser("witness")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--frame", required=True)
    p = add("strings", "a")
    p.add_argument("--band-bound", type=int, default=None)
    add("table")
    return parser


@functools.cache
def _shared_parser():
    """The parser, built on the first ``main`` call (not at import time)
    and reused by every later call in the process."""
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    # a verdict subcommand runs _cmd_verdict; any other x-y runs _cmd_x_y,
    # looked up per call rather than kept in the shared parser, so a
    # handler replaced on the module takes effect
    handler = _cmd_verdict if args.command in _DECIDERS else \
        globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
    except InvariantViolationError as exc:
        print(f"qt: internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except QuivertauError as exc:
        print(f"qt: input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"qt: internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
