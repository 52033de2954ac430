"""One cold-start pass over a workload, in a fresh interpreter.

Usage (spawned by run.py, one worker at a time):

    python3 bench/worker.py INPUTS_DIR SPAWN_NS TRACE

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before the spawn,
so set-up time runs from interpreter start to ready: ``import quivertau``
plus the first ``catalog_get``.  The pass then issues the items one after
another (a closed loop with one caller), timing each; correctness checks
run after the pass, outside the timed region.  The last stdout line is
one JSON object with the pass's figures.
"""

import sys
import time

SPAWN_NS = int(sys.argv[2])

import quivertau  # noqa: E402  (set-up time starts before this import)

quivertau.catalog_get("N(3)")
READY_NS = time.monotonic_ns()

import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from fractions import Fraction  # noqa: E402

from quivertau import catalog, cli, sepgraph, table  # noqa: E402
from quivertau.presentation import QuivertauError  # noqa: E402

MAX_REPORTED_FAILURES = 5
# The speed reference (see run_pass): its nominal time, its size, how often
# the pass samples it, and how many runs calibrate the set-up time.
REFERENCE_S = 0.001
REFERENCE_LOOPS = 150
REFERENCE_EVERY_S = 0.05
SETUP_REFERENCE_RUNS = 10


def _factor(spec):
    if "catalog" in spec:
        return quivertau.catalog_get(spec["catalog"])
    return quivertau.parse_presentation(spec["text"])


def _cli_arg(spec, inputs_dir):
    if "catalog" in spec:
        return "catalog:" + spec["catalog"]
    return os.path.join(inputs_dir, spec["file"])


# ---------------------------------------------------------------------------
# requests; each returns a record the checks read after the pass

_COMMANDS = {"tensor": "classify", "single": "single", "self": "self-tensor"}


def _library_request(op, factors):
    if op == "tensor":
        return {"verdict": quivertau.classify_tensor(*factors)}
    if op == "single":
        return {"verdict": quivertau.classify_single(factors[0])}
    return {"verdict": quivertau.classify_self_tensor(factors[0])}


def _cli_request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build_requests(inputs, inputs_dir):
    """(item, factors, callable) triples; presentations are built here,
    before the pass, so parsing counts only where the CLI does it."""
    out = []
    for item in inputs["items"]:
        op = item["op"]
        if op == "golden":
            label, a_spec, b_spec, expected = table.GOLDEN_PAIRS[
                item["pick"] % len(table.GOLDEN_PAIRS)]
            factors = (table.resolve_algebra(a_spec),
                       table.resolve_algebra(b_spec))
            item = dict(item, label=label, expected=expected)
            run = (lambda fs=factors:
                   {"verdict": quivertau.classify_tensor(*fs)})
        elif op in _COMMANDS:
            specs = [item[k] for k in ("a", "b") if k in item]
            factors = tuple(_factor(s) for s in specs)
            if item.get("via") == "cli":
                argv = [_COMMANDS[op]]
                argv += [_cli_arg(s, inputs_dir) for s in specs]
                argv += ["--format", "json"]
                run = (lambda argv=argv: _cli_request(argv))
            else:
                run = (lambda op=op, fs=factors: _library_request(op, fs))
        elif op == "dims":
            factors = tuple(_factor(s) for s in item["factors"])
            run = (lambda fs=factors: _dims(fs))
        elif op in ("adachi-grid", "band-grid"):
            line = quivertau.catalog_get(item["line"])
            factors = (line,)
            run = (lambda op=op, line=line: _grid(op, line))
        elif op == "adachi-batch":
            factors = tuple(quivertau.parse_presentation(t)
                            for t in item["texts"])
            run = (lambda fs=factors: _adachi_batch(fs))
        else:
            raise ValueError(f"unknown op {op!r}")
        out.append((item, factors, run))
    return out


def _dims(factors):
    product = factors[0]
    for f in factors[1:]:
        product = quivertau.tensor_product(product, f)
    return {"total": quivertau.dimension_table(product).total}


def _grid(op, line):
    pres = quivertau.rad_square_quotient(quivertau.tensor_product(line, line))
    if op == "adachi-grid":
        return {"verdict": quivertau.adachi_decide(pres), "ambient": pres}
    band = quivertau.band_search(pres,
                                 length_bound=4 * len(pres.quiver.vertices))
    return {"band": band}


def _adachi_batch(quivers):
    out = []
    for pres in quivers:
        rsz = quivertau.rad_square_quotient(pres)
        out.append({"verdict": quivertau.adachi_decide(rsz), "ambient": rsz})
    return {"batch": out}


# ---------------------------------------------------------------------------
# correctness checks (after the pass)


class Checker:
    """Re-checks every result and certificate; memoizes frame reports and
    counts the certificates it verified, so a vacuous check shows."""

    def __init__(self):
        self.frames = {}
        self.verified = {"frame": 0, "quotient": 0, "single-subquiver": 0,
                         "dimension-total": 0, "no-band": 0}

    def check(self, item, factors, record):
        """None when the result is correct, else a one-line reason."""
        expect_error = item.get("expect_error")
        if "error" in record:
            if expect_error and record["error"] == expect_error:
                return None
            return f"raised {record['error']}: {record['message']}"
        if "code" in record:
            return self._check_cli(item, factors, record)
        if expect_error:
            return f"expected {expect_error}, got a result"
        if "total" in record:
            expected = math.prod(quivertau.dimension_table(f).total
                                 for f in factors)
            if record["total"] != expected:
                return f"total {record['total']} != product {expected}"
            self.verified["dimension-total"] += 1
            return None
        if "batch" in record:
            for k, sub in enumerate(record["batch"]):
                reason = self.check(item, factors[k:k + 1], sub)
                if reason is not None:
                    return f"quiver {k}: {reason}"
            return None
        if "band" in record:
            if record["band"] is not None:
                return f"band {record['band']} on a finite grid"
            self.verified["no-band"] += 1
            return None
        v = record["verdict"]
        return self._check_verdict(item, factors, v.status,
                                   v.certificate.rule, v.certificate.witness,
                                   record.get("ambient"))

    def _check_cli(self, item, factors, record):
        if item.get("expect_error"):
            if record["code"] == 2 and not record["stdout"]:
                return None
            return f"cli exit {record['code']}, expected a typed error"
        if record["code"] != 0:
            return f"cli exit {record['code']}: {record['stderr'].strip()}"
        payload = json.loads(record["stdout"])
        return self._check_verdict(item, factors, payload["status"],
                                   payload["rule"], payload.get("witness"),
                                   None)

    def _check_verdict(self, item, factors, status, rule, witness, ambient):
        if status not in (quivertau.FINITE, quivertau.INFINITE,
                          quivertau.OPEN):
            return f"bad status {status!r}"
        expected = item.get("expected") or item.get("expect")
        if expected and status != expected:
            return f"status {status}, expected {expected}"
        if witness is None:
            return None
        kind = witness.get("kind")
        if kind == "frame":
            return self._check_frame(item, factors, witness)
        if kind == "single-subquiver":
            return self._check_single(item, factors, rule, witness, ambient)
        return None

    def _check_frame(self, item, factors, witness):
        frame_id = witness["frame"]
        if frame_id not in self.frames:
            report = catalog.verify_witness(catalog.witness_frame(frame_id))
            self.frames[frame_id] = report.ok
        if not self.frames[frame_id]:
            return f"frame {frame_id} fails verify_witness"
        self.verified["frame"] += 1
        if item["op"] == "self":
            factors = factors * 2
        for q in witness.get("quotients", ()):
            qw = catalog.QuotientWitness(
                tuple(q["killed_vertices"]), tuple(q["killed_arrows"]),
                tuple(sorted(q["vertex_map"].items())),
                tuple(sorted(q["arrow_map"].items())))
            if q["of"] in ("A", "B"):
                sources = [factors["AB".index(q["of"])]]
            else:
                sources = [f for f in factors if f.relations]
                if q["of"] == "op":
                    sources = [quivertau.opposite(f) for f in sources]
            target = quivertau.catalog_get(q["target"])
            if not any(_verifies(s, target, qw) for s in sources):
                return f"quotient witness onto {q['target']} fails"
            self.verified["quotient"] += 1
        return None

    def _check_single(self, item, factors, rule, witness, ambient):
        if ambient is not None:
            quivers = [ambient.quiver]
        elif rule == "self-tensor-cycle":
            rsz = quivertau.rad_square_quotient(factors[0])
            quivers = [quivertau.tensor_product(rsz, rsz).quiver]
        else:
            quivers = [f.quiver for f in factors]
        ssq = sepgraph.SingleSubquiver(
            tuple((v, s) for v, s in witness["vertices"]),
            tuple(((a[0][0], a[0][1]), (a[1][0], a[1][1]), a[2])
                  for a in witness["arrows"]))
        if not any(sepgraph.is_single_subquiver(q, ssq) for q in quivers):
            return "single subquiver is not induced in its ambient quiver"
        if quivertau.classify_graph(ssq.underlying()).all_dynkin():
            return "single subquiver witness has only Dynkin components"
        self.verified["single-subquiver"] += 1
        return None


def _verifies(source, target, witness):
    """verify_quotient_witness, with a witness naming vertices or arrows
    the source lacks counted as not verifying."""
    try:
        return catalog.verify_quotient_witness(source, target, witness)
    except QuivertauError:
        return False


# ---------------------------------------------------------------------------


def reference_kernel():
    """A fixed standard-library workload in the program's own idiom
    (tuple-keyed dicts, Fractions, a sort); about 1 ms on a 2-core cloud
    VM with Python 3.11."""
    rows = {}
    for i in range(REFERENCE_LOOPS):
        key = ("p%d" % (i % 61), i % 7)
        rows[key] = rows.get(key, Fraction(0)) + Fraction(i, 1 + i % 5)
    return sorted(rows, key=lambda k: (len(k[0]), k))


def calibrate(runs):
    """Mean seconds the reference kernel takes now."""
    t0 = time.perf_counter_ns()
    for _ in range(runs):
        reference_kernel()
    return (time.perf_counter_ns() - t0) / runs / 1e9


def run_pass(requests):
    """Issue every request in order, timing each.

    A one-shot SIGALRM timer, re-armed after each run, runs the reference
    kernel every ``REFERENCE_EVERY_S`` of the pass, also inside items, and
    records when each run started and ended.  An item's time, less the
    reference runs inside it, is divided piece by piece by the reference's
    time around each piece (the mean of the runs just before and just
    after it) and multiplied by
    ``REFERENCE_S``: the time the item would take on a machine whose speed
    is constant and on which the reference takes ``REFERENCE_S``.  On a
    shared host whose speed drifts by up to 2x from one minute to the next
    this stays steady where raw times do not.

    Returns records, normalized item ms, normalized wall s and raw wall s
    (the items' elapsed time, reference runs included).
    """
    clock = time.perf_counter_ns
    samples, spans, records = [], [], []

    def record_speed():
        t0 = clock()
        reference_kernel()
        samples.append((t0, clock()))

    def sample(*_):
        record_speed()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S)

    previous = signal.signal(signal.SIGALRM, sample)
    sample()
    try:
        for _, _, run in requests:
            t0 = clock()
            try:
                record = run()
            except QuivertauError as exc:
                record = {"error": type(exc).__name__, "message": str(exc)}
            except Exception as exc:  # noqa: BLE001  a failed item
                record = {"error": f"unexpected {type(exc).__name__}",
                          "message": repr(exc)}
            spans.append((t0, clock()))
            records.append(record)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    record_speed()
    item_s = [_normalized(t0, t1, samples) for t0, t1 in spans]
    raw_wall_s = sum(t1 - t0 for t0, t1 in spans) / 1e9
    return records, [t * 1e3 for t in item_s], sum(item_s), raw_wall_s


def _normalized(t0, t1, samples):
    """Seconds at reference speed for the span [t0, t1).  A handler runs
    between bytecodes, so no sample straddles t0 or t1; the first sample
    precedes every item and the last follows them."""
    k = bisect.bisect_right(samples, (t0, t0)) - 1
    refs, start = 0.0, t0
    while True:
        here, after = samples[k], samples[k + 1]
        speed = (here[1] - here[0] + after[1] - after[0]) / 2
        refs += (min(t1, after[0]) - start) / speed
        if after[0] >= t1:
            return refs * REFERENCE_S
        start, k = after[1], k + 1


def main():
    inputs_dir, trace = sys.argv[1], sys.argv[3] == "1"
    # Set-up is normalized by the machine's speed just after it.
    setup_scale = REFERENCE_S / calibrate(SETUP_REFERENCE_RUNS)
    with open(os.path.join(inputs_dir, "inputs.json"), encoding="utf-8") as f:
        inputs = json.load(f)
    requests = build_requests(inputs, inputs_dir)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records, item_ms, wall_s, raw_wall_s = run_pass(requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": (READY_NS - SPAWN_NS) / 1e9 * setup_scale,
              "raw_setup_s": (READY_NS - SPAWN_NS) / 1e9,
              "wall_s": wall_s, "raw_wall_s": raw_wall_s,
              "item_ms": item_ms, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(inputs_dir, "spans.bin"))
        result["trace"] = tracer.summary()
    checker = Checker()
    failures = []
    for (item, factors, _), record in zip(requests, records):
        reason = checker.check(item, factors, record)
        if reason is not None:
            failures.append(f"{item['op']} {item.get('label', '')}: "
                            f"{reason}")
    result["attempted"] = len(records)
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_REPORTED_FAILURES]
    result["verified"] = checker.verified
    print(json.dumps(result))


if __name__ == "__main__":
    main()
