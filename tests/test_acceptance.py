"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import time

import pytest

from conftest import (
    cycle_presentation,
    naive_minimal_bad_single_subquiver,
    quiver_from_cells,
    quivers_up_to_iso,
    random_quiver,
    seeded,
)

from quivertau.catalog import (
    catalog_get,
    has_quotient,
    verify_witness,
    witness_frame,
)
from quivertau.classify import (
    classify_enveloping,
    classify_self_tensor,
    classify_tensor,
)
from quivertau.presentation import (
    Arrow,
    Presentation,
    Quiver,
    dimension_table,
    opposite,
    quotient,
)
from quivertau.sepgraph import (
    is_single_subquiver,
    minimal_bad_single_subquiver,
)
from quivertau.strings import band_search
from quivertau.table import run_table
from quivertau.tensor import rad_square_quotient, tensor_product

C = catalog_get


def report(number, label, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_golden_table():
    start = time.monotonic()
    rows, all_ok = run_table()
    elapsed = time.monotonic() - start
    ok = all_ok and len(rows) >= 24 and elapsed < 10.0
    for row in rows:
        if not row["ok"]:
            print("  mismatch:", row)
    report(1, f"golden table, {len(rows)} pairs in {elapsed:.2f}s", ok)


def test_criterion_02_three_line_grid_frames():
    cases = {
        ("++", "++"): ("a3a3:++,++", "D~4", True),
        ("++", "-+"): ("a3a3:++,-+", "E~6", False),
        ("+-", "+-"): ("a3a3:+-,+-", "D~4", False),
        ("+-", "-+"): ("a3a3:+-,-+", "D~6", False),
    }
    ok = True
    for (ea, eb), (frame_id, label, anomaly) in cases.items():
        v = classify_tensor(C(f"A(3,{ea})"), C(f"A(3,{eb})"))
        w = v.certificate.witness
        ok &= v.status == "infinite"
        ok &= w is not None and w["frame"] == frame_id
        ok &= w["claimed_type"] == label
        rep = verify_witness(witness_frame(frame_id))
        ok &= rep.quotient_ok and rep.connected
        ok &= rep.count_anomaly == anomaly
        if anomaly:
            ok &= "count-anomaly (paper figure)" in rep.notes
            ok &= witness_frame(frame_id).claimed_type.label() == label
    report(2, "all four 3x3 grid cases infinite, frames verified, "
           "anomalies reported verbatim", ok)


def test_criterion_03_hereditary_witness_full_verification():
    rep = verify_witness(witness_frame("a4n3:+-+"))
    ok = (rep.ok and rep.hereditary_ok and rep.induced_graph == "D~5"
          and rep.marked_count == 6 and not rep.count_anomaly)
    report(3, "hereditary witness: zero induced ideal, graph D~5 on 6 "
           "vertices", ok)


def test_criterion_04_hereditary_line_boundary():
    start = time.monotonic()
    ok = True
    checked = 0
    for m in range(2, 7):
        for n in range(2, 7):
            for ea in itertools.product("+-", repeat=m - 1):
                for eb in itertools.product("+-", repeat=n - 1):
                    pa = C(f"A({m},{''.join(ea)})")
                    pb = C(f"A({n},{''.join(eb)})")
                    expected = "finite" if (
                        (m == 2 and n <= 4) or (n == 2 and m <= 4)) \
                        else "infinite"
                    got = classify_tensor(pa, pb).status
                    ok &= got == expected
                    checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    report(4, f"line-pair boundary, {checked} orientation pairs "
           f"in {elapsed:.2f}s", ok)


def _quivers_up_to_iso_by_brute_force(n, max_arrows=None, max_degree=None):
    """Reference for quivers_up_to_iso: every arrow multiset under the
    bounds, kept when no relabeling makes its count vector smaller."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {c: k for k, c in enumerate(cells)}
    relabelings = [[index[perm[i], perm[j]] for i, j in cells]
                   for perm in itertools.permutations(range(n))]
    most = max_arrows if max_arrows is not None else n * max_degree
    found = []
    for total in range(most + 1):
        for multiset in itertools.combinations_with_replacement(
                range(len(cells)), total):
            w = [0] * len(cells)
            out_deg, in_deg = [0] * n, [0] * n
            for k in multiset:
                w[k] += 1
                out_deg[cells[k][0]] += 1
                in_deg[cells[k][1]] += 1
            if max_degree is not None and max(out_deg + in_deg) > max_degree:
                continue
            if all([w[c] for c in pm] >= w for pm in relabelings):
                found.append(tuple(w))
    return sorted(found)


@pytest.mark.parametrize("n, max_arrows, max_degree", [
    *((n, 4, None) for n in range(1, 5)),
    (5, 3, None),
    *((n, None, 2) for n in range(1, 5)),
])
def test_quivers_up_to_iso_matches_brute_force(n, max_arrows, max_degree):
    assert quivers_up_to_iso(n, max_arrows, max_degree) == \
        _quivers_up_to_iso_by_brute_force(n, max_arrows, max_degree)


def test_quivers_up_to_iso_class_counts():
    # criterion 05 pins its own sweep, 5 and 6 vertices included
    assert [len(quivers_up_to_iso(n, max_arrows=7)) for n in range(1, 5)] \
        == [1, 20, 298, 2215]
    assert [len(quivers_up_to_iso(n, max_degree=2)) for n in range(1, 6)] \
        == [1, 6, 28, 173, 1280]


# (vertices, arrow bound) -> classes up to relabeling.  Criterion 05 sweeps
# every class with at most 7 arrows on n <= 5 vertices and with at most 6
# on 6 vertices: every 6-vertex quiver whose underlying graph is a tree or
# has exactly one cycle, and the disconnected ones with as few arrows.
_SWEEP05 = {(1, 7): 1, (2, 7): 20, (3, 7): 298, (4, 7): 2215, (5, 7): 8130,
            (6, 6): 3744}


def test_criterion_05_adachi_cross_validation():
    start = time.monotonic()
    disagreements = 0
    checked = 0
    for (n, max_arrows), classes in _SWEEP05.items():
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        reps = quivers_up_to_iso(n, max_arrows=max_arrows)
        if len(reps) != classes:
            disagreements += 1
            print(f"  {len(reps)} classes on {n} vertices, not {classes}")
        for counts in reps:
            q = quiver_from_cells(n, cells, counts)
            w1 = naive_minimal_bad_single_subquiver(q)
            w2 = minimal_bad_single_subquiver(q)
            checked += 1
            if w1 != w2:
                disagreements += 1
                if disagreements <= 3:
                    print("  disagreement on", counts, w1, w2)
    rng = seeded(101)
    random_checked = 0
    while random_checked < 200:
        pres = random_quiver(rng, max_vertices=12)
        if pres.quiver.has_loop():
            continue
        q = pres.quiver
        w1 = naive_minimal_bad_single_subquiver(q)
        w2 = minimal_bad_single_subquiver(q)
        random_checked += 1
        if w1 != w2:
            disagreements += 1
    elapsed = time.monotonic() - start
    report(5, f"separated-criterion search agrees with the brute sweep on "
           f"all {checked} classes "
           f"up to relabeling (n <= 5 with <= 7 arrows, n = 6 with <= 6) "
           f"and {random_checked} random quivers "
           f"({elapsed:.1f}s)", disagreements == 0)


def _has_undirected_cycle(ssq):
    nodes = {v for v, _ in ssq.vertices}
    parent = {x: x for x in ssq.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, tgt, _ in ssq.arrows:
        a, b = find(src), find(tgt)
        if a == b:
            return True
        parent[a] = b
    del nodes
    return False


def test_criterion_06_cycle_witnesses():
    ok = True
    for n in range(2, 7):
        pres = cycle_presentation(n)
        v = classify_self_tensor(pres)
        ok &= v.status == "infinite"
        from quivertau.sepgraph import cycle_witness
        w = cycle_witness(pres)
        ambient = tensor_product(rad_square_quotient(pres),
                                 rad_square_quotient(pres)).quiver
        ok &= is_single_subquiver(ambient, w)
        ok &= _has_undirected_cycle(w)
    report(6, "cycle witnesses valid and cyclic for cycle lengths 2..6", ok)


def test_criterion_07_enveloping():
    ok = True
    for n in range(1, 7):
        ok &= classify_enveloping(C(f"N({n})")).status == "finite"
    for cat_id in ("A(3,++)", "A(3,+-)", "B1"):
        ok &= classify_enveloping(C(cat_id)).status == "infinite"
    for eps in itertools.product("+-", repeat=3):
        ok &= classify_enveloping(
            C(f"D(4,{''.join(eps)})")).status == "infinite"
    report(7, "enveloping finite exactly for radical-square-zero lines", ok)


_DIM_UNIVERSE = ("N(2)", "N(3)", "N(4)", "A(2,+)", "A(3,+-)", "A(3,++)",
                 "A(4,-+-)", "B1", "L42", "L43square", "LNak4",
                 "B5_1", "B5_2", "B5_3", "B5_4")


def test_criterion_08_dimension_properties():
    rng = seeded(55)
    ok = True
    for _ in range(50):
        a_id = _DIM_UNIVERSE[rng.randrange(len(_DIM_UNIVERSE))]
        b_id = _DIM_UNIVERSE[rng.randrange(len(_DIM_UNIVERSE))]
        pa, pb = C(a_id), C(b_id)
        t = tensor_product(pa, pb)
        ok &= dimension_table(t).total == \
            dimension_table(pa).total * dimension_table(pb).total
        if not ok:
            print("  multiplicativity failed:", a_id, b_id)
            break
    for cat_id in _DIM_UNIVERSE:
        pres = C(cat_id)
        ok &= dimension_table(opposite(pres)).total == \
            dimension_table(pres).total
        base = dimension_table(pres).total
        for v in pres.quiver.vertices:
            ok &= dimension_table(
                quotient(pres, killed_vertices=(v,))).total <= base
        for a in pres.quiver.arrows:
            ok &= dimension_table(
                quotient(pres, killed_arrows=(a.name,))).total <= base
    report(8, "dimension multiplicativity on 50 random pairs; opposite "
           "and quotient monotonicity exact", ok)


_CORPUS9 = ("N(1)", "N(3)", "N(4)", "N(5)", "A(2,+)", "A(3,+-)", "A(3,++)",
            "A(4,+-+)", "A(4,+++)", "B1", "L42", "B5_1",
            "B5_2", "B5_3", "B5_4", "LNak4", "D(4,+++)", "D(5,++-+)")

_QUOTIENT_CHILDREN = {
    "B5_1": ("B1", "A(3,+-)"),
    "B5_2": ("B1", "A(3,+-)"),
    "B5_3": ("B1",),
    "B5_4": ("A(4,-+-)",),
    "B1": ("A(3,+-)", "A(2,+)"),
    "LNak4": ("A(3,++)", "N(3)", "A(2,+)"),
    "N(5)": ("N(4)", "N(3)"),
    "N(4)": ("N(3)",),
    "A(4,+++)": ("A(3,++)",),
    "D(4,+++)": ("A(3,++)", "A(3,+-)"),
}


def test_criterion_09_symmetry_and_soundness():
    ok = True
    statuses = {}
    for a_id, b_id in itertools.combinations_with_replacement(_CORPUS9, 2):
        v1 = classify_tensor(C(a_id), C(b_id))
        v2 = classify_tensor(C(b_id), C(a_id))
        v3 = classify_tensor(opposite(C(a_id)), opposite(C(b_id)))
        same = v1.status == v2.status == v3.status
        if not same:
            print("  symmetry violated:", a_id, b_id,
                  v1.status, v2.status, v3.status)
        ok &= same
        statuses[(a_id, b_id)] = v1.status
        statuses[(b_id, a_id)] = v1.status
    def status_of(a_id, b_id):
        if (a_id, b_id) not in statuses:
            statuses[(a_id, b_id)] = classify_tensor(C(a_id),
                                                     C(b_id)).status
        return statuses[(a_id, b_id)]

    # quotient soundness: finite parents never have infinite children
    for parent_id, children in _QUOTIENT_CHILDREN.items():
        for child_id in children:
            assert has_quotient(C(parent_id), C(child_id)) is not None, \
                (parent_id, child_id)
            for a_id in _CORPUS9:
                if status_of(a_id, parent_id) == "finite":
                    sound = status_of(a_id, child_id) != "infinite"
                    if not sound:
                        print("  quotient soundness violated:",
                              a_id, parent_id, child_id)
                    ok &= sound
    report(9, "swap and opposite symmetry plus quotient soundness over "
           f"{len(_CORPUS9)} catalog algebras", ok)


def _is_tree_quiver(q):
    simple_pairs = {frozenset((a.source, a.target)) for a in q.arrows}
    return (q.is_connected() and q.first_parallel_pair() is None
            and not q.has_loop()
            and len(q.arrows) == len(simple_pairs) == len(q.vertices) - 1)


def test_criterion_10_bands_match_separated_criterion():
    """Bands certify representation-infiniteness; the separated criterion
    decides the finiteness notion this tool classifies.  The two coincide
    exactly on simply connected inputs (tree quivers, for monomial
    presentations); off that class only the implication
    criterion-infinite => band holds, and a 5-vertex quiver with a band
    but only Dynkin single subquivers exists."""
    start = time.monotonic()
    disagreements = 0
    checked_equiv = 0
    checked_impl = 0
    for n in range(1, 6):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for counts in quivers_up_to_iso(n, max_degree=2):
            q = quiver_from_cells(n, cells, counts)
            if not q.is_acyclic():
                # the string machinery works over path bases and rejects
                # oriented cycles by contract
                continue
            pres = rad_square_quotient(Presentation(q, ()))
            band = band_search(pres, length_bound=4 * n)
            bad = minimal_bad_single_subquiver(q)
            if _is_tree_quiver(q):
                checked_equiv += 1
                if (band is not None) != (bad is not None):
                    disagreements += 1
                    if disagreements <= 3:
                        print("  equivalence failed on", counts, band, bad)
            else:
                checked_impl += 1
                if bad is not None and band is None:
                    disagreements += 1
                    if disagreements <= 3:
                        print("  implication failed on", counts, bad)
    elapsed = time.monotonic() - start
    report(10, f"bands match the separated criterion on {checked_equiv} "
           f"simply connected string quivers; criterion-infinite implies a "
           f"band on {checked_impl} further ones ({elapsed:.1f}s)",
           disagreements == 0)
