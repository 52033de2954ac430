"""Named algebras, witness frames, isomorphism and quotient search.

The catalog stores the small bound quiver algebras the classifier needs as
obstructions or finite cases, plus witness frames: marked vertex sets
inside specific tensor products whose induced quotients certify infinite
verdicts.  Frame type labels are recorded data; the structural parts of a
frame are re-verified, the labels are not re-derived.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .presentation import (
    Arrow,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    SizeLimitError,
    all_paths,
    quotient,
    surviving_relations,
    validate_presentation,
)
from .sepgraph import GraphType, classify_graph, euclidean_size, underlying_graph
from .tensor import tensor_product, tensor_vertex


class UnknownIdError(QuivertauError):
    pass


class BadParameterError(QuivertauError):
    pass


class UnknownFrameError(QuivertauError):
    pass


class MalformedFrameError(QuivertauError):
    pass


def _line_quiver(n, eps, arrow_prefix="a"):
    if len(eps) != n - 1 or any(c not in "+-" for c in eps):
        raise BadParameterError(f"orientation {eps!r} needs length {n - 1}")
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i, c in enumerate(eps, start=1):
        if c == "+":
            arrows.append(Arrow(f"{arrow_prefix}{i}", str(i), str(i + 1)))
        else:
            arrows.append(Arrow(f"{arrow_prefix}{i}", str(i + 1), str(i)))
    return Quiver(vertices, tuple(arrows))


def _n_algebra(n):
    if n < 1:
        raise BadParameterError("N(n) needs n >= 1")
    q = _line_quiver(n, "+" * (n - 1))
    rels = tuple(Relation(((Fraction(1), (f"a{i}", f"a{i+1}")),))
                 for i in range(1, n - 1))
    return Presentation(q, rels)


def _a_algebra(n, eps):
    if n < 1:
        raise BadParameterError("A(n,eps) needs n >= 1")
    return Presentation(_line_quiver(n, eps), ())


def _d_algebra(n, eps):
    if n < 4:
        raise BadParameterError("D(n,eps) needs n >= 4")
    if len(eps) != n - 1 or any(c not in "+-" for c in eps):
        raise BadParameterError(f"orientation {eps!r} needs length {n - 1}")
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = [("1", "3"), ("2", "3")] + [(str(i), str(i + 1))
                                        for i in range(3, n)]
    arrows = []
    for i, ((u, v), c) in enumerate(zip(edges, eps), start=1):
        if c == "+":
            arrows.append(Arrow(f"a{i}", u, v))
        else:
            arrows.append(Arrow(f"a{i}", v, u))
    return Presentation(Quiver(vertices, tuple(arrows)), ())


def _mono(*paths):
    return tuple(Relation(((Fraction(1), tuple(p.split("."))),))
                 for p in paths)


def _fixed_catalog():
    out = {}

    out["B1"] = Presentation(
        Quiver(("1", "2", "3", "4"),
               (Arrow("α", "1", "2"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"))),
        _mono("γ.β"))

    out["L42"] = Presentation(
        Quiver(("1", "2", "3", "4"),
               (Arrow("α", "1", "3"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"))),
        _mono("α.β", "γ.β"))

    out["L43square"] = Presentation(
        Quiver(("1", "2", "3", "4"),
               (Arrow("α", "1", "2"), Arrow("γ", "1", "3"),
                Arrow("β", "2", "4"), Arrow("δ", "3", "4"))),
        _mono("α.β", "γ.δ"))

    out["B5_1"] = Presentation(
        Quiver(("1", "2", "3", "4", "5"),
               (Arrow("α", "1", "2"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"), Arrow("δ", "5", "4"))),
        _mono("δ.γ", "γ.β"))

    out["B5_2"] = Presentation(
        Quiver(("1", "2", "3", "4", "5"),
               (Arrow("α", "1", "2"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"), Arrow("δ", "4", "5"))),
        _mono("γ.β"))

    out["B5_3"] = Presentation(
        Quiver(("1", "2", "3", "4", "5"),
               (Arrow("α", "1", "2"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"), Arrow("δ", "5", "1"))),
        _mono("δ.α", "γ.β"))

    out["B5_4"] = Presentation(
        Quiver(("1", "2", "3", "4", "5"),
               (Arrow("α", "1", "2"), Arrow("β", "3", "2"),
                Arrow("γ", "4", "3"), Arrow("δ", "1", "5"))),
        _mono("γ.β"))

    out["LNak4"] = Presentation(
        Quiver(("1", "2", "3", "4"),
               (Arrow("α", "1", "2"), Arrow("β", "2", "3"),
                Arrow("γ", "3", "4"))),
        _mono("α.β.γ"))

    return out


_FIXED = _fixed_catalog()
_N_RE = re.compile(r"^N\((\d+)\)$")
_A_RE = re.compile(r"^A\((\d+),([+-]*)\)$")
_D_RE = re.compile(r"^D\((\d+),([+-]*)\)$")


def catalog_get(cat_id):
    """Presentation stored under a catalog id such as N(3) or A(4,+-+)."""
    if cat_id in _FIXED:
        return _FIXED[cat_id]
    m = _N_RE.match(cat_id)
    if m:
        return _n_algebra(int(m.group(1)))
    m = _A_RE.match(cat_id)
    if m:
        return _a_algebra(int(m.group(1)), m.group(2))
    m = _D_RE.match(cat_id)
    if m:
        return _d_algebra(int(m.group(1)), m.group(2))
    raise UnknownIdError(cat_id)


def catalog_ids():
    """Concrete stored ids plus the parameterized family patterns."""
    return tuple(sorted(_FIXED)) + ("N(n)", "A(n,eps)", "D(n,eps)")


# ---------------------------------------------------------------------------
# quiver isomorphism with ideal transport


def _vertex_signatures(vertices, mult):
    """Per vertex: sorted out- and in-multiplicities, from the arrow
    counts per (source, target)."""
    outs = {v: [] for v in vertices}
    ins = {v: [] for v in vertices}
    for (s, t), m in mult.items():
        outs[s].append(m)
        ins[t].append(m)
    return {v: (tuple(sorted(outs[v])), tuple(sorted(ins[v])))
            for v in vertices}


def _vertex_maps(q1, q2):
    """All quiver-compatible vertex bijections, in deterministic order."""
    if len(q1.vertices) != len(q2.vertices) or \
            len(q1.arrows) != len(q2.arrows):
        return
    m1, m2 = q1.index.mult, q2.index.mult
    sig1 = _vertex_signatures(q1.vertices, m1)
    sig2 = _vertex_signatures(q2.vertices, m2)
    order = list(q1.vertices)
    used = set()
    vmap = {}

    def backtrack(idx):
        if idx == len(order):
            yield dict(vmap)
            return
        u = order[idx]
        for w in q2.vertices:
            if w in used or sig1[u] != sig2[w]:
                continue
            ok = True
            for prev in order[:idx]:
                pw = vmap[prev]
                if m1.get((u, prev), 0) != m2.get((w, pw), 0) or \
                        m1.get((prev, u), 0) != m2.get((pw, w), 0) or \
                        m1.get((u, u), 0) != m2.get((w, w), 0):
                    ok = False
                    break
            if not ok:
                continue
            vmap[u] = w
            used.add(w)
            yield from backtrack(idx + 1)
            del vmap[u]
            used.discard(w)

    yield from backtrack(0)


def _arrow_maps(q1, q2, vmap):
    """All arrow bijections compatible with a vertex bijection.

    Parallel arrows are matched by permutation, the first (source, target)
    pair varying slowest; permutations are generated one at a time, so the
    first map costs nothing however many parallel arrows there are."""

    def names(quiver, s, t):
        return [a.name for a in quiver.index.out[s] if a.target == t]

    amap = {}
    pools = []  # pairs with parallel arrows; the others have one bijection
    for s, t in sorted(q1.index.mult):
        names1 = names(q1, s, t)
        names2 = names(q2, vmap[s], vmap[t])
        if len(names1) != len(names2):
            return
        if len(names1) == 1:
            amap[names1[0]] = names2[0]
        else:
            pools.append((names1, names2))

    def extend(k):
        if k == len(pools):
            yield dict(amap)
            return
        names1, names2 = pools[k]
        for perm in itertools.permutations(names2):
            amap.update(zip(names1, perm))
            yield from extend(k + 1)

    yield from extend(0)


def _transported_relation_vectors(pres, amap):
    """Relation vectors of pres with arrows renamed along amap."""
    out = []
    for rel in pres.relations:
        vec = {}
        for coeff, path in rel.terms:
            key = tuple(amap[n] for n in path)
            vec[key] = vec.get(key, Fraction(0)) + coeff
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out.append(vec)
    return out


def _ideals_equal(pres1, amap, pres2):
    """Does transporting pres1's ideal along amap give exactly pres2's?"""
    ideal2 = pres2.ideal
    vectors = _transported_relation_vectors(pres1, amap)
    if not all(ideal2.contains(vec) for vec in vectors):
        return False
    # equality needs matching ranks pairwise
    transported = Presentation(
        pres2.quiver,
        tuple(Relation(tuple((c, p) for p, c in sorted(v.items())))
              for v in vectors))
    # the transported ideal inside pres2's quiver
    ideal1 = transported.ideal
    return all(ideal1.rank(pair) == ideal2.rank(pair)
               for pair in all_paths(pres2.quiver))


@dataclass(frozen=True)
class Isomorphism:
    vertex_map: tuple[tuple[str, str], ...]
    arrow_map: tuple[tuple[str, str], ...]

    def to_payload(self):
        return {"vertices": dict(self.vertex_map),
                "arrows": dict(self.arrow_map)}


def is_iso(p1, p2, size_limit=20):
    """Quiver isomorphism carrying the first ideal onto the second, if any."""
    if len(p1.quiver.vertices) > size_limit or \
            len(p2.quiver.vertices) > size_limit:
        raise SizeLimitError("isomorphism search limit exceeded")
    for vmap in _vertex_maps(p1.quiver, p2.quiver):
        for amap in _arrow_maps(p1.quiver, p2.quiver, vmap):
            if _ideals_equal(p1, amap, p2):
                return Isomorphism(tuple(sorted(vmap.items())),
                                   tuple(sorted(amap.items())))
    return None


# ---------------------------------------------------------------------------
# quotient witness search


@dataclass(frozen=True)
class QuotientWitness:
    killed_vertices: tuple[str, ...]
    killed_arrows: tuple[str, ...]
    vertex_map: tuple[tuple[str, str], ...]
    arrow_map: tuple[tuple[str, str], ...]

    def to_payload(self):
        return {
            "kind": "quotient",
            "killed_vertices": list(self.killed_vertices),
            "killed_arrows": list(self.killed_arrows),
            "vertex_map": dict(self.vertex_map),
            "arrow_map": dict(self.arrow_map),
        }


def has_quotient(pres, target, size_limit=16):
    """First witness that ``target`` is a quotient of ``pres``, or None.

    The search kills vertex sets, then arrow sets among the surviving
    arrows, then tries vertex maps of the surviving subquiver onto the
    target quiver, then arrow maps over each; every level runs in
    lexicographic combination order over declaration order, and the first
    map whose induced relations land inside the target ideal is the
    witness.  Containment suffices because additional admissible
    relations may always be imposed.

    Two prunes drop no witness.  When the target quiver is connected, only
    kept vertex sets inducing a connected subquiver are tried: killing
    arrows cannot reconnect one.  Each arrow set is first compared with
    the target by the multiset of per-vertex degree signatures (sorted
    out- and in-multiplicities): a vertex map must send every vertex to
    one with the same signature, so ``_vertex_maps`` yields nothing when
    the multisets differ.  Only arrow sets that pass get a
    sub-presentation, with the term filter of ``quotient``: a relation
    term dies if and only if it uses a dead arrow.  Candidate maps are
    checked against ``target.ideal``, which the target builds on first use
    and keeps, so repeated searches for one target share it.
    """
    if len(pres.quiver.vertices) > size_limit:
        raise SizeLimitError("quotient search limit exceeded")
    q, tq = pres.quiver, target.quiver
    if len(q.vertices) < len(tq.vertices):
        return None
    wanted = sorted(_vertex_signatures(tq.vertices, tq.index.mult).values())
    pos = {v: i for i, v in enumerate(q.vertices)}
    succ = [[pos[a.target] for a in q.index.out[v]] for v in q.vertices]
    for kept in _kept_vertex_sets(q, len(tq.vertices), tq.is_connected()):
        mask = 0
        for i in kept:
            mask |= 1 << i
        # arrows among the kept vertices beyond the target's: those to kill
        na = sum(mask >> j & 1 for i in kept for j in succ[i]) \
            - len(tq.arrows)
        if na < 0:
            continue
        vertices = tuple(q.vertices[i] for i in kept)
        killed_vs = tuple(v for i, v in enumerate(q.vertices)
                          if not mask >> i & 1)
        gone = set(killed_vs)
        arrows = tuple(a for a in q.arrows
                       if a.source not in gone and a.target not in gone)
        ends = [(a.source, a.target) for a in arrows]
        mult = Counter(ends)
        for killed in itertools.combinations(range(len(arrows)), na):
            kept_mult = dict(mult)
            for i in killed:
                kept_mult[ends[i]] -= 1
            kept_mult = {st: m for st, m in kept_mult.items() if m}
            if sorted(_vertex_signatures(vertices, kept_mult).values()) \
                    != wanted:
                continue
            killed_as = tuple(arrows[i].name for i in killed)
            dead = {a.name for a in q.arrows
                    if a.source in gone or a.target in gone}
            dead.update(killed_as)
            sub = Presentation(
                Quiver(vertices,
                       tuple(a for a in arrows if a.name not in dead)),
                surviving_relations(pres.relations, dead))
            for vmap in _vertex_maps(sub.quiver, tq):
                for amap in _arrow_maps(sub.quiver, tq, vmap):
                    vectors = _transported_relation_vectors(sub, amap)
                    if all(target.ideal.contains(vec) for vec in vectors):
                        return QuotientWitness(
                            killed_vs, killed_as,
                            tuple(sorted(vmap.items())),
                            tuple(sorted(amap.items())))
    return None


def _kept_vertex_sets(quiver, k, connected):
    """Position tuples of the k-vertex sets a quotient search keeps, in
    reverse lexicographic order: the complements of the killed sets taken
    in lexicographic order.  With ``connected`` only the sets that induce
    a connected subquiver, grown one neighbour at a time as bit masks."""
    n = len(quiver.vertices)
    if not connected or k == 0:
        return reversed(list(itertools.combinations(range(n), k)))
    pos = {v: i for i, v in enumerate(quiver.vertices)}
    adjacent = [0] * n
    for a in quiver.arrows:
        s, t = pos[a.source], pos[a.target]
        adjacent[s] |= 1 << t
        adjacent[t] |= 1 << s
    # each connected set's mask -> the mask of its neighbours outside it
    level = {1 << i: adjacent[i] & ~(1 << i) for i in range(n)}
    for _ in range(k - 1):
        grown = {}
        for mask, border in level.items():
            rest = border
            while rest:
                low = rest & -rest
                rest ^= low
                bigger = mask | low
                if bigger not in grown:
                    grown[bigger] = (border | adjacent[low.bit_length() - 1]) \
                        & ~bigger
        level = grown
    return sorted((tuple(i for i in range(n) if mask >> i & 1)
                   for mask in level), reverse=True)


def verify_quotient_witness(pres, target, witness):
    """Re-run the containment check for a stored quotient witness."""
    sub = quotient(pres, witness.killed_vertices, witness.killed_arrows)
    vmap = dict(witness.vertex_map)
    amap = dict(witness.arrow_map)
    if sorted(vmap) != sorted(sub.quiver.vertices):
        return False
    if sorted(vmap.values()) != sorted(target.quiver.vertices):
        return False
    for a in sub.quiver.arrows:
        if a.name not in amap:
            return False
        b = target.quiver.index.by_name.get(amap[a.name])
        if b is None or vmap[a.source] != b.source or \
                vmap[a.target] != b.target:
            return False
    vectors = _transported_relation_vectors(sub, amap)
    return all(target.ideal.contains(vec) for vec in vectors)


# ---------------------------------------------------------------------------
# witness frames


@dataclass(frozen=True)
class WitnessFrame:
    frame_id: str
    factors: tuple[str, str]  # catalog ids; ambient = tensor of the two
    marked: tuple[str, ...]
    claimed_type: GraphType
    claim_kind: str  # hereditary-surjection | concealed-quotient
    extra_killed_arrows: tuple[str, ...] = ()
    note: str = ""

    def ambient(self):
        return tensor_product(catalog_get(self.factors[0]),
                              catalog_get(self.factors[1]))

    def to_payload(self):
        return {
            "kind": "frame",
            "frame": self.frame_id,
            "factors": list(self.factors),
            "claimed_type": self.claimed_type.label(),
            "claim_kind": self.claim_kind,
            "marked": list(self.marked),
        }


def _marks(pairs):
    return tuple(tensor_vertex(str(u), str(v)) for u, v in pairs)


_FRAMES = {}


def _add_frame(frame):
    _FRAMES[frame.frame_id] = frame


_add_frame(WitnessFrame(
    "a3a3:++,++", ("A(3,++)", "A(3,++)"),
    _marks([(2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]),
    GraphType("D~", 4), "concealed-quotient",
    note="3x3 commutative grid, both lines linearly oriented"))

_add_frame(WitnessFrame(
    "a3a3:++,-+", ("A(3,++)", "A(3,-+)"),
    _marks([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]),
    GraphType("E~", 6), "concealed-quotient",
    note="3x3 commutative grid, second line with a source in the middle"))

_add_frame(WitnessFrame(
    "a3a3:+-,+-", ("A(3,+-)", "A(3,+-)"),
    _marks([(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]),
    GraphType("D~", 4), "concealed-quotient",
    note="3x3 commutative grid, both lines with a sink in the middle"))

_add_frame(WitnessFrame(
    "a3a3:+-,-+", ("A(3,+-)", "A(3,-+)"),
    _marks([(1, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (3, 3)]),
    GraphType("D~", 6), "concealed-quotient",
    note="3x3 commutative grid, sink against source"))

_add_frame(WitnessFrame(
    "a4n3:+-+", ("A(4,+-+)", "N(3)"),
    _marks([(2, 1), (1, 2), (2, 2), (3, 2), (4, 2), (3, 3)]),
    GraphType("D~", 5), "hereditary-surjection",
    note="4-line against the 3-vertex radical-square-zero line; the marked "
         "set induces a hereditary quotient"))

_add_frame(WitnessFrame(
    "a4n3:-++", ("A(4,-++)", "N(3)"),
    _marks([(1, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]),
    GraphType("E~", 7), "concealed-quotient",
    note="4-line with a source at position 2 against the 3-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "a4n3:++-", ("A(4,++-)", "N(3)"),
    _marks([(3, 1), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)]),
    GraphType("D~", 5), "concealed-quotient",
    note="4-line with a sink at position 3 against the 3-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "n3-L42", ("L42", "N(3)"),
    _marks([(3, 1), (2, 1), (1, 2), (3, 2), (4, 2), (1, 3), (4, 3)]),
    GraphType("E~", 6), "concealed-quotient",
    note="the one-sink star with two zero compositions, tensored with the "
         "3-vertex radical-square-zero line"))

_add_frame(WitnessFrame(
    "n3-square", ("L43square", "N(3)"),
    _marks([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
    GraphType("A~", 6), "concealed-quotient",
    note="the monomial square tensored with the 3-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "n4-B5_1", ("B5_1", "N(4)"),
    _marks([(2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (3, 3), (4, 3), (4, 4),
            (5, 4)]),
    GraphType("E~", 8), "concealed-quotient",
    note="5-vertex line with two zero compositions against the 4-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "n3-B5_2", ("B5_2", "N(3)"),
    _marks([(2, 1), (1, 2), (2, 2), (3, 2), (5, 2), (1, 3), (3, 3), (4, 3),
            (5, 3)]),
    GraphType("E~", 8), "concealed-quotient",
    note="5-vertex line with one zero composition against the 3-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "n3-B5_3", ("B5_3", "N(3)"),
    _marks([(2, 1), (1, 2), (2, 2), (3, 2), (5, 3), (1, 3), (3, 3), (4, 3)]),
    GraphType("E~", 7), "concealed-quotient",
    note="5-vertex line with two zero compositions against the 3-vertex "
         "radical-square-zero line"))

_add_frame(WitnessFrame(
    "n4-LNak4", ("LNak4", "N(4)"),
    _marks([(4, 1), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (1, 4)]),
    GraphType("E~", 7), "concealed-quotient",
    note="4-vertex line with zero length-3 path against the 4-vertex "
         "radical-square-zero line"))


def frame_ids():
    return tuple(sorted(_FRAMES))


def witness_frame(frame_id):
    if frame_id not in _FRAMES:
        raise UnknownFrameError(frame_id)
    return _FRAMES[frame_id]


@dataclass(frozen=True)
class WitnessReport:
    frame_id: str
    quotient_ok: bool
    connected: bool
    marked_count: int
    expected_count: int
    count_anomaly: bool
    hereditary_ok: bool | None
    induced_graph: str | None
    ok: bool
    notes: tuple[str, ...]

    def to_payload(self):
        return {
            "frame": self.frame_id,
            "quotient_ok": self.quotient_ok,
            "connected": self.connected,
            "marked_count": self.marked_count,
            "expected_count": self.expected_count,
            "count_anomaly": self.count_anomaly,
            "hereditary_ok": self.hereditary_ok,
            "induced_graph": self.induced_graph,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def verify_witness(frame):
    """Structural verification of a stored frame.

    Checks that the marked set induces a well-formed connected quotient of
    the ambient tensor presentation; hereditary frames additionally verify
    a zero induced ideal and the exact claimed diagram, concealed frames
    verify the marked count against the claimed type and report anomalies.
    """
    ambient = frame.ambient()
    vset = set(ambient.quiver.vertices)
    marked = set(frame.marked)
    if not marked <= vset:
        raise MalformedFrameError(f"{frame.frame_id}: marked vertices "
                                  "missing from the ambient quiver")
    killed = tuple(v for v in ambient.quiver.vertices if v not in marked)
    notes = []
    try:
        induced = quotient(ambient, killed, frame.extra_killed_arrows)
        violations = [v for v in validate_presentation(induced)
                      if v.code != "Disconnected"]
        quotient_ok = not violations
    except QuivertauError as exc:
        notes.append(f"quotient failed: {exc}")
        induced = None
        quotient_ok = False
    connected = bool(induced) and induced.quiver.is_connected()
    expected = euclidean_size(frame.claimed_type)
    count_anomaly = len(marked) != expected
    if count_anomaly:
        notes.append("count-anomaly (paper figure)")
    hereditary_ok = None
    induced_graph = None
    if induced is not None:
        report = classify_graph(underlying_graph(induced.quiver))
        if len(report.components) == 1:
            induced_graph = report.components[0][1].label()
    if frame.claim_kind == "hereditary-surjection" and induced is not None:
        hereditary_ok = (len(induced.relations) == 0
                         and induced_graph == frame.claimed_type.label()
                         and not count_anomaly)
    if frame.claim_kind == "hereditary-surjection":
        ok = quotient_ok and connected and bool(hereditary_ok)
    else:
        ok = quotient_ok and connected
    return WitnessReport(
        frame_id=frame.frame_id,
        quotient_ok=quotient_ok,
        connected=connected,
        marked_count=len(marked),
        expected_count=expected,
        count_anomaly=count_anomaly,
        hereditary_ok=hereditary_ok,
        induced_graph=induced_graph,
        ok=ok,
        notes=tuple(notes),
    )
