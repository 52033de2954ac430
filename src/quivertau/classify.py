"""The finiteness decision engine with certificates.

Rules are evaluated in a fixed order; the first applicable one decides and
the full consultation trace is kept on the certificate.  Open is a
first-class verdict: it means no implemented rule applies, and the trace
names the nearest rule consulted.
"""

from __future__ import annotations

from . import verdict as vd
from .catalog import catalog_get, has_quotient, witness_frame
from .presentation import (
    CyclicQuiverError,
    InvariantViolationError,
    NOT_SIMPLY_CONNECTED,
    NotSimplyConnectedError,
    SizeLimitError,
    find_oriented_cycle,
    homology_rank,
    line_orientation,
    opposite,
    require_valid,
    structural_profile,
)
from .sepgraph import (
    adachi_decide,
    classify_graph,
    cycle_witness,
    separated_quiver,
    underlying_graph,
)


# Every catalog target a rule searches for, built once so that each keeps
# its ideal across requests: catalog_get rebuilds parameterized ids.
_TARGETS = {cat_id: catalog_get(cat_id) for cat_id in (
    "A(3,++)", "A(3,+-)", "A(3,-+)", "N(3)", "LNak4", "B1",
    "L42", "L43square", "B5_1", "B5_2", "B5_3", "A(4,-+-)")}


def _gate(pres, who):
    require_valid(pres)
    if not pres.quiver.is_acyclic():
        raise CyclicQuiverError(
            f"{who}: the quiver must be acyclic (tensor squares of cyclic "
            "quivers go through classify_self_tensor)")
    rank, status = homology_rank(pres)
    if status == NOT_SIMPLY_CONNECTED:
        raise NotSimplyConnectedError(
            f"{who}: homology proxy rank {rank} > 0")


def flip_orientation(eps):
    return "".join("-" if c == "+" else "+" for c in eps)


def orientation_class(eps):
    """Canonical representative under relabeling the line end to end."""
    return min(eps, flip_orientation(eps)[::-1])


def opposite_class(eps_class):
    return orientation_class(flip_orientation(eps_class))


def line_class(quiver):
    """Canonical orientation class of a path-shaped quiver, else None:
    ``orientation_class`` of its ``line_orientation`` word."""
    word = line_orientation(quiver)
    return None if word is None else orientation_class(word)


_A3_FRAME_KEYS = {
    ("++", "++"): "a3a3:++,++",
    ("++", "-+"): "a3a3:++,-+",
    ("+-", "+-"): "a3a3:+-,+-",
    ("+-", "-+"): "a3a3:+-,-+",
}

_A4_FRAME_KEYS = {
    "+-+": "a4n3:+-+",
    "-++": "a4n3:-++",
    "++-": "a4n3:++-",
}


def _a3a3_frame(ca, cb):
    """Frame id for a pair of 3-line orientation classes, plus the bridge
    (swap of factors and/or passing to opposites) that reaches it.  Each of
    the nine ordered pairs of the classes ++, +-, -+ reaches a frame."""
    candidates = (
        ((ca, cb), ""),
        ((cb, ca), "swap"),
        ((opposite_class(ca), opposite_class(cb)), "op"),
        ((opposite_class(cb), opposite_class(ca)), "op+swap"),
    )
    for key, bridge in candidates:
        if key in _A3_FRAME_KEYS:
            return _A3_FRAME_KEYS[key], bridge


def _witness_quotient(pres, cat_id):
    """``has_quotient`` onto a catalog target, for a witness only: None
    past the search's size limit, as the verdict it decorates holds
    whatever the search finds."""
    try:
        return has_quotient(pres, _TARGETS[cat_id])
    except SizeLimitError:
        return None


def _a3_quotient(pres):
    """The first A(3,ω) in the order ++, +-, -+ that is a quotient of pres,
    as (quotient witness, ω), or (None, None).  A(3,--) is A(3,++)
    relabeled, so its search would find nothing the ++ search missed."""
    for omega in ("++", "+-", "-+"):
        qw = _witness_quotient(pres, f"A(3,{omega})")
        if qw is not None:
            return qw, omega
    return None, None


def _rewrap(inner, trace_prefix, rule=None, statement=None):
    """Re-emit an inner verdict, optionally under a new rule and statement,
    with its trace behind ``trace_prefix``."""
    cert = inner.certificate
    return vd.verdict(
        inner.status, rule or cert.rule, statement or cert.statement,
        witness=cert.witness, trace=(*trace_prefix, *cert.trace))


def _quotient_payload(qw, target_id, source):
    payload = qw.to_payload()
    payload["target"] = target_id
    payload["of"] = source
    return payload


def _frame_payload(frame_id, bridge="", quotients=()):
    """quotients: (QuotientWitness, target catalog id, source tag) triples."""
    payload = witness_frame(frame_id).to_payload()
    if bridge:
        payload["bridge"] = bridge
    if quotients:
        payload["quotients"] = [_quotient_payload(*q) for q in quotients]
    return payload


def _is_rsz_line(profile):
    return profile.is_linear_nakayama and \
        bool(profile.is_radical_square_zero)


def _is_deep_line(profile):
    return profile.is_linear_nakayama and \
        profile.is_radical_square_zero is False


# ---------------------------------------------------------------------------
# single algebras


def classify_single(pres):
    """Finiteness of one simply connected presentation."""
    _gate(pres, "classify_single")
    prof = structural_profile(pres)
    trace = []
    if prof.is_hereditary:
        gtype = classify_graph(underlying_graph(pres.quiver)).components[0][1]
        if gtype.is_dynkin():
            return vd.verdict(
                vd.FINITE, "hereditary-dynkin",
                "a hereditary algebra is finite exactly when its underlying "
                "graph is Dynkin",
                trace=(*trace, f"hereditary-dynkin: graph {gtype.label()}"))
        return vd.verdict(
            vd.INFINITE, "hereditary-non-dynkin",
            "a hereditary algebra on a non-Dynkin graph is infinite",
            trace=(*trace, f"hereditary-non-dynkin: graph {gtype.label()}"))
    trace.append("hereditary: no")
    if prof.is_radical_square_zero:
        return _rewrap(adachi_decide(pres), trace,
                       rule="rad-square-zero-separated")
    trace.append("rad-square-zero: no")
    if prof.is_linear_nakayama:
        return vd.verdict(
            vd.FINITE, "nakayama-line",
            "an algebra on the linearly oriented line with admissible "
            "relations is representation-finite",
            trace=(*trace, "nakayama-line"))
    trace.append("nakayama-line: no")
    if prof.is_schurian is False:
        return vd.verdict(
            vd.INFINITE, "non-schurian",
            "a simply connected algebra with a two-dimensional pair "
            "subspace is infinite",
            trace=(*trace, "non-schurian"))
    trace.append("non-schurian: no")
    return vd.verdict(
        vd.OPEN, "single-open",
        "no implemented single-algebra rule applies",
        trace=(*trace, "single-open"))


# ---------------------------------------------------------------------------
# tensor products of two factors


def classify_tensor(pa, pb):
    """Finiteness of the tensor product of two simply connected factors."""
    _gate(pa, "classify_tensor[A]")
    _gate(pb, "classify_tensor[B]")
    trace = []

    # R1: a local factor changes nothing
    prof_a = structural_profile(pa)
    prof_b = structural_profile(pb)
    for local, other, name in ((prof_a, pb, "A"), (prof_b, pa, "B")):
        if local.is_local:
            return _rewrap(
                classify_single(other),
                (*trace, f"local-factor: {name} is local"),
                rule="local-factor",
                statement="a local factor preserves the finiteness of the "
                          "other factor")
    trace.append("local-factor: no")

    # R2: multiple arrows
    for pres, name in ((pa, "A"), (pb, "B")):
        pair = pres.quiver.first_parallel_pair()
        if pair is not None:
            earlier, later = pair
            return vd.verdict(
                vd.INFINITE, "multiple-arrows",
                "a factor whose quiver has parallel arrows makes the "
                "product infinite",
                witness={"kind": "structural", "factor": name,
                         "arrows": [earlier.name, later.name],
                         "from": later.source, "to": later.target},
                trace=(*trace, f"multiple-arrows: {name}"))
    trace.append("multiple-arrows: no")

    # R3: non-Schurian factor (the product is Schurian iff both are)
    for prof, pres, name in ((prof_a, pa, "A"), (prof_b, pb, "B")):
        if prof.is_schurian is False:
            vs = pres.quiver.vertices
            bad = next((i, j) for i in vs for j in vs
                       if len(pres.ideal.basis((i, j))) >= 2)
            return vd.verdict(
                vd.INFINITE, "non-schurian",
                "a non-Schurian factor makes the product non-Schurian, "
                "hence infinite",
                witness={"kind": "structural", "factor": name,
                         "pair": list(bad)},
                trace=(*trace, f"non-schurian: {name}"))
    trace.append("non-schurian: no")

    # R4: both hereditary
    if prof_a.is_hereditary and prof_b.is_hereditary:
        return _both_hereditary(pa, pb, trace)
    trace.append("hereditary-pair: not both hereditary")

    # R5: exactly one hereditary
    if prof_a.is_hereditary or prof_b.is_hereditary:
        if prof_a.is_hereditary:
            return _one_hereditary(pa, pb, prof_b, trace, swapped=False)
        return _one_hereditary(pb, pa, prof_a, trace, swapped=True)
    trace.append("one-hereditary: neither factor hereditary")

    # R6: both non-hereditary
    return _both_non_hereditary(pa, prof_a, pb, prof_b, trace)


def _both_hereditary(pa, pb, trace):
    ca = line_class(pa.quiver)
    cb = line_class(pb.quiver)
    na, nb = len(pa.quiver.vertices), len(pb.quiver.vertices)
    if ca is not None and cb is not None:
        finite = (na == 2 and nb <= 4) or (nb == 2 and na <= 4)
        if finite:
            return vd.verdict(
                vd.FINITE, "hereditary-pair",
                "a pair of path algebras is finite exactly when one is the "
                "2-line and the other a line on at most 4 vertices",
                trace=(*trace, f"hereditary-pair: lines {na} and {nb}"))
        witness = None
        if na == 3 and nb == 3:
            witness = _frame_payload(*_a3a3_frame(ca, cb))
        return vd.verdict(
            vd.INFINITE, "hereditary-pair",
            "a pair of path algebras is infinite unless one is the 2-line "
            "and the other a line on at most 4 vertices",
            witness=witness,
            trace=(*trace, f"hereditary-pair: lines {na} and {nb}"))
    return vd.verdict(
        vd.INFINITE, "hereditary-pair",
        "a hereditary pair with a branching factor is infinite",
        trace=(*trace, "hereditary-pair: non-line factor"))


def _one_hereditary(hered, other, other_prof, trace, swapped):
    """The hereditary factor against a non-hereditary one."""
    who = "B" if not swapped else "A"
    gtype = classify_graph(underlying_graph(hered.quiver)).components[0][1]
    n = len(hered.quiver.vertices)
    trace = [*trace, f"one-hereditary: graph {gtype.label()}, "
             f"non-hereditary factor {who}"]
    if gtype.tag == "A":
        if n == 2:
            return _two_line_branch(other, other_prof, trace)
        if n == 3:
            return _three_line_branch(hered, other, other_prof, trace)
        if n == 4:
            return _four_line_branch(hered, other, other_prof, trace)
        return vd.verdict(
            vd.INFINITE, "line5-factor",
            "a line on 5 or more vertices against any non-local factor is "
            "infinite",
            trace=(*trace, "line5-factor"))
    if gtype.tag in ("D", "E"):
        return vd.verdict(
            vd.INFINITE, "dynkin-de-factor",
            "a type-D or type-E path algebra against any non-local factor "
            "is infinite",
            trace=(*trace, "dynkin-de-factor"))
    return vd.verdict(
        vd.INFINITE, "hereditary-non-dynkin-factor",
        "a hereditary factor on a non-Dynkin tree is itself infinite",
        trace=(*trace, "hereditary-non-dynkin-factor"))


def _two_line_branch(other, other_prof, trace):
    if _is_rsz_line(other_prof):
        return vd.verdict(
            vd.FINITE, "line2-times-rad-square-zero-line",
            "the 2-line against a radical-square-zero line is "
            "representation-finite",
            trace=(*trace, "line2-times-rad-square-zero-line"))
    report = classify_graph(underlying_graph(
        separated_quiver(other.quiver)))
    bad = [(verts, t) for verts, t in report.components if t.tag != "A"]
    if bad:
        verts, t = bad[0]
        return vd.verdict(
            vd.INFINITE, "line2-separated-necessary",
            "for the 2-line the separated quiver of the other factor must "
            "be a union of type-A components",
            witness={"kind": "structural",
                     "component": list(verts), "type": t.label()},
            trace=(*trace, "line2-separated-necessary"))
    return vd.verdict(
        vd.OPEN, "line2-open",
        "the 2-line boundary beyond the separated-quiver condition relies "
        "on an external list and is not implemented",
        trace=(*trace, "line2-separated-necessary: passed", "line2-open"))


def _three_line_branch(hered, other, other_prof, trace):
    if _is_rsz_line(other_prof):
        return vd.verdict(
            vd.FINITE, "line3-times-rad-square-zero-line",
            "any 3-line against a radical-square-zero line is "
            "representation-finite",
            trace=(*trace, "line3-times-rad-square-zero-line"))
    witness = None
    ch = line_class(hered.quiver)
    qw, omega = _a3_quotient(other)
    if qw is not None:
        witness = _frame_payload(
            *_a3a3_frame(ch, orientation_class(omega)),
            quotients=((qw, f"A(3,{omega})", "non-hereditary"),))
    return vd.verdict(
        vd.INFINITE, "line3-factor",
        "a 3-line against a non-hereditary factor other than a "
        "radical-square-zero line is infinite",
        witness=witness,
        trace=(*trace, "line3-factor"))


def _four_line_branch(hered, other, other_prof, trace):
    witness = None
    ch = line_class(hered.quiver)
    frame_id = _A4_FRAME_KEYS.get(ch)
    if frame_id is not None:
        qw = _witness_quotient(other, "N(3)")
        if qw is not None:
            witness = _frame_payload(
                frame_id, quotients=((qw, "N(3)", "non-hereditary"),))
    return vd.verdict(
        vd.INFINITE, "line4-factor",
        "a 4-line against any non-hereditary factor is infinite",
        witness=witness,
        trace=(*trace, "line4-factor"))


def _kind(prof):
    if _is_rsz_line(prof):
        return "rsz-line"
    if _is_deep_line(prof):
        return "deep-line"
    return "non-nakayama"


_OBSTRUCTIONS_N3 = ("L42", "L43square", "B5_2", "B5_3", "A(4,-+-)")
_OBSTRUCTIONS_N4 = ("B5_1", "B5_2", "B5_3", "L42", "L43square", "A(4,-+-)")
_OBSTRUCTION_FRAMES = {
    "L42": "n3-L42",
    "L43square": "n3-square",
    "B5_1": "n4-B5_1",
    "B5_2": "n3-B5_2",
    "B5_3": "n3-B5_3",
    "A(4,-+-)": "a4n3:+-+",
}


def _obstruction_witness(pres, obstruction_ids, op=None):
    """First stored obstruction that is a quotient of pres or its opposite,
    as (catalog id, frame payload), or (None, None).  ``op`` is the
    opposite if the caller has built it; else it is built when first
    searched.  A search past its size limit finds none; the one rule that
    decides by the result runs it only after a search on the same factor
    stayed within the limit."""
    for cat_id in obstruction_ids:
        qw, where = _witness_quotient(pres, cat_id), ""
        if qw is None:
            if op is None:
                op = opposite(pres)
            qw, where = _witness_quotient(op, cat_id), "op"
        if qw is not None:
            return cat_id, _frame_payload(
                _OBSTRUCTION_FRAMES[cat_id], bridge=where,
                quotients=((qw, cat_id, where or "non-line"),))
    return None, None


def _both_non_hereditary(pa, prof_a, pb, prof_b, trace):
    ka, kb = _kind(prof_a), _kind(prof_b)
    trace = [*trace, f"non-hereditary-kinds: A={ka} B={kb}"]

    if ka == "non-nakayama" and kb == "non-nakayama":
        witness = None
        quots = []
        omegas = []
        for pres, tag in ((pa, "A"), (pb, "B")):
            qw, omega = _a3_quotient(pres)
            if qw is not None:
                quots.append((qw, f"A(3,{omega})", tag))
                omegas.append(orientation_class(omega))
        if len(omegas) == 2:
            witness = _frame_payload(*_a3a3_frame(*omegas),
                                     quotients=tuple(quots))
        return vd.verdict(
            vd.INFINITE, "both-non-nakayama",
            "two non-line simply connected factors are infinite",
            witness=witness,
            trace=(*trace, "both-non-nakayama"))

    if {ka, kb} == {"deep-line", "non-nakayama"} or \
            {ka, kb} == {"deep-line"}:
        rule = "both-nakayama-deep-radical" if ka == kb \
            else "nakayama-deep-radical-mixed"
        return vd.verdict(
            vd.INFINITE, rule,
            "a line factor with nonzero radical square against any "
            "non-hereditary factor is infinite",
            trace=(*trace, rule))

    if ka == "rsz-line" and kb == "rsz-line":
        return vd.verdict(
            vd.FINITE, "both-rad-square-zero-lines",
            "the tensor of two radical-square-zero lines is special "
            "biserial and representation-finite",
            trace=(*trace, "both-rad-square-zero-lines"))

    # normalize: A is the radical-square-zero line N(n)
    if ka == "rsz-line":
        nline, other, other_prof, other_kind = pa, pb, prof_b, kb
    else:
        nline, other, other_prof, other_kind = pb, pa, prof_a, ka
    n = len(nline.quiver.vertices)

    if other_kind == "deep-line":
        return _rsz_vs_deep_line(n, other, trace)
    return _rsz_vs_non_nakayama(n, other, other_prof, trace)


def _rsz_vs_deep_line(n, other, trace):
    if n >= 4:
        qw = has_quotient(other, _TARGETS["LNak4"])
        if qw is not None:
            return vd.verdict(
                vd.INFINITE, "rad-square-zero-line-vs-deep-line",
                "a radical-square-zero line on 4 or more vertices against "
                "a line with a zero length-3 path is infinite",
                witness=_frame_payload(
                    "n4-LNak4", quotients=((qw, "LNak4", "deep-line"),)),
                trace=(*trace, "rad-square-zero-line-vs-deep-line"))
        reason = "no zero-length-3-path quotient found"
    else:
        reason = "radical-square-zero line too short (n = 3)"
    return vd.verdict(
        vd.OPEN, "rad-square-zero-line-vs-deep-line",
        "the boundary against deep-radical lines is undecided here",
        trace=(*trace, f"rad-square-zero-line-vs-deep-line: {reason}",
               "open"))


def _rsz_vs_non_nakayama(n, other, other_prof, trace):
    m = other_prof.simple_count
    if m == 3:
        raise InvariantViolationError(
            "a simply connected non-hereditary factor on 3 vertices must "
            "be the radical-square-zero line")
    if m == 4:
        # B1 and B1^op are the lines ++- and -++ with their one composition
        # zero; +-+ has none, and the rules above leave no +++ line here
        if line_class(other.quiver) in ("++-", "-++"):
            return vd.verdict(
                vd.FINITE, "rad-square-zero-line-vs-b1",
                "a radical-square-zero line against the one-sink 4-line "
                "with a single zero composition is representation-finite",
                trace=(*trace, "rad-square-zero-line-vs-b1: isomorphic"))
        _, witness = _obstruction_witness(other, ("L42", "L43square"))
        return vd.verdict(
            vd.INFINITE, "rad-square-zero-line-vs-4",
            "among non-line 4-vertex factors only that one algebra (or its "
            "opposite) keeps the product finite",
            witness=witness,
            trace=(*trace, "rad-square-zero-line-vs-b1: not isomorphic",
                   "rad-square-zero-line-vs-4"))
    # m >= 5
    if n >= 4:
        _, witness = _obstruction_witness(other, _OBSTRUCTIONS_N4)
        return vd.verdict(
            vd.INFINITE, "rad-square-zero-line4-vs-big",
            "a radical-square-zero line on 4 or more vertices against a "
            "non-line factor with 5 or more vertices is infinite",
            witness=witness,
            trace=(*trace, "rad-square-zero-line4-vs-big"))
    b1, op = _TARGETS["B1"], None
    if has_quotient(other, b1) is None:
        op = opposite(other)
        if has_quotient(op, b1) is None:
            return vd.verdict(
                vd.INFINITE, "rad-square-zero-line3-vs-big",
                "with 5 or more vertices the factor must admit the "
                "one-sink 4-line with a zero composition as a quotient to "
                "stay finite",
                trace=(*trace,
                       "rad-square-zero-line3-vs-big: no such quotient"))
    cat_id, witness = _obstruction_witness(other, _OBSTRUCTIONS_N3, op)
    if cat_id:
        return vd.verdict(
            vd.INFINITE, "rad-square-zero-line3-obstruction",
            "an obstruction quotient certifies an infinite product",
            witness=witness,
            trace=(*trace, "rad-square-zero-line3-vs-big: quotient present",
                   f"rad-square-zero-line3-obstruction: {cat_id}"))
    return vd.verdict(
        vd.OPEN, "rad-square-zero-line3-vs-big",
        "the 3-vertex radical-square-zero boundary against large factors "
        "is undecided beyond the stored obstructions",
        trace=(*trace, "rad-square-zero-line3-vs-big: quotient present",
               "rad-square-zero-line3-obstruction: none", "open"))


# ---------------------------------------------------------------------------
# enveloping, self tensor, triples


def classify_enveloping(pres):
    """Finiteness of the tensor with the opposite algebra."""
    _gate(pres, "classify_enveloping")
    if _is_rsz_line(structural_profile(pres)):
        return vd.verdict(
            vd.FINITE, "enveloping",
            "the enveloping algebra is finite exactly for "
            "radical-square-zero lines",
            trace=("enveloping: radical-square-zero line",))
    return vd.verdict(
        vd.INFINITE, "enveloping",
        "the enveloping algebra is infinite unless the algebra is a "
        "radical-square-zero line",
        trace=("enveloping: not a radical-square-zero line",))


def classify_self_tensor(pres):
    """Finiteness of the tensor square; cyclic quivers allowed."""
    require_valid(pres)
    cyc = find_oriented_cycle(pres.quiver)
    if cyc is not None:
        return vd.verdict(
            vd.INFINITE, "self-tensor-cycle",
            "an oriented cycle in the quiver forces an infinite tensor "
            "square",
            witness=cycle_witness(pres).to_payload(),
            trace=("self-tensor-cycle: cycle " + "->".join(cyc),))
    try:
        inner = classify_tensor(pres, pres)
    except CyclicQuiverError:
        return vd.verdict(
            vd.OPEN, "self-tensor-unresolved",
            "only loops are present; the pair engine needs an acyclic "
            "quiver and no cycle rule applies",
            trace=("self-tensor-cycle: no non-loop cycle",
                   "self-tensor-delegate: rejected (cyclic)"))
    return _rewrap(inner, ("self-tensor-cycle: no cycle",))


def classify_triple(pa, pb, pc):
    """Finiteness of a threefold tensor product.  Every factor's quiver
    must be acyclic, as for ``classify_tensor``: a one-vertex factor with
    a loop would otherwise be dropped as local."""
    factors = [pa, pb, pc]
    for pres in factors:
        require_valid(pres)
        if not pres.quiver.is_acyclic():
            raise CyclicQuiverError(
                "classify_triple: every factor's quiver must be acyclic")
    locals_ = [len(p.quiver.vertices) == 1 for p in factors]
    nonlocal_factors = [p for p, loc in zip(factors, locals_) if not loc]
    if len(nonlocal_factors) == 3:
        return vd.verdict(
            vd.INFINITE, "triple-non-local",
            "three non-local factors surject onto the threefold product of "
            "2-lines, which is infinite",
            trace=("triple-non-local",))
    if len(nonlocal_factors) == 2:
        return _rewrap(classify_tensor(*nonlocal_factors),
                       ("triple: one local factor dropped",))
    if len(nonlocal_factors) == 1:
        return _rewrap(classify_single(nonlocal_factors[0]),
                       ("triple: two local factors dropped",))
    return vd.verdict(
        vd.FINITE, "triple-all-local",
        "a product of local factors stays local, hence finite",
        trace=("triple: all factors local",))
