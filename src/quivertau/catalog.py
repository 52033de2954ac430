"""Named algebras, witness frames, isomorphism and quotient search.

The catalog stores the small bound quiver algebras the classifier needs as
obstructions or finite cases, plus witness frames: marked vertex sets
inside specific tensor products whose induced quotients certify infinite
verdicts.  Frame type labels are recorded data; the structural parts of a
frame are re-verified, the labels are not re-derived.

Quotient search takes its vertex maps from ``presentation.embeddings``,
the one quiver-map search, and an isomorphism is a quotient witness that
kills nothing between algebras of equal dimension.  A kept vertex set
that induces exactly as many arrows as the target has kills no arrow,
since no embedding puts more target arrows than source arrows between
two images; only a set with surplus arrows chooses arrows to kill.  A
tree source is refused at once against a target with k > 0 vertices and
at least k arrows.  No candidate rebuilds a quiver or a presentation.
"""

from __future__ import annotations

import heapq
import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .presentation import (
    Arrow,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    SizeLimitError,
    _relation_facts,
    dimension_table,
    embeddings,
    quotient,
    twin_classes,
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


def _oriented_quiver(n, edges, eps):
    """Quiver on the vertices 1..n with arrow a<i> along the i-th of the
    n - 1 tree edges (u, v): u -> v for '+' in eps, v -> u for '-'.  The
    length of eps is checked before any edge is read, so a large n with
    a short eps builds nothing."""
    if len(eps) != n - 1 or any(c not in "+-" for c in eps):
        raise BadParameterError(f"orientation {eps!r} needs length {n - 1}")
    arrows = tuple(Arrow(f"a{i}", *((u, v) if c == "+" else (v, u)))
                   for i, ((u, v), c) in enumerate(zip(edges, eps), start=1))
    return Quiver(tuple(str(i) for i in range(1, n + 1)), arrows)


def _line_quiver(n, eps):
    return _oriented_quiver(n, ((str(i), str(i + 1)) for i in range(1, n)),
                            eps)


# Most vertices an N(n) id may ask for.  The whole line is built (N(10000)
# takes about 0.3 s and 7 MiB), so a short id past this would ask for
# time and memory in proportion to n.
N_VERTEX_CAP = 10_000


def _n_algebra(n):
    if n < 1:
        raise BadParameterError("N(n) needs n >= 1")
    if n > N_VERTEX_CAP:
        raise SizeLimitError(f"N(n) has at most {N_VERTEX_CAP} vertices")
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
    edges = itertools.chain((("1", "3"), ("2", "3")),
                            ((str(i), str(i + 1)) for i in range(3, n)))
    return Presentation(_oriented_quiver(n, edges, eps), ())


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
_FAMILIES = (  # id pattern, builder, the family as listed, an example
    (re.compile(r"^N\((\d+)\)$"), _n_algebra, "N(n)", "N(3)"),
    (re.compile(r"^A\((\d+),([+-]*)\)$"), _a_algebra,
     "A(n,eps)", "A(4,+-+)"),
    (re.compile(r"^D\((\d+),([+-]*)\)$"), _d_algebra,
     "D(n,eps)", "D(4,+++)"),
)


def catalog_get(cat_id):
    """Presentation stored under a catalog id such as N(3) or A(4,+-+).
    A family as listed (``N(n)``), a bad parameter, or a parameter past
    the interpreter's integer digit limit or index size raises
    ``BadParameterError`` quoting the id, and an ``N(n)`` past
    ``N_VERTEX_CAP`` raises ``SizeLimitError`` quoting the id, before
    anything is built; an id of no family raises ``UnknownIdError``."""
    if cat_id in _FIXED:
        return _FIXED[cat_id]
    for pattern, build, family, example in _FAMILIES:
        if cat_id == family:
            raise BadParameterError(
                f"catalog id {cat_id!r} is a family and needs its "
                f"parameters, as in {example}")
        m = pattern.match(cat_id)
        if m:
            try:
                n = int(m[1])
                if n > sys.maxsize:
                    raise OverflowError
                return build(n, *m.groups()[1:])
            except (ValueError, OverflowError):  # past int() or an index
                error = BadParameterError("too many digits")
            except (BadParameterError, SizeLimitError) as exc:
                error = exc
            raise type(error)(f"catalog id {cat_id!r}: {error}")
    raise UnknownIdError(
        f"unknown catalog id {cat_id!r}; qt catalog list shows the ids")


def catalog_ids():
    """Concrete stored ids plus the parameterized family patterns."""
    return tuple(sorted(_FIXED)) + tuple(f[2] for f in _FAMILIES)


# ---------------------------------------------------------------------------
# quotient witness search; an isomorphism is a bijective quotient witness


def _arrow_maps(arrows, names_to, vmap):
    """All bijections from ``arrows`` onto the target's arrows compatible
    with a vertex bijection; ``names_to`` maps each (source, target) pair
    of the target to its arrow names, and the counts must agree along
    vmap.

    Parallel arrows are matched by permutation, the first (source, target)
    pair varying slowest; permutations are generated one at a time, so the
    first map costs nothing however many parallel arrows there are."""
    amap = {}
    pools = {}  # pairs with parallel arrows; the others have one bijection
    for a in arrows:
        names2 = names_to[vmap[a.source], vmap[a.target]]
        if len(names2) == 1:
            amap[a.name] = names2[0]
        else:
            pool = pools.setdefault((a.source, a.target), ([], names2))
            pool[0].append(a.name)
    if not pools:
        yield amap
        return
    pools = [pools[pair] for pair in sorted(pools)]
    # perms[k] iterates the matchings of pools[k]
    perms = [itertools.permutations(pools[0][1])]
    while perms:
        perm = next(perms[-1], None)
        if perm is None:
            perms.pop()
            continue
        amap.update(zip(pools[len(perms) - 1][0], perm))
        if len(perms) == len(pools):
            yield dict(amap)
        else:
            perms.append(itertools.permutations(pools[len(perms)][1]))


def _transported_relation_vectors(pres, amap):
    """Relation vectors of pres with arrows renamed along amap."""
    return [_transported(terms, amap)
            for terms in map(Relation.combined, pres.relations) if terms]


def _transported(terms, amap):
    """The vector of combined relation terms with arrows renamed along
    amap."""
    return {tuple(amap[n] for n in path): coeff for coeff, path in terms}


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


def is_iso(p1, p2):
    """Quiver isomorphism carrying the first ideal onto the second, as a
    quotient witness that kills nothing, or None; raises SizeLimitError
    past a fixed limit of 20 vertices on either side.

    With equal vertex and arrow counts, a witness of ``has_quotient`` kills
    nothing, so it is a quiver isomorphism φ with φ(I₁) ⊆ I₂ and gives a
    surjection A₁ → A₂; equal dimensions make that surjection bijective,
    that is φ(I₁) = I₂.  Conversely an isomorphism is such a witness.  With
    equal dimensions containment and equality agree for every map, so the
    witness is the first isomorphism in the search order of
    ``has_quotient``: vertex maps in lexicographic order of the images of
    p1's vertices, then ``_arrow_maps`` order.  The one kept set induces
    as many arrows as p2 has, so the search makes no kill choice.
    """
    size_limit = 20
    q1, q2 = p1.quiver, p2.quiver
    if len(q1.vertices) > size_limit or len(q2.vertices) > size_limit:
        raise SizeLimitError("isomorphism search limit exceeded")
    if len(q1.vertices) != len(q2.vertices) or \
            len(q1.arrows) != len(q2.arrows):
        return None
    w = has_quotient(p1, p2, size_limit)
    if w is not None and \
            dimension_table(p1).total == dimension_table(p2).total:
        return w
    return None


def has_quotient(pres, target, size_limit=16):
    """First witness that ``target`` is a quotient of ``pres``, or None.

    A witness kills a set of vertices, then a set of the arrows among the
    kept ones, and maps what survives isomorphically onto the target
    quiver so that every surviving relation lands inside ``target.ideal``
    (containment suffices: more admissible relations may always be
    imposed).  Kept sets are tried in reverse lexicographic order of
    their positions, which is lexicographic order of the killed sets;
    within a set the witness is the least candidate by the key (killed
    arrows as indices into the induced arrows in declaration order, the
    images' positions in ``target.quiver`` along the kept vertices,
    ``_arrow_maps`` order), as in a search over killed vertex sets, arrow
    sets, vertex maps and arrow maps, each in lexicographic order.

    The inverse of a witness's vertex map sends tq's vertices injectively
    into the kept set with no arrow count of tq above q's count between
    the images, so it is one of ``embeddings(q, tq)``.  Twin expansion
    loses no map: a permutation within a class of ``twin_classes(tq)`` is
    an automorphism of tq, so it turns an embedding into another, and of
    the embeddings that differ only so ``embeddings`` yields one.  Each
    bijection kills the surplus parallel arrows of each (source, target)
    pair, in every choice, and the choices are the same for all twin
    permutations of an embedding, since an automorphism keeps arrow
    counts.  So a kept set that induces exactly as many arrows as tq has
    kills nothing under any embedding, and only a set with surplus arrows
    makes kill choices.  Candidates come lazily in key order: the
    embeddings' streams of ``_kill_choices`` are merged, and for one
    killed tuple their streams of ``_twin_orders``, so the first witness
    costs only the candidates before it.  The surviving arrows and
    relation terms are read once per killed tuple, the terms as the kept
    combined ones (``_relation_facts``) without their dead paths, which
    is exact as a path dies whole.  No candidate builds a quiver, a
    presentation or a relation.

    A tree source has no witness onto a target with k > 0 vertices and at
    least k arrows, such as a connected target that is no tree: a forest
    on k vertices has at most k - 1 arrows.  Such a target is refused
    before any embedding is sought.
    """
    if len(pres.quiver.vertices) > size_limit:
        raise SizeLimitError("quotient search limit exceeded")
    q, tq = pres.quiver, target.quiver
    if len(q.vertices) < len(tq.vertices) or \
            q.is_tree() and len(tq.arrows) >= len(tq.vertices) > 0:
        return None
    class_of = {k: c for c in twin_classes(tq) for k in c}
    count = tq.mult.get
    names_to = {}  # (source, target) in tq -> its arrow names
    for b in tq.arrows:
        names_to.setdefault((b.source, b.target), []).append(b.name)
    for kept, keys in _kept_sets(q, tq):
        on = {q.vertices[p] for p in kept}
        killed_vs = tuple(v for v in q.vertices if v not in on)
        arrows = [a for a in q.arrows if a.source in on and a.target in on]
        outside = {a.name for a in q.arrows} - {a.name for a in arrows}
        if len(arrows) == len(tq.arrows):
            groups = [((), range(len(keys)))]
        else:
            parallel = {}  # (source, target) -> indices into arrows
            for i, a in enumerate(arrows):
                parallel.setdefault((a.source, a.target), []).append(i)
            kills = []
            for e, key in enumerate(keys):
                vmap = {q.vertices[p]: tq.vertices[k]
                        for p, k in zip(kept, key)}
                surplus = [(idx, n) for (s, t), idx in parallel.items()
                           if (n := len(idx) - count((vmap[s], vmap[t]), 0))]
                kills.append(zip(_kill_choices(surplus), itertools.repeat(e)))
            groups = ((killed, [e for _, e in group])
                      for killed, group in itertools.groupby(
                          heapq.merge(*kills), key=lambda c: c[0]))
        for killed, es in groups:
            killed_as = tuple(arrows[i].name for i in killed)
            live = [a for i, a in enumerate(arrows) if i not in killed]
            dead = outside.union(killed_as)
            surviving = [live_terms for terms in _relation_facts(pres)[1]
                         if (live_terms := [t for t in terms
                                            if dead.isdisjoint(t[1])])]
            for vkey in heapq.merge(*(_twin_orders(keys[e], class_of)
                                      for e in es)):
                vmap = {q.vertices[p]: tq.vertices[k]
                        for p, k in zip(kept, vkey)}
                for amap in _arrow_maps(live, names_to, vmap):
                    if all(target.ideal.contains(_transported(terms, amap))
                           for terms in surviving):
                        return QuotientWitness(
                            killed_vs, killed_as,
                            tuple(sorted(vmap.items())),
                            tuple(sorted(amap.items())))
    return None


def _kept_sets(q, tq):
    """The maps of ``embeddings(q, tq)`` grouped by their image, as
    (image as increasing positions, the maps' keys), images in reverse
    lexicographic order; a key lists the target position sent to each
    position of the image."""
    by_image = {}
    for emb in embeddings(q, tq):
        kept = tuple(sorted(emb))
        at = {p: k for k, p in enumerate(emb)}
        by_image.setdefault(kept, []).append(tuple(at[p] for p in kept))
    return sorted(by_image.items(), reverse=True)


def _kill_choices(surplus):
    """The increasing tuples that take n indices from each group of
    ``surplus``, a list of (increasing indices, n) over disjoint groups,
    in lexicographic order.  Tuples of one length are in that order
    exactly when their indicator vectors decrease, so a depth-first walk
    over the indices that kills an index before keeping it yields them in
    order; an index is kept only if the later ones of its group can still
    meet its group's need, so every walk ends in a choice."""
    slots = sorted((i, g) for g, (idx, _) in enumerate(surplus) for i in idx)
    later = [len(surplus[g][0]) - surplus[g][0].index(i) - 1
             for i, g in slots]
    stack = [(0, (), tuple(need for _, need in surplus))]
    while stack:
        j, killed, need = stack.pop()
        if j == len(slots):
            yield killed
            continue
        i, g = slots[j]
        if later[j] >= need[g]:
            stack.append((j + 1, killed, need))
        if need[g]:
            stack.append((j + 1, killed + (i,),
                          need[:g] + (need[g] - 1,) + need[g + 1:]))


def _twin_orders(key, class_of):
    """The vertex-map keys that permute the entries of ``key`` within the
    classes of ``class_of`` (target position -> its twin class), in
    lexicographic order: a depth-first walk along the key that gives each
    twin entry the unused members of its class in increasing order."""
    slots = [j for j, k in enumerate(key) if k in class_of]
    stack = [()]
    while stack:
        chosen = stack.pop()
        if len(chosen) == len(slots):
            fill = dict(zip(slots, chosen))
            yield tuple(fill.get(j, k) for j, k in enumerate(key))
            continue
        for k in reversed(class_of[key[slots[len(chosen)]]]):
            if k not in chosen:
                stack.append(chosen + (k,))


def verify_quotient_witness(pres, target, witness):
    """Re-check a stored quotient witness: the vertex map is a bijection
    onto the target's vertices, the arrow map a bijection from the
    surviving arrows onto the target's arrows that agrees with it on both
    ends, and every surviving relation lands inside the target ideal."""
    sub = quotient(pres, witness.killed_vertices, witness.killed_arrows)
    vmap = dict(witness.vertex_map)
    amap = dict(witness.arrow_map)
    if sorted(vmap) != sorted(sub.quiver.vertices):
        return False
    if sorted(vmap.values()) != sorted(target.quiver.vertices):
        return False
    if sorted(amap) != sorted(a.name for a in sub.quiver.arrows):
        return False
    if sorted(amap.values()) != sorted(a.name for a in target.quiver.arrows):
        return False
    for a in sub.quiver.arrows:
        b = target.quiver.by_name[amap[a.name]]
        if vmap[a.source] != b.source or vmap[a.target] != b.target:
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
        raise UnknownFrameError(f"unknown witness frame {frame_id!r}; "
                                "qt catalog list shows the frames")
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
    A marked vertex outside the ambient raises ``MalformedFrameError``;
    else the quotient exists and ``quotient_ok`` says if it validates.
    """
    ambient = frame.ambient()
    vset = set(ambient.quiver.vertices)
    marked = set(frame.marked)
    if not marked <= vset:
        raise MalformedFrameError(f"{frame.frame_id}: marked vertices "
                                  "missing from the ambient quiver")
    killed = tuple(v for v in ambient.quiver.vertices if v not in marked)
    induced = quotient(ambient, killed)
    quotient_ok = not [v for v in validate_presentation(induced)
                       if v.code != "Disconnected"]
    report = classify_graph(underlying_graph(induced.quiver))
    connected = len(report.components) <= 1
    expected = euclidean_size(frame.claimed_type)
    count_anomaly = len(marked) != expected
    notes = ("count-anomaly (paper figure)",) if count_anomaly else ()
    hereditary_ok = None
    induced_graph = None
    if len(report.components) == 1:
        induced_graph = report.components[0][1].label()
    if frame.claim_kind == "hereditary-surjection":
        hereditary_ok = (not any(map(Relation.combined, induced.relations))
                         and induced_graph == frame.claimed_type.label()
                         and not count_anomaly)
        ok = quotient_ok and connected and hereditary_ok
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
        notes=notes,
    )
