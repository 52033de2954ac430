"""Bound quiver presentations: parsing, validation, exact dimensions.

A presentation is a finite quiver together with admissible relations
(rational linear combinations of parallel paths of length >= 2); it stands
for the quotient of the path algebra by the ideal those relations generate.
All coefficients are exact rationals and every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, count, groupby
from math import gcd, lcm

from .linalg import SparseSpace

SIMPLY_CONNECTED = "SimplyConnected"
NOT_SIMPLY_CONNECTED = "NotSimplyConnected"
LIKELY_SIMPLY_CONNECTED = "LikelySimplyConnected"


class QuivertauError(Exception):
    """Base class for all library errors.  An error raised for failed
    validation keeps its ``Violation`` records in ``violations``."""

    violations = ()


class ParseError(QuivertauError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CyclicQuiverError(QuivertauError):
    pass


class DisconnectedError(QuivertauError):
    pass


class NotSimplyConnectedError(QuivertauError):
    pass


class UnknownVertexError(QuivertauError):
    pass


class UnknownArrowError(QuivertauError):
    pass


class InvalidExtraRelationError(QuivertauError):
    pass


class SizeLimitError(QuivertauError):
    pass


class NotRadicalSquareZeroError(QuivertauError):
    pass


class UnsupportedLoopError(QuivertauError):
    pass


class NoOrientedCycleError(QuivertauError):
    pass


class InvariantViolationError(QuivertauError):
    """An internal consistency condition failed; report as a bug."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class _Filled:
    """A cached attribute that the method named ``fill`` sets, together
    with the others that method fills, in one pass: the first read of any
    of them runs it, and its values then sit on the instance."""

    def __init__(self, fill):
        self.fill = fill

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        getattr(obj, self.fill)()
        return getattr(obj, self.name)


def _undeclared(arrow, declared):
    v = arrow.source if arrow.source not in declared else arrow.target
    return UnknownVertexError(
        f"arrow {arrow.name}: endpoint {v} is not a declared vertex")


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph. Vertex ids and arrow names are unique.

    Its lookups are built on first use and cached on the quiver:
    ``by_name`` maps arrow names to arrows, ``inc`` maps every vertex to
    its incoming arrows in declaration order, ``mult`` counts the arrows
    from each source to each target, and ``embedding_plan`` is the search
    plan with which ``embeddings`` maps this quiver into others.  One walk
    over the arrows (``_walk``) fills ``out``, every vertex's outgoing
    arrows in declaration order, and answers ``is_connected`` (at most one
    of the ``components``), ``is_tree``, ``has_loop`` and the orientation
    word that ``line_orientation`` reads.  ``is_acyclic`` is no loop, and
    a tree or no ``find_oriented_cycle``; only a quiver that is neither a
    tree nor has a loop needs that search, once.  The walk and ``inc``
    raise ``UnknownVertexError`` at the first arrow with an undeclared
    end; ``has_loop`` then answers by a scan of its own, and ``is_tree``
    reads no walk unless there are n - 1 arrows.  The cached values hold
    arrows, tuples and strings, never the quiver, so they make no
    reference cycle.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    out = _Filled("_walk")
    _connected = _Filled("_walk")
    _line_word = _Filled("_walk")

    @cached_property
    def by_name(self):
        return {a.name: a for a in self.arrows}

    @cached_property
    def inc(self):
        groups = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source not in groups or a.target not in groups:
                raise _undeclared(a, groups)
            groups[a.target].append(a)
        return {v: tuple(arrows) for v, arrows in groups.items()}

    @cached_property
    def mult(self):
        return Counter((a.source, a.target) for a in self.arrows)

    @cached_property
    def embedding_plan(self):
        return _embedding_plan(self.vertices, self.mult)

    @cached_property
    def _loop(self):
        try:
            self._walk()
        except UnknownVertexError:  # the walk stops there; a loop may not
            return any(a.source == a.target for a in self.arrows)
        return self.__dict__["_loop"]

    @cached_property
    def _acyclic(self):
        return not self._loop and \
            (self.is_tree() or find_oriented_cycle(self) is None)

    def _walk(self):
        """The one walk over the arrows.  It groups them by source and
        lists each vertex's neighbours (not kept: caches keep quivers),
        from which ``components`` reads connectivity and a tree with no
        vertex of more than two neighbours reads its orientation word."""
        vertices = self.vertices
        out = {v: [] for v in vertices}
        near = {v: [] for v in vertices}
        loop = False
        for a in self.arrows:
            s, t = a.source, a.target
            if s not in out or t not in out:
                raise _undeclared(a, out)
            out[s].append(a)
            near[s].append(t)
            near[t].append(s)
            if s == t:
                loop = True
        connected = len(components(vertices, near)) <= 1
        tree = connected and len(self.arrows) == len(vertices) - 1
        word = None
        if tree and max(map(len, near.values())) <= 2:
            # an end exists unless repeated vertex ids close the line
            at = next((v for v in vertices if len(near[v]) < 2), None)
            if at is not None:
                word, prev = [], None
                for _ in range(len(vertices) - 1):
                    ns, up = near[at], out[at]  # one neighbour at an end
                    w = ns[1] if ns[0] == prev else ns[0]
                    # at has at most two edges; up holds those out of it
                    word.append("+" if len(up) == 2 or up and
                                up[0].target == w else "-")
                    prev, at = at, w
                word = "".join(word)
        self.__dict__.update(out=dict(zip(out, map(tuple, out.values()))),
                             _connected=connected, _loop=loop,
                             _line_word=word)
        if loop or tree:  # acyclicity needs no cycle search
            self.__dict__["_acyclic"] = not loop

    def is_acyclic(self):
        return self._acyclic

    def is_connected(self):
        return self._connected

    def is_tree(self):
        """Connected with n - 1 arrows, so without loops or cycles."""
        return len(self.arrows) == len(self.vertices) - 1 and self._connected

    def first_parallel_pair(self):
        """The first arrow, in declaration order, that repeats an earlier
        arrow's (source, target), with that earlier arrow; else None."""
        seen = {}
        for a in self.arrows:
            earlier = seen.setdefault((a.source, a.target), a)
            if earlier is not a:
                return earlier, a
        return None

    def has_loop(self):
        return self._loop


def components(vertices, neighbours):
    """Connected components of the undirected multigraph on ``vertices``
    whose edges are given as neighbour lists: ``neighbours[v]`` lists the
    other end of every edge at v (loops and repeats allowed).  They come
    as vertex lists in the order of their first vertices; each list starts
    at its first vertex and goes on in breadth-first order."""
    seen, found = set(), []
    for v in vertices:
        if v not in seen:
            seen.add(v)
            comp = [v]
            for x in comp:  # comp grows while it is walked
                for y in neighbours[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
            found.append(comp)
    return found


def find_oriented_cycle(quiver):
    """A simple oriented cycle of length >= 2, as a vertex list, or None;
    loops do not count.  Depth-first with an explicit stack."""
    out = quiver.out
    color = {v: 0 for v in quiver.vertices}  # 0 new, 1 on path, 2 done
    for root in quiver.vertices:
        if color[root] != 0:
            continue
        color[root] = 1
        path, todo = [root], [iter(out[root])]
        while todo:
            for a in todo[-1]:
                w = a.target
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    todo.append(iter(out[w]))
                    break
                if color[w] == 1 and w != path[-1]:  # a loop is no cycle
                    return path[path.index(w):]
            else:
                color[path.pop()] = 2
                todo.pop()
    return None


@dataclass(frozen=True)
class Relation:
    """Rational combination of parallel paths, each a tuple of arrow names.

    ``terms`` are the terms as written: a path may repeat, and terms may
    cancel.  What the relation means is ``combined()``, and every reader
    of its value (the ideal, the zero paths, the homology cells, the
    hereditary and monomial flags, quotient transport) reads that.  Only
    the readers of the input as written keep ``terms``: the parser,
    ``validate_presentation`` and ``serialize_presentation``, the
    operations that rewrite a presentation (``tensor_product``,
    ``opposite``, ``quotient``), and the "not parallel paths" checks,
    which must see a path even where it cancels."""

    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    def paths(self):
        return [p for _, p in self.terms]

    def combined(self):
        """The terms with each repeated path's coefficients summed, paths
        that sum to zero dropped, in order of first appearance."""
        terms = self.terms
        if len(terms) == 1:
            return terms if terms[0][0] else ()
        merged = {}
        for coeff, path in terms:
            merged[path] = merged.get(path, 0) + coeff
        return tuple((c, p) for p, c in merged.items() if c)

    def is_monomial(self):
        """Does the relation combine to at most one path?"""
        return len(self.combined()) <= 1


@dataclass(frozen=True)
class Presentation:
    """A quiver with relations.  What the relations say is read on first
    use and kept on the presentation; see ``_relation_facts``."""

    quiver: Quiver
    relations: tuple[Relation, ...]

    _relations_read = None  # set beside the fields by _relation_facts

    @cached_property
    def ideal(self):
        """The relation ideal as a PathIdeal, built on first use."""
        return ideal_membership_spaces(self)


def _relation_facts(pres, checked=False):
    """(violations, combined) of ``pres``'s relations: their ``Violation``
    records (None unless ``checked``) and each relation's
    ``Relation.combined()``, read once and kept on the presentation.
    Validation asks with ``checked``, which reads the terms as written in
    the same pass; a presentation that is never validated only combines
    its relations."""
    facts = pres._relations_read
    if facts is not None and (facts[0] is not None or not checked):
        return facts
    if checked:
        violations, combined = _read_relation_terms(pres)
    else:
        violations, combined = None, tuple(map(Relation.combined,
                                               pres.relations))
    facts = violations, combined
    # set beside the fields: a dict for one value would double its size
    object.__setattr__(pres, "_relations_read", facts)
    return facts


def _read_relation_terms(pres):
    """One pass over the relations: each one's combined terms, and the
    violations of its terms as written.  A term has a nonzero coefficient
    and at least two arrows, all of the quiver and composable, and the
    terms share their ends; each arrow is looked up once, in
    ``by_name``."""
    by_name = pres.quiver.by_name
    known = by_name.__contains__
    violations, combined = [], []
    for idx, rel in enumerate(pres.relations):
        combined.append(rel.combined())
        found, ends = [], set()
        for coeff, path in rel.terms:
            if not coeff:
                found.append(("ZeroCoefficient", str(path)))
            if len(path) < 2:
                found.append(("ShortRelationTerm", str(path)))
                continue
            if not all(map(known, path)):
                found.append(("UnknownArrow", str(path)))
                continue
            last = None
            for name in path:
                a = by_name[name]
                if last is not None and a.source != last.target:
                    found.append(("NonComposablePath", str(path)))
                    break
                last = a
            else:
                ends.add((by_name[path[0]].source, last.target))
        if not rel.terms:
            found.append(("EmptyRelation", "no terms"))
        elif len(ends) > 1:
            found.append(("NonParallelRelation",
                          "terms have different endpoints"))
        if found:
            violations += [Violation(code, f"relation {idx}", detail)
                           for code, detail in found]
    return tuple(violations), tuple(combined)


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    detail: str


@dataclass(frozen=True)
class DimensionTable:
    """Per vertex pair: basis paths of e_i A e_j and their count."""

    pairs: tuple[tuple[tuple[str, str], tuple[tuple[str, ...], ...]], ...]
    total: int

    def basis(self, i, j):
        for (a, b), paths in self.pairs:
            if (a, b) == (i, j):
                return paths
        return ()

    def dim(self, i, j):
        return len(self.basis(i, j))

    def as_dict(self):
        return {pair: paths for pair, paths in self.pairs}


@dataclass(frozen=True)
class Profile:
    """Structural flags of a presentation: ``simple_count``,
    ``is_acyclic``, ``is_local`` (one vertex), ``is_hereditary`` (no
    relation combines to anything), ``is_linear_nakayama``,
    ``is_radical_square_zero`` and ``is_schurian`` (at most one basis path
    per vertex pair).  The last two are None on cyclic quivers; every tree
    is Schurian.  The quiver answers connectivity, trees and parallel
    arrows itself."""

    simple_count: int
    is_acyclic: bool
    is_local: bool
    is_hereditary: bool
    is_linear_nakayama: bool
    is_radical_square_zero: bool | None
    is_schurian: bool | None


def path_key(path):
    """Sort key for paths: by length, then by arrow name sequence."""
    return (len(path), path)


def _arrow(quiver, name):
    try:
        return quiver.by_name[name]
    except KeyError:
        raise UnknownArrowError(name) from None


def path_source(quiver, path):
    return _arrow(quiver, path[0]).source


def path_target(quiver, path):
    return _arrow(quiver, path[-1]).target


def path_is_composable(quiver, path):
    by_name = quiver.by_name
    for x, y in zip(path, path[1:]):
        if x not in by_name or y not in by_name:
            return False
        if by_name[x].target != by_name[y].source:
            return False
    return path[0] in by_name


# ---------------------------------------------------------------------------
# quiver file format


_NAME_BAD = re.compile(r"[\s#*]")
_ARROW_LINE = re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_TERM = re.compile(r"^(-?\d+)(?:/(\d+))?\*(\S+)$")


def _check_name(name, what, lineno):
    if not name or _NAME_BAD.search(name) or "->" in name:
        raise ParseError(f"bad {what} name {name!r}", lineno)
    if what == "arrow" and "." in name:
        raise ParseError(f"bad arrow name {name!r} (no dots allowed)", lineno)


def _parse_term(token, lineno):
    m = _TERM.match(token)
    if not m:
        raise ParseError(f"bad relation term {token!r}", lineno)
    num, den, pathtxt = m.groups()
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError:  # past the interpreter's integer digit limit
        raise ParseError("too many digits in relation term", lineno) from None
    if den == 0:
        raise ParseError("zero denominator in relation term", lineno)
    coeff = Fraction(num, den)
    if coeff == 0:
        raise ParseError("zero coefficient in relation term", lineno)
    return coeff, tuple(pathtxt.split("."))


def parse_presentation(text):
    """Parse the line-oriented quiver file format into a Presentation."""
    vertices = []
    arrows = []
    relations = []
    vertex_set = set()
    arrow_names = {}

    def resolve_path(path, lineno):
        for name in path:
            if name not in arrow_names:
                raise ParseError(f"unknown arrow {name!r} in path", lineno)
        for x, y in zip(path, path[1:]):
            if arrow_names[x].target != arrow_names[y].source:
                raise ParseError(
                    f"path not composable at {x!r}.{y!r}", lineno)
        return path

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertex "):
            name = line[len("vertex "):].strip()
            _check_name(name, "vertex", lineno)
            if name in vertex_set:
                raise ParseError(f"duplicate vertex {name!r}", lineno)
            vertex_set.add(name)
            vertices.append(name)
        elif line.startswith("arrow "):
            m = _ARROW_LINE.match(line)
            if not m:
                raise ParseError("malformed arrow line", lineno)
            name, src, tgt = m.groups()
            _check_name(name, "arrow", lineno)
            if name in arrow_names:
                raise ParseError(f"duplicate arrow {name!r}", lineno)
            for v in (src, tgt):
                if v not in vertex_set:
                    raise ParseError(f"unknown vertex {v!r}", lineno)
            a = Arrow(name, src, tgt)
            arrow_names[name] = a
            arrows.append(a)
        elif line.startswith("zero "):
            path = tuple(line[len("zero "):].strip().split("."))
            resolve_path(path, lineno)
            if len(path) < 2:
                raise ParseError("relation term of length < 2", lineno)
            relations.append(Relation(((Fraction(1), path),)))
        elif line.startswith("relation "):
            tokens = line[len("relation "):].split()
            terms = []
            sign = 1
            expect_term = True
            for tok in tokens:
                if not expect_term and tok in "+-":
                    sign = 1 if tok == "+" else -1
                    expect_term = True
                    continue
                if not expect_term:
                    raise ParseError(f"expected + or - before {tok!r}", lineno)
                coeff, path = _parse_term(tok, lineno)
                resolve_path(path, lineno)
                if len(path) < 2:
                    raise ParseError("relation term of length < 2", lineno)
                terms.append((sign * coeff, path))
                sign = 1
                expect_term = False
            if expect_term:
                raise ParseError("relation with no terms", lineno)
            relations.append(Relation(tuple(terms)))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    pres = Presentation(Quiver(tuple(vertices), tuple(arrows)),
                        tuple(relations))
    _check_relations_parallel(pres)
    return pres


def _check_relations_parallel(pres):
    for rel in pres.relations:
        paths = rel.paths()
        src = {path_source(pres.quiver, p) for p in paths}
        tgt = {path_target(pres.quiver, p) for p in paths}
        if len(src) > 1 or len(tgt) > 1:
            raise ParseError(f"relation terms not parallel: {paths}")


def _format_coeff(coeff, path):
    c = f"{coeff.numerator}"
    if coeff.denominator != 1:
        c += f"/{coeff.denominator}"
    return f"{c}*{'.'.join(path)}"


def serialize_presentation(pres):
    """Canonical text form; vertices and arrows keep declaration order.
    A relation with no terms says nothing and is skipped, as the ideal
    skips it."""
    lines = [f"vertex {v}" for v in pres.quiver.vertices]
    lines += [f"arrow {a.name} : {a.source} -> {a.target}"
              for a in pres.quiver.arrows]
    rels = []
    for rel in pres.relations:
        if not rel.terms:
            continue
        terms = sorted(rel.terms, key=lambda t: path_key(t[1]))
        rels.append(tuple(terms))
    rels.sort(key=lambda terms: (path_key(terms[0][1]), terms))
    for terms in rels:
        if len(terms) == 1 and terms[0][0] == 1:
            lines.append(f"zero {'.'.join(terms[0][1])}")
            continue
        first_coeff, first_path = terms[0]
        out = "relation " + _format_coeff(first_coeff, first_path)
        for coeff, path in terms[1:]:
            op = " + " if coeff > 0 else " - "
            out += op + _format_coeff(abs(coeff), path)
        lines.append(out)
    return "\n".join(lines) + "\n"


def validate_presentation(pres):
    """Structural checks; returns a list of Violation records."""
    out = []
    q = pres.quiver
    if not q.vertices:
        out.append(Violation("EmptyQuiver", "quiver", "no vertices"))
    if len(set(q.vertices)) != len(q.vertices):
        out.append(Violation("DuplicateVertex", "quiver", "vertex ids repeat"))
    if len(q.by_name) != len(q.arrows):
        out.append(Violation("DuplicateArrow", "quiver", "arrow names repeat"))
    try:
        connected = q.is_connected()
    except UnknownVertexError:
        vset = set(q.vertices)
        out += [Violation("UnknownVertex", a.name,
                          "arrow endpoint not declared")
                for a in q.arrows
                if a.source not in vset or a.target not in vset]
    else:
        if not connected:
            out.append(Violation("Disconnected", "quiver",
                                 "underlying graph is not connected"))
    out += _relation_facts(pres, checked=True)[0]
    return out


def require_valid(pres):
    """Raise the typed error for the violations ``validate_presentation``
    finds, with a message such as ``EmptyQuiver (quiver): no vertices``
    (several joined by ``; ``) and the list kept as ``.violations``."""
    violations = validate_presentation(pres)
    if violations:
        if {v.code for v in violations} == {"Disconnected"}:
            error = DisconnectedError
        else:
            error = QuivertauError
        exc = error("; ".join(f"{v.code} ({v.where}): {v.detail}"
                              for v in violations))
        exc.violations = violations
        raise exc


# ---------------------------------------------------------------------------
# paths and dimensions


# Most path letters all_paths may hold at once: a 300-vertex line needs
# ~4.5M, a 1,200-vertex line ~288M (gigabytes of tuples).
PATH_LETTER_BUDGET = 16_000_000


def _check_path_budget(quiver):
    """Count the letters of all paths of an acyclic quiver without building
    any path, and raise SizeLimitError when they pass the budget."""
    out = quiver.out
    below = {}  # vertex -> (paths starting there, their total letters)
    total = 0
    for v in quiver.vertices:
        if v in below:
            continue
        stack = [(v, iter(out[v]))]
        while stack:
            u, arrows = stack[-1]
            for a in arrows:
                if a.target not in below:
                    stack.append((a.target, iter(out[a.target])))
                    break
            else:
                stack.pop()
                count = letters = 0
                for a in out[u]:
                    n, m = below[a.target]
                    count += 1 + n
                    letters += 1 + n + m
                below[u] = (count, letters)
                total += letters
                if total > PATH_LETTER_BUDGET:
                    raise SizeLimitError(
                        f"paths of this quiver exceed {PATH_LETTER_BUDGET} "
                        "letters")


@lru_cache(maxsize=None)
def all_paths(quiver):
    """All nonempty paths of an acyclic quiver, grouped by (source, target).

    Each value tuple is sorted by path_key, so downstream elimination and
    basis choices are deterministic.  Raises SizeLimitError, before any
    path is built, when the paths hold more than PATH_LETTER_BUDGET letters.

    Each source vertex is walked level by level: level n + 1 extends each
    path of level n, in order, by the out-arrows of its end in name order.
    A level is then sorted by arrow name sequence, so each pair's paths
    come out in path_key order with no sort.  A source's pairs are listed
    in the order a depth-first walk over its paths, extending by arrows in
    declaration order, first reaches their targets.  A marked depth-first
    walk over the vertices, taking arrows in the same order, first reaches
    them in the same order, since a vertex met again leads only to vertices
    its first visit already reached; that walk gives the pair order.
    """
    if not quiver.is_acyclic():
        raise CyclicQuiverError("path enumeration needs an acyclic quiver")
    _check_path_budget(quiver)
    out = quiver.out
    named = {v: [(a.name, a.target)
                 for a in sorted(arrows, key=lambda a: a.name)]
             for v, arrows in out.items()}
    grouped = {}
    for v in quiver.vertices:
        ending = {}  # vertex -> the paths from v to it, by path_key
        level = [((name,), at) for name, at in named[v]]
        while level:
            for path, at in level:
                ps = ending.get(at)
                if ps is None:
                    ending[at] = [path]
                else:
                    ps.append(path)
            level = [(path + (name,), to) for path, at in level
                     for name, to in named[at]]
        seen = {v}
        stack = [a.target for a in reversed(out[v])]
        while stack:
            at = stack.pop()
            if at not in seen:
                seen.add(at)
                grouped[(v, at)] = tuple(ending[at])
                stack.extend(a.target for a in reversed(out[at]))
    return grouped


def _exact(x):
    """x (an int or a Fraction) as an int when it is one."""
    return x.numerator if x.denominator == 1 else x


def _quo(num, den):
    """num / den, an int while the quotient is exact."""
    if type(num) is int and type(den) is int and num % den == 0:
        return num // den
    x = Fraction(num, den)
    return x.numerator if x.denominator == 1 else x


def _primitive(terms):
    """Combined terms (coefficient, path) scaled to coprime int
    coefficients: a nonzero multiple of the relation, so the same ideal."""
    den = lcm(*(c.denominator for c, _ in terms))
    ints = [c.numerator * (den // c.denominator) for c, _ in terms]
    g = gcd(*ints)
    return [(n // g, path) for n, (_, path) in zip(ints, terms)]


class PathIdeal:
    """The relation ideal I of a presentation, read per vertex pair of kQ.

    Read it as ``pres.ideal``.  I is spanned by the padded vectors
    ``l * rel * r``, for every relation and every path l ending at its
    source (or none) and r starting at its target (or none).  The builder
    pads only by the paths below; the others add nothing.

    Inside, a path is an integer id: its position in the concatenation of
    the per-pair lists of ``all_paths``.  Paths appear only at the
    boundary: relations are padded into ids, ``basis`` maps ids back to
    paths and ``contains`` reads paths.  A presentation without relations
    has the zero ideal and gets no id table.

    Padded vectors with one or two terms (zero paths and binomials
    ``c1*p + c2*q``, which is nearly all of a tensor product's ideal) go
    into a weighted union-find over the ids, kept in flat lists: each path
    is ``ratio * root``, the root being the smallest id of its class.  A
    class lies in I when it holds a zero path or when two routes through
    it give different ratios.  Padded vectors with three or more terms are
    rewritten to their normal form (each path replaced by ratio times its
    root, zero classes dropped), which goes into a per-pair SparseSpace
    over the ids.

    The smallest id of a class is its smallest path by ``path_key``: a
    binomial's two padded paths are parallel, so a class never leaves its
    vertex pair, and each pair's list is sorted by ``path_key``, so within
    a pair id order is ``path_key`` order.  The same holds for the pivots
    of a pair's SparseSpace.

    The basis of ``e_i (kQ/I) e_j`` is then the roots of nonzero classes
    that are not pivots of their pair's SparseSpace.  This is the
    non-pivot set that largest-key elimination of all padded vectors
    keeps, i.e. the paths that are not the leading term of any element of
    I: a non-root p is the leading term of ``p - ratio*root``, a zero root
    lies in I, and for a nonzero root p an element v of I with leading
    term p has a normal form with the same coefficient at p and only
    smaller roots besides, because the normal form only replaces a path by
    a smaller root.  So no leading term moves, and p leads some element
    of I exactly when it leads some element of the normal-form space.

    Relations with one or two terms are padded by lefts in increasing
    length, taken across all such relations, and a left that is at its
    turn a non-root, or a root of a zero class, is skipped.  The skip is
    exact.  If ``l = t * L`` through joins already made, each of those
    joins came from a relation padded by some left, with every right,
    before l's turn; right-multiplying it by ``m * r`` gives a pad of the
    same left with a longer right, which was made too.  So
    ``l*m*r = t*L*m*r`` already holds in the union-find for every term m
    and right r, and the pads of l follow from those of L, a live root of
    smaller id in the same pair.  If L's turn is past, L was padded then,
    as a root never becomes one again and a zero class stays zero; if it
    is to come, L is padded or skipped by this same argument, which ends
    as ids fall.  A zero class likewise makes every ``l*m*r`` zero
    already.  Taking short lefts first makes most longer ones non-roots by
    their turn.

    Relations with three or more terms are padded once the union-find is
    complete, and only by nonzero roots (or no path) on both sides.  The
    normal form is then linear and vanishes on the padded vectors with one
    or two terms, hence on the ideal they generate.  A non-root padding
    path ``l = t * L`` gives ``l*v*r - t*L*v*r`` in that ideal, so its
    normal form is t times that of the pad by L, and a zero padding path
    gives a vector of that ideal; neither moves a pivot.
    """

    __slots__ = ("_quiver", "_paths", "_ids", "_parent", "_ratio", "_zero",
                 "_spaces")

    def __init__(self, quiver, paths, ids):
        self._quiver = quiver
        self._paths = paths
        self._ids = ids  # path -> id; empty when there are no relations
        self._parent = list(range(len(ids)))  # a root is its own parent
        self._ratio = [1] * len(ids)  # path = ratio * parent
        self._zero = bytearray(len(ids))  # 1 on roots whose class lies in I
        self._spaces = {}  # pair -> SparseSpace of normal forms

    def _find(self, k):
        """(root, ratio) with path k = ratio * root; flattens the walk."""
        parent = self._parent
        up = parent[k]
        if up == k:
            return k, 1
        ratio = self._ratio
        if parent[up] == up:
            return up, ratio[k]
        trail = [k]
        while parent[up] != up:
            trail.append(up)
            up = parent[up]
        r = 1
        for below in reversed(trail):
            r = ratio[below] * r
            ratio[below] = r
            parent[below] = up
        return up, r

    def _kill(self, k):
        self._zero[self._find(k)[0]] = 1

    def _join(self, p, q, k):
        """Record p = k * q."""
        rp, a = self._find(p)
        rq, b = self._find(q)
        kb = k * b  # a * rp = kb * rq
        zero = self._zero
        if rp == rq:
            if a != kb:
                zero[rp] = 1
            return
        if rq < rp:
            rp, rq, a, kb = rq, rp, kb, a
        self._parent[rq] = rp
        self._ratio[rq] = _quo(a, kb)
        if zero[rq]:
            zero[rp] = 1

    def _normal_form(self, vec):
        """The vector (id -> coefficient) with each id replaced by ratio
        times its root, zero classes dropped."""
        out = {}
        zero = self._zero
        for k, coeff in vec.items():
            root, ratio = self._find(k)
            if zero[root]:
                continue
            value = out.get(root, 0) + coeff * ratio
            if value:
                out[root] = value
            else:
                out.pop(root, None)
        return out

    def _add(self, pair, vec):
        """Add a padded vector (id -> coefficient) with three or more
        terms, all in the pair."""
        nf = self._normal_form(vec)
        if nf:
            space = self._spaces.get(pair)
            if space is None:
                space = self._spaces[pair] = SparseSpace()
            space.add(nf)

    def contains(self, vec):
        """Is the vector (path -> coefficient) in I?

        The pair is read from the vector's first path, so an unknown arrow
        at either end of it raises UnknownArrowError.  A path that is not
        a path of the quiver has no id and stays as it is, so a vector with
        one (and a nonzero coefficient) is not in I."""
        ids = self._ids
        by_id = {}
        foreign = False
        for path, coeff in vec.items():
            k = ids.get(path)
            if k is not None:
                by_id[k] = coeff
            elif coeff:
                foreign = True
        nf = self._normal_form(by_id)
        if not (nf or foreign):
            return True
        first = next(iter(vec))
        pair = (path_source(self._quiver, first),
                path_target(self._quiver, first))
        if foreign:
            return False
        space = self._spaces.get(pair)
        return space is not None and space.contains(nf)

    def basis(self, pair):
        """Paths of the pair that stay independent modulo I, by path_key."""
        paths = self._paths.get(pair, ())
        if not (paths and self._ids):
            return paths
        parent, zero = self._parent, self._zero
        space = self._spaces.get(pair)
        pivots = space.rows if space is not None else ()
        return tuple(p for k, p in enumerate(paths, self._ids[paths[0]])
                     if parent[k] == k and not zero[k] and k not in pivots)

    def rank(self, pair):
        """Dimension of I inside the span of the pair's paths."""
        return len(self._paths.get(pair, ())) - len(self.basis(pair))


def _not_parallel(idx):
    return QuivertauError(f"relation {idx}: terms are not parallel paths")


def ideal_membership_spaces(pres):
    """Build the relation ideal of ``pres``; read it as ``pres.ideal``.

    Relations with one or two terms are padded first, by lefts in
    increasing length across all of them, skipping a left that is at its
    turn a non-root or zero; relations with three or more terms are padded
    last, by nonzero roots only on both sides.  The ``PathIdeal``
    docstring shows that both skips are exact.  Each relation with three
    or more terms is first scaled to coprime int coefficients, so its
    normal forms reach the fraction-free ``SparseSpace`` as ints unless a
    binomial ratio is not an int.

    Raises QuivertauError when a relation's terms are not parallel paths
    of the quiver (``validate_presentation`` reports such relations)."""
    q = pres.quiver
    paths = all_paths(q)
    if not pres.relations:
        return PathIdeal(q, paths, {})
    ids = dict(zip(chain.from_iterable(paths.values()), count()))
    ideal = PathIdeal(q, paths, ids)
    into = {v: [] for v in q.vertices}  # v -> [(source, paths into v)]
    out_of = {v: [] for v in q.vertices}  # v -> [(target, paths from v)]
    for (x, y), ps in paths.items():
        out_of[x].append((y, ps))
        into[y].append((x, ps))
    short, longer = [], []
    for idx, rel in enumerate(pres.relations):
        if not rel.terms:
            continue
        a = path_source(q, rel.terms[0][1])
        b = path_target(q, rel.terms[0][1])
        # the paths from a to b have the ids lo, lo + 1, ..., hi - 1
        ab = paths.get((a, b), ())
        lo = ids[ab[0]] if ab else 0
        hi = lo + len(ab)
        for _, mid in rel.terms:  # cancelled terms must be parallel too
            if not lo <= ids.get(mid, -1) < hi:
                raise _not_parallel(idx)
        terms = rel.combined()
        if len(terms) == 1:
            short.append((a, b, terms[0][1], None, None))
        elif len(terms) == 2:
            (c1, m1), (c2, m2) = terms
            short.append((a, b, m1, m2, _quo(_exact(-c2), _exact(c1))))
        elif terms:
            longer.append((a, b, _primitive(terms)))
    parent, zero = ideal._parent, ideal._zero
    levels = {}  # a -> the paths into a (and the empty path), by length
    rights = {}  # b -> the paths from b, after the empty path
    for a, b, *_ in short:
        if a not in levels:
            lefts = sorted(chain.from_iterable(ps for _, ps in into[a]),
                           key=len)
            levels[a] = [[()]] + [list(g) for _, g in groupby(lefts, len)]
        if b not in rights:
            rights[b] = [(), *chain.from_iterable(ps for _, ps in out_of[b])]
    kill, join = ideal._kill, ideal._join
    for n in range(max(map(len, levels.values()), default=0)):
        for a, b, m1, m2, k in short:  # k: m1 = k * m2
            if n >= len(levels[a]):
                continue
            tails = rights[b]
            for left in levels[a][n]:
                if left:
                    i = ids[left]
                    if parent[i] != i or zero[i]:
                        continue
                if m2 is None:
                    lm = left + m1
                    for right in tails:
                        kill(ids[lm + right])
                else:
                    lm1, lm2 = left + m1, left + m2
                    for right in tails:
                        join(ids[lm1 + right], ids[lm2 + right], k)

    def nonzero_roots(v, ends):
        """[(end, nonzero roots)] over the pairs ``ends``, after (v, ())."""
        found = [(v, ((),))]
        for w, ps in ends:
            found.append((w, [p for i, p in enumerate(ps, ids[ps[0]])
                              if parent[i] == i and not zero[i]]))
        return found

    # normal forms are taken once the union-find is complete
    left_roots, right_roots = {}, {}
    for a, b, terms in longer:
        if a not in left_roots:
            left_roots[a] = nonzero_roots(a, into[a])
        if b not in right_roots:
            right_roots[b] = nonzero_roots(b, out_of[b])
        for x, lefts in left_roots[a]:
            for left in lefts:
                for y, rs in right_roots[b]:
                    for right in rs:
                        ideal._add((x, y), {ids[left + mid + right]: c
                                            for c, mid in terms})
    return ideal


def dimension_table(pres):
    """Exact basis of e_i(kQ/I)e_j per pair; needs an acyclic quiver."""
    q = pres.quiver
    if not q.is_acyclic():
        raise CyclicQuiverError("dimension table needs an acyclic quiver")
    ideal = pres.ideal
    # only pairs with a path, and the diagonal, can have a basis
    ends = {v: [v] for v in q.vertices}
    for i, j in ideal._paths:
        ends[i].append(j)
    place = {v: n for n, v in enumerate(q.vertices)}.__getitem__
    pairs = []
    total = 0
    for i in q.vertices:
        for j in sorted(ends[i], key=place):
            basis = ideal.basis((i, j))
            if i == j:
                basis = ((),) + basis  # the idempotent e_i
            if basis:
                pairs.append(((i, j), basis))
                total += len(basis)
    return DimensionTable(tuple(pairs), total)


def path_is_zero(pres, path):
    """True if the path lies in the relation ideal."""
    return pres.ideal.contains({path: 1})


def zero_relation_paths(pres):
    """The paths p of the relations that combine to a nonzero multiple of
    p (``Relation.combined``); each of them lies in the ideal."""
    return frozenset(terms[0][1] for terms in _relation_facts(pres)[1]
                     if len(terms) == 1)


def _check_tree_relations(pres):
    """Raise what the ideal build raises when a relation's terms, as
    written, are not parallel paths: on a tree that means they are not
    all one path of the quiver."""
    q = pres.quiver
    for idx, rel in enumerate(pres.relations):
        if not rel.terms:
            continue
        path = rel.terms[0][1]
        path_source(q, path), path_target(q, path)  # as the ideal build
        if not path_is_composable(q, path) or \
                any(p != path for _, p in rel.terms):
            raise _not_parallel(idx)


def zero_pair_test(pres):
    """A test of two composable arrow names a, b: is a.b zero?

    A path of ``zero_relation_paths`` is zero without the ideal.  On a
    tree that is the whole answer: two vertices are joined by at most one
    path, so those paths generate the ideal, and a.b lies in it iff a.b
    or one of its arrows (named only by unvalidated input) is one of
    them.  A tree's relations are checked here, as the ideal build would;
    terms that pass validation are one path of a tree, so only relations
    with violations need the check.  On any other quiver the rest is read
    from ``pres.ideal``, or is nonzero on a cyclic quiver (no ideal)."""
    tree = pres.quiver.is_tree()
    if tree and _relation_facts(pres, checked=True)[0]:
        _check_tree_relations(pres)
    zero = zero_relation_paths(pres)
    if tree:
        return lambda a, b: not zero.isdisjoint(((a, b), (a,), (b,)))
    acyclic = pres.quiver.is_acyclic()
    return lambda a, b: (a, b) in zero or (
        acyclic and pres.ideal.contains({(a, b): 1}))


def is_rad_square_zero(pres):
    """Is every composable arrow pair zero?  On an acyclic quiver that is
    rad^2 = 0, as terms have length >= 2 (``validate_presentation``): a
    longer path holds a pair, and if every basis path has length <= 1 then
    a.b = sum c_k a_k mod I over arrows a_k, so every c_k = 0 as I lies in
    R^2.  A zero relation lies in I: reading it off the relations is exact.
    """
    zero, out = zero_pair_test(pres), pres.quiver.out
    for a in pres.quiver.arrows:
        for b in out[a.target]:
            if not zero(a.name, b.name):
                return False
    return True


# ---------------------------------------------------------------------------
# quiver embeddings


def embeddings(q, tq):
    """The injective maps from tq's vertices into q's vertices under which
    no arrow count of tq, loops included, exceeds q's count between the
    image vertices; each map is a tuple of q positions in ``tq.vertices``
    order.  Of maps that differ only by swapping the images of twins (see
    ``_embedding_plan``), one is yielded.  The plan is built once per tq
    and cached on it.

    The maps are found by a depth-first search with an explicit stack,
    over tq's vertices in the order of ``_embedding_plan``.  A vertex with
    a placed neighbour takes its image among the successors or
    predecessors of that neighbour's image; one that starts a new
    component may take any vertex of q.  An image with fewer distinct
    successors or predecessors than the vertex is skipped.  Arrow counts
    are compared as numbers, so parallel arrows are never permuted.
    """
    n = len(q.vertices)
    pos = {v: i for i, v in enumerate(q.vertices)}
    # counted here rather than read from q.mult, which would then stay
    # cached on every source quiver that a cache holds
    mult = {}
    for a in q.arrows:
        st = pos[a.source], pos[a.target]
        mult[st] = mult.get(st, 0) + 1
    succ = [[] for _ in range(n)]  # distinct successors, as positions
    pred = [[] for _ in range(n)]
    for s, t in mult:
        succ[s].append(t)
        pred[t].append(s)
    plan, steps, _ = tq.embedding_plan
    stack = [((), 0)]  # images of the first steps, and their bit mask
    while stack:
        image, used = stack.pop()
        i = len(image)
        if i == len(plan):
            yield tuple(image[j] for j in steps)
            continue
        anchor, forward, n_out, n_in, loops, twin, later, checks = plan[i]
        if anchor is None:
            pool = range(n)
        else:
            pool = (succ if forward else pred)[image[anchor]]
        floor = -1 if twin is None else image[twin]
        for c in pool:
            if used >> c & 1 or c < floor or len(succ[c]) < n_out or \
                    len(pred[c]) < n_in or mult.get((c, c), 0) < loops or \
                    later and n - 1 - c - (used >> c + 1).bit_count() < later:
                continue
            for j, to, back in checks:
                if mult.get((c, image[j]), 0) < to or \
                        mult.get((image[j], c), 0) < back:
                    break
            else:
                stack.append((image + (c,), used | 1 << c))


def _embedding_plan(vertices, mult):
    """One step per vertex of a quiver tq, given by its vertices and arrow
    counts, in the order ``embeddings`` maps them, the step of each vertex
    in ``vertices`` order, and tq's twin classes (see ``twin_classes``).
    A step is (anchor, forward, n_out, n_in, loops, twin, later, checks).

    The next vertex is the one with the most arrows to the vertices
    already placed, then with the most distinct neighbours, so each
    component is placed in a connected order.  ``anchor`` is the step of
    its first placed neighbour, or None, and ``forward`` says that an
    arrow runs from that neighbour to it.  ``n_out`` and ``n_in`` count its
    distinct successors and predecessors, ``loops`` its loops, and
    ``checks`` holds (step, arrows to, arrows from) per placed neighbour.

    ``twin`` is the step of the last placed vertex that an automorphism of
    tq swaps with it, or None; the vertex then takes a larger image than
    its twin.  No image set is lost: swapping two twins' images gives
    another valid map onto the same set, and since twins form classes on
    which every permutation is an automorphism (a transposition conjugated
    by another is one too, so a vertex's class is it and its ``mates``),
    each image set is also reached with every class in increasing order.
    Without this, a target with k isolated vertices would be mapped k!
    times onto every set.
    ``later`` counts the members of its class placed after it: they need
    that many free images above its own, so a smaller margin is a dead
    end, and k isolated vertices mapped onto k take one path, not 2^k.
    """
    count = mult.get
    n_out = dict.fromkeys(vertices, 0)
    n_in = dict.fromkeys(vertices, 0)
    nbrs = {v: set() for v in vertices}
    for s, t in mult:
        n_out[s] += 1
        n_in[t] += 1
        if s != t:
            nbrs[s].add(t)
            nbrs[t].add(s)

    def swaps(u, w):
        """Is exchanging u and w an automorphism of tq?"""
        return n_out[u] == n_out[w] and n_in[u] == n_in[w] and \
            nbrs[u] - {w} == nbrs[w] - {u} and \
            count((u, w), 0) == count((w, u), 0) and \
            count((u, u), 0) == count((w, w), 0) and \
            all(count((u, x), 0) == count((w, x), 0) and
                count((x, u), 0) == count((x, w), 0)
                for x in nbrs[u] if x != w)

    mates = {v: [] for v in vertices}  # the vertices each one swaps with
    for u, w in combinations(vertices, 2):
        if swaps(u, w):
            mates[u].append(w)
            mates[w].append(u)
    # mates come in vertices order: v heads its class when its first is later
    at = {v: k for k, v in enumerate(vertices)}
    classes = tuple((at[v], *(at[w] for w in mates[v])) for v in vertices
                    if mates[v] and at[mates[v][0]] > at[v])
    links = dict.fromkeys(vertices, 0)  # arrows to the placed vertices
    step = {}
    order = []
    plan = []
    rest = list(vertices)
    while rest:
        u = max(rest, key=lambda v: (links[v], len(nbrs[v])))
        rest.remove(u)
        anchor, checks = None, []
        for w in nbrs[u]:
            if w in step:
                checks.append((step[w], count((u, w), 0), count((w, u), 0)))
                if anchor is None or step[w] < anchor:
                    anchor = step[w]
        forward = anchor is not None and (order[anchor], u) in mult
        twin = max((step[w] for w in mates[u] if w in step), default=None)
        later = sum(w not in step for w in mates[u])
        plan.append((anchor, forward, n_out[u], n_in[u], count((u, u), 0),
                     twin, later, tuple(checks)))
        step[u] = len(order)
        order.append(u)
        for w in nbrs[u]:
            links[w] += count((u, w), 0) + count((w, u), 0)
    return plan, tuple(step[v] for v in vertices), classes


def twin_classes(tq):
    """tq's twin classes of two or more vertices, as increasing tuples of
    positions in ``tq.vertices``, ordered by their first positions; they
    come with its embedding plan, which is cached on tq.  Each permutation
    within a class is an automorphism of tq, and ``embeddings`` yields one
    of the maps that differ only by such permutations."""
    return tq.embedding_plan[2]


# ---------------------------------------------------------------------------
# structural operations


def opposite(pres):
    """Reverse all arrows; relation paths are read backwards."""
    q = pres.quiver
    arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
    rels = tuple(
        Relation(tuple((coeff, tuple(reversed(path)))
                       for coeff, path in rel.terms))
        for rel in pres.relations)
    return Presentation(Quiver(q.vertices, arrows), rels)


def quotient(pres, killed_vertices=(), killed_arrows=(), extra_relations=()):
    """Kill vertices/arrows and add relations; relations are re-imaged.

    A relation term survives only if none of its arrows dies; relations
    with no surviving terms are dropped.
    """
    q = pres.quiver
    killed_vertices = set(killed_vertices)
    vset = set(q.vertices)
    for v in killed_vertices:
        if v not in vset:
            raise UnknownVertexError(v)
    dead_arrows = set(killed_arrows)
    for a in dead_arrows:
        if a not in q.by_name:
            raise UnknownArrowError(a)
    for a in q.arrows:
        if a.source in killed_vertices or a.target in killed_vertices:
            dead_arrows.add(a.name)
    vertices = tuple(v for v in q.vertices if v not in killed_vertices)
    arrows = tuple(a for a in q.arrows if a.name not in dead_arrows)
    rels = []
    for rel in pres.relations:
        terms = tuple((c, p) for c, p in rel.terms
                      if not any(n in dead_arrows for n in p))
        if terms:
            rels.append(Relation(terms))
    surviving = Quiver(vertices, arrows)
    for rel in extra_relations:
        for coeff, path in rel.terms:
            if len(path) < 2 or coeff == 0:
                raise InvalidExtraRelationError(rel)
            if not path_is_composable(surviving, path):
                raise InvalidExtraRelationError(rel)
        rels.append(rel)
    return Presentation(surviving, tuple(rels))


# ---------------------------------------------------------------------------
# profile and simply-connectedness proxy


def line_orientation(quiver):
    """The orientation word of a path-shaped quiver, else None.

    The quiver is a path when it is a tree and no vertex touches more than
    two of its arrows.  The word is read from its first end in vertex
    order, one letter per arrow: ``+`` where the arrow points away from
    that end, ``-`` where it points back.  A single vertex gives ``''``.
    The quiver's one walk reads the word; see ``Quiver``.
    """
    return quiver._line_word if quiver.is_tree() else None


def structural_profile(pres):
    """Structural flags; see ``Profile``.  On a tree rad^2 = 0 is read off
    the relations (``zero_pair_test``) and the Schurian flag holds without
    computation, so neither the paths nor the ideal are built."""
    q = pres.quiver
    acyclic = q.is_acyclic()
    line = line_orientation(q)
    rsz = schurian = None
    if acyclic:
        rsz = is_rad_square_zero(pres)
        schurian = q.is_tree() or all(len(pres.ideal.basis(pair)) <= 1
                                      for pair in all_paths(q))
    return Profile(
        simple_count=len(q.vertices),
        is_acyclic=acyclic,
        is_local=len(q.vertices) == 1,
        is_hereditary=not any(_relation_facts(pres)[1]),
        is_linear_nakayama=line is not None and len(set(line)) <= 1,
        is_radical_square_zero=rsz,
        is_schurian=schurian,
    )


def homology_rank(pres):
    """Abelianized simple-connectedness proxy.

    Rank = dim(cycle space of the underlying graph) minus the rank of the
    cells w_i - w_1 of each relation that combines to paths w_1, ..., w_k
    with k >= 2.  A positive rank certifies a nontrivial fundamental
    group; rank zero on a non-tree is only evidence."""
    q = pres.quiver
    if not q.is_connected():
        raise DisconnectedError("homology proxy needs a connected quiver")
    cycle_rank = len(q.arrows) - len(q.vertices) + 1
    if cycle_rank == 0:  # a tree
        return 0, SIMPLY_CONNECTED

    def edge_vector(path):
        vec = {}
        for name in path:
            vec[name] = vec.get(name, 0) + 1
        return vec

    cells = SparseSpace()
    for terms in _relation_facts(pres)[1]:
        if len(terms) < 2:
            continue
        base = edge_vector(terms[0][1])
        for _, path in terms[1:]:
            vec = dict(base)
            for name, c in edge_vector(path).items():
                new = vec.get(name, 0) - c
                if new:
                    vec[name] = new
                else:
                    vec.pop(name, None)
            cells.add(vec)
    rank = cycle_rank - cells.rank
    if rank > 0:
        return rank, NOT_SIMPLY_CONNECTED
    return 0, LIKELY_SIMPLY_CONNECTED
