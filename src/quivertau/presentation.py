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

from .linalg import SparseSpace

SIMPLY_CONNECTED = "SimplyConnected"
NOT_SIMPLY_CONNECTED = "NotSimplyConnected"
LIKELY_SIMPLY_CONNECTED = "LikelySimplyConnected"


class QuivertauError(Exception):
    """Base class for all library errors."""


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


class QuiverIndex:
    """Read-only lookups on one quiver, each built on first use.

    ``by_name`` maps arrow names to arrows, ``out`` and ``inc`` map every
    vertex to its outgoing and incoming arrows in declaration order, and
    ``mult`` counts the arrows from each source to each target.  Slots keep
    the many indexes that caches hold small; the index refers to the
    quiver's tuples, not to the quiver, so it makes no reference cycle.
    """

    __slots__ = ("_vertices", "_arrows", "_by_name", "_out", "_inc", "_mult")

    def __init__(self, vertices, arrows):
        self._vertices = vertices
        self._arrows = arrows
        self._by_name = self._out = self._inc = self._mult = None

    @property
    def by_name(self):
        if self._by_name is None:
            self._by_name = {a.name: a for a in self._arrows}
        return self._by_name

    @property
    def out(self):
        if self._out is None:
            self._out = self._group_by(lambda a: a.source)
        return self._out

    @property
    def inc(self):
        if self._inc is None:
            self._inc = self._group_by(lambda a: a.target)
        return self._inc

    @property
    def mult(self):
        if self._mult is None:
            self._mult = Counter((a.source, a.target) for a in self._arrows)
        return self._mult

    def _group_by(self, end):
        groups = {v: [] for v in self._vertices}
        for a in self._arrows:
            groups[end(a)].append(a)
        return {v: tuple(arrows) for v, arrows in groups.items()}


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph. Vertex ids and arrow names are unique."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    @cached_property
    def index(self):
        return QuiverIndex(self.vertices, self.arrows)

    def is_acyclic(self):
        out = self.index.out
        state = {v: 0 for v in self.vertices}  # 0 new, 1 open, 2 done

        def visit(v):
            stack = [(v, iter(out[v]))]
            state[v] = 1
            while stack:
                u, it = stack[-1]
                advanced = False
                for a in it:
                    w = a.target
                    if state[w] == 1:
                        return False
                    if state[w] == 0:
                        state[w] = 1
                        stack.append((w, iter(out[w])))
                        advanced = True
                        break
                if not advanced:
                    state[u] = 2
                    stack.pop()
            return True

        for v in self.vertices:
            if state[v] == 0 and not visit(v):
                return False
        return True

    def is_connected(self):
        root = {v: v for v in self.vertices}  # union-find over the arrows

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for a in self.arrows:
            root[find(a.source)] = find(a.target)
        return len({find(v) for v in self.vertices}) <= 1

    def has_multiple_arrows(self):
        seen = set()
        for a in self.arrows:
            key = (a.source, a.target)
            if key in seen:
                return True
            seen.add(key)
        return False

    def has_loop(self):
        return any(a.source == a.target for a in self.arrows)


@dataclass(frozen=True)
class Relation:
    """Rational combination of parallel paths, each a tuple of arrow names."""

    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    def paths(self):
        return [p for _, p in self.terms]

    def is_monomial(self):
        return len(self.terms) == 1


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple[Relation, ...]

    @cached_property
    def ideal(self):
        """The relation ideal as a PathIdeal, built on first use."""
        return ideal_membership_spaces(self)


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
    simple_count: int
    is_acyclic: bool
    is_connected: bool
    is_tree: bool
    is_local: bool
    is_hereditary: bool
    is_linear_nakayama: bool
    is_radical_square_zero: bool | None
    is_schurian: bool | None
    has_multiple_arrows: bool


def path_key(path):
    """Sort key for paths: by length, then by arrow name sequence."""
    return (len(path), path)


def _arrow(quiver, name):
    try:
        return quiver.index.by_name[name]
    except KeyError:
        raise UnknownArrowError(name) from None


def path_source(quiver, path):
    return _arrow(quiver, path[0]).source


def path_target(quiver, path):
    return _arrow(quiver, path[-1]).target


def path_is_composable(quiver, path):
    by_name = quiver.index.by_name
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
    coeff = Fraction(int(num), int(den) if den else 1)
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
    """Canonical text form; vertices and arrows keep declaration order."""
    lines = [f"vertex {v}" for v in pres.quiver.vertices]
    lines += [f"arrow {a.name} : {a.source} -> {a.target}"
              for a in pres.quiver.arrows]
    rels = []
    for rel in pres.relations:
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


def validate_presentation(pres, require_acyclic=False):
    """Structural checks; returns a list of Violation records."""
    out = []
    q = pres.quiver
    if len(set(q.vertices)) != len(q.vertices):
        out.append(Violation("DuplicateVertex", "quiver", "vertex ids repeat"))
    names = [a.name for a in q.arrows]
    if len(set(names)) != len(names):
        out.append(Violation("DuplicateArrow", "quiver", "arrow names repeat"))
    vset = set(q.vertices)
    for a in q.arrows:
        if a.source not in vset or a.target not in vset:
            out.append(Violation("UnknownVertex", a.name,
                                 "arrow endpoint not declared"))
    if not q.is_connected():
        out.append(Violation("Disconnected", "quiver",
                             "underlying graph is not connected"))
    if require_acyclic and not q.is_acyclic():
        out.append(Violation("CyclicQuiver", "quiver",
                             "oriented cycle present"))
    by_name = q.index.by_name
    for idx, rel in enumerate(pres.relations):
        where = f"relation {idx}"
        if not rel.terms:
            out.append(Violation("EmptyRelation", where, "no terms"))
            continue
        srcs, tgts = set(), set()
        for coeff, path in rel.terms:
            if coeff == 0:
                out.append(Violation("ZeroCoefficient", where, str(path)))
            if len(path) < 2:
                out.append(Violation("ShortRelationTerm", where, str(path)))
                continue
            if any(n not in by_name for n in path):
                out.append(Violation("UnknownArrow", where, str(path)))
                continue
            if not path_is_composable(q, path):
                out.append(Violation("NonComposablePath", where, str(path)))
                continue
            srcs.add(path_source(q, path))
            tgts.add(path_target(q, path))
        if len(srcs) > 1 or len(tgts) > 1:
            out.append(Violation("NonParallelRelation", where,
                                 "terms have different endpoints"))
    return out


def require_valid(pres, require_acyclic=False):
    violations = validate_presentation(pres, require_acyclic=require_acyclic)
    if violations:
        codes = {v.code for v in violations}
        if codes == {"Disconnected"}:
            raise DisconnectedError(violations)
        if "CyclicQuiver" in codes:
            raise CyclicQuiverError(violations)
        raise QuivertauError(violations)


# ---------------------------------------------------------------------------
# paths and dimensions


# Most path letters all_paths may hold at once: a 300-vertex line needs
# ~4.5M, a 1,200-vertex line ~288M (gigabytes of tuples).
PATH_LETTER_BUDGET = 16_000_000


def _check_path_budget(quiver):
    """Count the letters of all paths of an acyclic quiver without building
    any path, and raise SizeLimitError when they pass the budget."""
    out = quiver.index.out
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

    Each value list is sorted by path_key, so downstream elimination and
    basis choices are deterministic.  Raises SizeLimitError, before any
    path is built, when the paths hold more than PATH_LETTER_BUDGET letters.
    """
    if not quiver.is_acyclic():
        raise CyclicQuiverError("path enumeration needs an acyclic quiver")
    _check_path_budget(quiver)
    out = quiver.index.out
    grouped = {}
    for v in quiver.vertices:
        # depth-first, children in arrow order: pop a path, then push its
        # one-arrow extensions in reverse
        stack = [((a.name,), a.target) for a in reversed(out[v])]
        while stack:
            path, at = stack.pop()
            grouped.setdefault((v, at), []).append(path)
            stack.extend((path + (a.name,), a.target)
                         for a in reversed(out[at]))
    return {pair: tuple(sorted(ps, key=path_key))
            for pair, ps in grouped.items()}


def _exact(x):
    """x as an int when it is one, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quo(num, den):
    """num / den, an int while the quotient is exact."""
    if type(num) is int and type(den) is int and num % den == 0:
        return num // den
    return _exact(Fraction(num, den))


class PathIdeal:
    """The relation ideal I of a presentation, read per vertex pair of kQ.

    Read it as ``pres.ideal``.  Every relation is padded with every path
    ending at its source on the left and every path starting at its target
    on the right; the padded vectors span I.

    Padded vectors with one or two terms (zero paths and binomials
    ``c1*p + c2*q``, which is nearly all of a tensor product's ideal) go
    into a weighted union-find: each path is ``ratio * root``, the root
    being the smallest path of its class by ``path_key``.  A class lies in
    I when it holds a zero path or when two routes through it give
    different ratios.  Padded vectors with three or more terms are
    rewritten to their normal form (each path replaced by ratio times its
    root, zero classes dropped), which goes into a per-pair SparseSpace.

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
    """

    __slots__ = ("_quiver", "_paths", "_link", "_zero", "_spaces")

    def __init__(self, quiver, paths):
        self._quiver = quiver
        self._paths = paths
        self._link = {}  # non-root path -> (parent, ratio), path = ratio*parent
        self._zero = set()  # roots whose class lies in I
        self._spaces = {}  # pair -> SparseSpace of normal forms

    def _find(self, path):
        """(root, ratio) with path = ratio * root; flattens the walk."""
        link = self._link
        step = link.get(path)
        if step is None:
            return path, 1
        if step[0] not in link:
            return step
        trail = []
        node = path
        while step is not None:
            trail.append((node, step[1]))
            node = step[0]
            step = link.get(node)
        ratio = 1
        for below, r in reversed(trail):
            ratio = r * ratio
            link[below] = (node, ratio)
        return node, ratio

    def _kill(self, path):
        self._zero.add(self._find(path)[0])

    def _join(self, p, q, k):
        """Record p = k * q."""
        rp, a = self._find(p)
        rq, b = self._find(q)
        kb = k * b  # a * rp = kb * rq
        if rp == rq:
            if a != kb:
                self._zero.add(rp)
            return
        if path_key(rq) < path_key(rp):
            rp, rq, a, kb = rq, rp, kb, a
        self._link[rq] = (rp, _quo(a, kb))
        if rq in self._zero:
            self._zero.add(rp)

    def _normal_form(self, vec):
        out = {}
        for path, coeff in vec.items():
            root, ratio = self._find(path)
            if root in self._zero:
                continue
            value = out.get(root, 0) + coeff * ratio
            if value:
                out[root] = value
            else:
                del out[root]
        return out

    def _pair(self, path):
        return (path_source(self._quiver, path),
                path_target(self._quiver, path))

    def _add(self, vec):
        """Add a padded vector with three or more terms."""
        nf = self._normal_form(vec)
        if nf:
            pair = self._pair(next(iter(vec)))
            space = self._spaces.get(pair)
            if space is None:
                space = self._spaces[pair] = SparseSpace(path_key)
            space.add(nf)

    def contains(self, vec):
        """Is the vector (path -> coefficient) in I?"""
        nf = self._normal_form(vec)
        if not nf:
            return True
        space = self._spaces.get(self._pair(next(iter(vec))))
        return space is not None and space.contains(nf)

    def basis(self, pair):
        """Paths of the pair that stay independent modulo I, by path_key."""
        paths = self._paths.get(pair, ())
        space = self._spaces.get(pair)
        pivots = space.rows if space is not None else ()
        link, zero = self._link, self._zero
        if not (link or zero or pivots):
            return paths
        return tuple(p for p in paths
                     if p not in link and p not in zero and p not in pivots)

    def rank(self, pair):
        """Dimension of I inside the span of the pair's paths."""
        return len(self._paths.get(pair, ())) - len(self.basis(pair))


def ideal_membership_spaces(pres):
    """Build the relation ideal of ``pres``; read it as ``pres.ideal``."""
    q = pres.quiver
    paths = all_paths(q)
    ideal = PathIdeal(q, paths)
    if not pres.relations:
        return ideal
    ending = {v: [()] for v in q.vertices}
    starting = {v: [()] for v in q.vertices}
    for (x, y), ps in paths.items():
        starting[x].extend(ps)
        ending[y].extend(ps)
    longer = []
    for rel in pres.relations:
        if not rel.terms:
            continue
        lefts = ending[path_source(q, rel.terms[0][1])]
        rights = starting[path_target(q, rel.terms[0][1])]
        merged = {}
        for coeff, mid in rel.terms:
            merged[mid] = merged.get(mid, 0) + coeff
        terms = [(c, mid) for mid, c in merged.items() if c]
        if len(terms) == 1:
            mid = terms[0][1]
            for left in lefts:
                for right in rights:
                    ideal._kill(left + mid + right)
        elif len(terms) == 2:
            (c1, m1), (c2, m2) = terms
            k = _quo(_exact(-c2), _exact(c1))  # p = k * q
            for left in lefts:
                lm1, lm2 = left + m1, left + m2
                for right in rights:
                    ideal._join(lm1 + right, lm2 + right, k)
        elif terms:
            longer.append((lefts, rights, terms))
    # normal forms are taken once the union-find is complete
    for lefts, rights, terms in longer:
        for left in lefts:
            for right in rights:
                ideal._add({left + mid + right: c for c, mid in terms})
    return ideal


def dimension_table(pres):
    """Exact basis of e_i(kQ/I)e_j per pair; needs an acyclic quiver."""
    q = pres.quiver
    if not q.is_acyclic():
        raise CyclicQuiverError("dimension table needs an acyclic quiver")
    ideal = pres.ideal
    pairs = []
    total = 0
    for i in q.vertices:
        for j in q.vertices:
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


def surviving_relations(relations, dead_arrows):
    """Relations re-imaged once the named arrows die: a term dies if and
    only if it uses a dead arrow, and a relation with no term left goes."""
    out = []
    for rel in relations:
        terms = tuple((c, p) for c, p in rel.terms
                      if not any(n in dead_arrows for n in p))
        if terms:
            out.append(Relation(terms))
    return tuple(out)


def quotient(pres, killed_vertices=(), killed_arrows=(), extra_relations=()):
    """Kill vertices/arrows and add relations; relations are re-imaged.

    A relation term survives only if none of its arrows dies; relations
    with no surviving terms are dropped.
    """
    q = pres.quiver
    killed_vertices = set(killed_vertices)
    killed_arrows = set(killed_arrows)
    vset = set(q.vertices)
    for v in killed_vertices:
        if v not in vset:
            raise UnknownVertexError(v)
    by_name = q.index.by_name
    for a in killed_arrows:
        if a not in by_name:
            raise UnknownArrowError(a)
    dead_arrows = set(killed_arrows)
    for a in q.arrows:
        if a.source in killed_vertices or a.target in killed_vertices:
            dead_arrows.add(a.name)
    vertices = tuple(v for v in q.vertices if v not in killed_vertices)
    arrows = tuple(a for a in q.arrows if a.name not in dead_arrows)
    rels = list(surviving_relations(pres.relations, dead_arrows))
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


def _is_linear_nakayama(quiver):
    """True when the quiver is the linearly oriented line 1 -> 2 -> ... -> n."""
    n = len(quiver.vertices)
    if len(quiver.arrows) != n - 1:
        return False
    targets = {a.target for a in quiver.arrows}
    sources = [v for v in quiver.vertices if v not in targets]
    if len(sources) != 1:
        return False
    # n - 1 steps along single out-arrows that end at a sink cannot revisit
    # a vertex, so they run through every vertex and every arrow
    out = quiver.index.out
    at, seen = sources[0], 1
    while seen < n and len(out[at]) == 1:
        at = out[at][0].target
        seen += 1
    return seen == n and not out[at]


def structural_profile(pres):
    """Structural flags; dimension-based flags are None on cyclic quivers."""
    q = pres.quiver
    acyclic = q.is_acyclic()
    connected = q.is_connected()
    tree = connected and len(q.arrows) == len(q.vertices) - 1 \
        and not q.has_multiple_arrows() and not q.has_loop()
    rsz = None
    schurian = None
    if acyclic:
        table = dimension_table(pres)
        rsz = all(len(p) <= 1 for _, paths in table.pairs for p in paths)
        schurian = all(len(paths) <= 1 for _, paths in table.pairs)
    return Profile(
        simple_count=len(q.vertices),
        is_acyclic=acyclic,
        is_connected=connected,
        is_tree=tree,
        is_local=len(q.vertices) == 1,
        is_hereditary=len(pres.relations) == 0,
        is_linear_nakayama=_is_linear_nakayama(q),
        is_radical_square_zero=rsz,
        is_schurian=schurian,
        has_multiple_arrows=q.has_multiple_arrows(),
    )


def homology_rank(pres):
    """Abelianized simple-connectedness proxy.

    Rank = dim(cycle space of the underlying graph) minus the rank of the
    cells attached by multi-term relations (each pair of parallel relation
    paths spans the cycle w_i - w_1).  A positive rank certifies a
    nontrivial fundamental group; rank zero on a non-tree is only evidence.
    """
    q = pres.quiver
    if not q.is_connected():
        raise DisconnectedError("homology proxy needs a connected quiver")
    cycle_rank = len(q.arrows) - len(q.vertices) + 1
    is_tree = cycle_rank == 0 and not q.has_loop()
    if is_tree:
        return 0, SIMPLY_CONNECTED

    def edge_vector(path):
        vec = {}
        for name in path:
            vec[name] = vec.get(name, Fraction(0)) + 1
        return vec

    cells = SparseSpace(lambda k: k)
    for rel in pres.relations:
        if len(rel.terms) < 2:
            continue
        base = edge_vector(rel.terms[0][1])
        for _, path in rel.terms[1:]:
            vec = dict(base)
            for name, c in edge_vector(path).items():
                new = vec.get(name, Fraction(0)) - c
                if new:
                    vec[name] = new
                else:
                    vec.pop(name, None)
            cells.add(vec)
    rank = cycle_rank - cells.rank
    if rank > 0:
        return rank, NOT_SIMPLY_CONNECTED
    return 0, LIKELY_SIMPLY_CONNECTED


def presentations_equal(p1, p2):
    """Equality up to canonical reordering of relations and terms."""
    return serialize_presentation(p1) == serialize_presentation(p2)
