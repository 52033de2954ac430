"""Tensor products of bound quiver presentations and derived constructions.

The tensor quiver has vertex pairs ``(u,v)``, a horizontal copy of every
first-factor arrow at every second-factor vertex, and a vertical copy of
every second-factor arrow at every first-factor vertex.  Its ideal is
generated by both lifted ideals together with one commutativity relation
per arrow pair, so squares commute.
"""

from __future__ import annotations

from fractions import Fraction

from .presentation import (
    Arrow,
    Presentation,
    Quiver,
    QuivertauError,
    Relation,
    opposite,
)


def tensor_vertex(u, v):
    return f"({u},{v})"


def horizontal_name(arrow_name, v):
    return f"{arrow_name}@{v}"


def vertical_name(u, arrow_name):
    return f"{u}@{arrow_name}"


def tensor_product(pa, pb):
    """Presentation of the tensor product algebra of two presentations."""
    qa, qb = pa.quiver, pb.quiver
    vertices = tuple(tensor_vertex(u, v)
                     for u in qa.vertices for v in qb.vertices)
    if len(set(vertices)) != len(vertices):
        raise QuivertauError("tensor vertex ids collide; rename factors")
    arrows = []
    for a in qa.arrows:
        for v in qb.vertices:
            arrows.append(Arrow(horizontal_name(a.name, v),
                                tensor_vertex(a.source, v),
                                tensor_vertex(a.target, v)))
    for u in qa.vertices:
        for b in qb.arrows:
            arrows.append(Arrow(vertical_name(u, b.name),
                                tensor_vertex(u, b.source),
                                tensor_vertex(u, b.target)))
    names = [a.name for a in arrows]
    if len(set(names)) != len(names):
        raise QuivertauError("tensor arrow names collide; rename factors")
    relations = []
    for rel in pa.relations:
        for v in qb.vertices:
            relations.append(Relation(tuple(
                (coeff, tuple(horizontal_name(n, v) for n in path))
                for coeff, path in rel.terms)))
    for u in qa.vertices:
        for rel in pb.relations:
            relations.append(Relation(tuple(
                (coeff, tuple(vertical_name(u, n) for n in path))
                for coeff, path in rel.terms)))
    for a in qa.arrows:
        for b in qb.arrows:
            up_then_across = (vertical_name(a.source, b.name),
                              horizontal_name(a.name, b.target))
            across_then_up = (horizontal_name(a.name, b.source),
                              vertical_name(a.target, b.name))
            relations.append(Relation((
                (Fraction(1), up_then_across),
                (Fraction(-1), across_then_up),
            )))
    return Presentation(Quiver(vertices, tuple(arrows)), tuple(relations))


def triangular_matrix(pres, n):
    """Tensor with the linear line on n vertices; n = 1 returns pres."""
    from .catalog import catalog_get  # the catalog builds on this module

    if n < 1:
        raise QuivertauError("triangular size must be >= 1")
    if n == 1:
        return pres
    return tensor_product(pres, catalog_get(f"A({n},{'+' * (n - 1)})"))


def enveloping(pres):
    """Tensor of the presentation with its opposite."""
    return tensor_product(pres, opposite(pres))


# one coefficient for every zero relation: Fractions are immutable
_ONE = Fraction(1)


def rad_square_quotient(pres):
    """Same quiver, with every composable arrow pair declared zero.

    Works on cyclic quivers too; the relation list is exactly all length-2
    paths as monomial relations.
    """
    q = pres.quiver
    relations = tuple(Relation(((_ONE, (a.name, b.name)),))
                      for a in q.arrows for b in q.out[a.target])
    return Presentation(q, relations)
