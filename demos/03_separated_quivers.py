"""Walkthrough: separated quivers and the radical-square-zero criterion.

The separated quiver doubles every vertex and redirects each arrow from
the 0-copy of its source to the 1-copy of its target.  A radical-square-
zero algebra is finite exactly when every single subquiver (at most one
copy per original vertex) is a disjoint union of Dynkin graphs.
"""

from quivertau import (
    SingleSubquiver,
    adachi_decide,
    catalog_get,
    classify_graph,
    classify_self_tensor,
    cycle_witness,
    parse_presentation,
    rad_square_quotient,
    separated_quiver,
    underlying_graph,
)
from quivertau.presentation import Arrow, Presentation, Quiver
from quivertau.sepgraph import is_single_subquiver

n5 = catalog_get("N(5)")
sep = separated_quiver(n5.quiver)
print("separated quiver of the radical-square-zero 5-line:")
print("  components:",
      ", ".join(classify_graph(underlying_graph(sep)).tags()))
print("  verdict:", adachi_decide(n5).status)

# Parallel arrows immediately force infiniteness: the single subquiver on
# the two endpoints carries a double edge.
kronecker = rad_square_quotient(Presentation(
    Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))), ()))
verdict = adachi_decide(kronecker)
print("\ndoubled arrow, radical square zero:", verdict.status)
print("  witness:", verdict.certificate.witness["vertices"],
      verdict.certificate.witness["component_types"])

# A tree with a 4-in vertex: the separated quiver contains a degree-4
# star, so a single subquiver of shape D~4 exists.
star = parse_presentation("""\
vertex 1
vertex 2
vertex 3
vertex 4
vertex s
arrow a : 1 -> s
arrow b : 2 -> s
arrow c : 3 -> s
arrow d : 4 -> s
""")
verdict = adachi_decide(rad_square_quotient(star))
print("\nfour sources into one sink:", verdict.status,
      verdict.certificate.witness["component_types"])

# The witness re-checks without the search that found it: it is a single
# subquiver of the separated quiver, and its underlying graph is not a
# disjoint union of Dynkin graphs.
payload = verdict.certificate.witness
ssq = SingleSubquiver(
    tuple((v, side) for v, side in payload["vertices"]),
    tuple((tuple(src), tuple(tgt), name)
          for src, tgt, name in payload["arrows"]))
print("  witness is a single subquiver:",
      is_single_subquiver(star.quiver, ssq))
print("  witness is Dynkin:", classify_graph(ssq.underlying()).all_dynkin())

# An oriented cycle in a quiver forces an infinite tensor square.  The
# witness zig-zags along two anti-diagonals of the doubled grid.
cycle = Presentation(
    Quiver(("1", "2", "3"),
           (Arrow("x", "1", "2"), Arrow("y", "2", "3"),
            Arrow("z", "3", "1"))), ())
witness = cycle_witness(cycle)
print("\n3-cycle tensor square witness:")
for v, side in witness.vertices:
    print(f"  side {side}: {v}")
print("  underlying:", ", ".join(witness.report().tags()))
print("  self-tensor verdict:", classify_self_tensor(cycle).status)
