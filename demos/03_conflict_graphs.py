"""The conflict graph behind the max-error capacity.

Nodes are (input, decoding set) pairs where the set captures enough row
mass for the budget; edges join pairs that cannot coexist in one decoder
(same input, or overlapping sets).  A maximum independent set is exactly a
maximum packing of decoder pre-images, so its size is the capacity.
"""

from fractions import Fraction

from oneshotcap import (
    build_max_graph,
    dump_graph,
    gen_funnel,
    FunnelSpec,
    independence_number,
    max_error,
    scheme_from_disjoint_sets,
)

c = gen_funnel(FunnelSpec.make(3, ["1/100", "1/50"]))
eps = Fraction(1, 100)

g = build_max_graph(c, eps, minimal_only=False)
print(f"exhaustive graph at eps = {eps}: {g.num_nodes} nodes")
print(dump_graph(g), end="")

size, witness = independence_number(g)
pairs = [(node.input, node.outputs) for node in witness]
print("\nindependence number:", size)
print("witness nodes:", [[x, list(outputs)] for x, outputs in pairs])

# Restricting nodes to inclusion-minimal decoding sets shrinks the graph
# without changing the answer: a set can always be shrunk in place.
g_min = build_max_graph(c, eps, minimal_only=True)
size_min, _ = independence_number(g_min)
print(f"\nminimal-set graph: {g_min.num_nodes} nodes, same alpha = {size_min}")

# The witness, a tuple of (input, decoding set) nodes, converts into a
# working scheme: claimed outputs decode to their input, leftovers to the
# first codeword.
scheme = scheme_from_disjoint_sets(c, pairs)
print("\nscheme from witness:", scheme)
print("worst error:", max_error(c, scheme), "<=", eps)
