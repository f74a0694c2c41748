"""Averaging over codewords buys capacity the worst case cannot.

At eps = 1/200 the funnel channel fits only one codeword under the
worst-case metric, but two under the mean metric: one codeword runs
error-free and subsidizes the other.  The weighted conflict graph tells
the same story through eps-sparse sets: finite edge weights add the two
escape masses, and a set is eps-sparse when its induced weight stays
within eps * k * (k-1).  A node is an (input, decoding set) pair, with
the set held as a bitmask of outputs.
"""

from fractions import Fraction

from oneshotcap import (
    FunnelSpec,
    OneShotNode,
    avg_capacity,
    avg_error,
    build_avg_graph,
    gen_funnel,
    induced_weight_sum,
    is_sparse_set,
    max_capacity,
    sparse_number,
)

c = gen_funnel(FunnelSpec.make(3, ["1/100", "1/50"]))
eps = Fraction(1, 200)

k_max = max_capacity(c, eps).codebook_size
result = avg_capacity(c, eps)
print(f"eps = {eps}: max-metric k = {k_max}, avg-metric k = {result.codebook_size}")
print("avg witness:", result.witness, "mean error:", avg_error(c, result.witness))

g = build_avg_graph(c)
print(f"\nweighted graph: {g.num_nodes} nodes (positive-mass decoding sets)")

a = OneShotNode(1, 0b010)  # input 1 decoded from output 1
b = OneShotNode(2, 0b101)  # input 2 decoded from outputs 0 and 2
print("pair (1,{1}) + (2,{0,2}):",
      "weight", induced_weight_sum(g, [a, b]),
      "budget", eps * 2 * 1,
      "sparse:", is_sparse_set(g, [a, b], eps))

b = OneShotNode(2, 0b100)  # input 2 decoded from output 2
print("pair (1,{1}) + (2,{2}):  ",
      "weight", induced_weight_sum(g, [a, b]),
      "budget", eps * 2 * 1,
      "sparse:", is_sparse_set(g, [a, b], eps))

size, witness = sparse_number(g, eps)
print("\nsparse number:", size,
      "witness:", [[node.input, list(node.outputs)] for node in witness])
