"""Channels, schemes, and exact error arithmetic.

A channel is a matrix of exact rational transition probabilities; a scheme
is a codebook plus a total decoder.  Everything below is computed with
fractions.Fraction, so comparisons against error budgets are exact.
"""

from fractions import Fraction

from oneshotcap import (
    Scheme,
    avg_error,
    max_error,
    parse_channel,
    per_codeword_errors,
    serialize_channel,
)

# A 3-symbol channel: symbol 0 is noiseless, symbols 1 and 2 leak into
# output 0 with probability 1/100 and 1/50.
text = """
channel 3 3
1     0      0
0.01  0.99   0
0.02  0      0.98
"""

c = parse_channel(text)
print("parsed channel:")
print(serialize_channel(c), end="")
print("decimals became exact fractions: P(0|1) =", c.rows[1][0])

# Keep symbols 1 and 2; decode output 1 to symbol 1, everything else to 2.
scheme = Scheme(codebook=(1, 2), decoder=(2, 1, 2))
print("\nscheme:", scheme)
for x, err in per_codeword_errors(c, scheme).items():
    print(f"  codeword {x}: error {err}")
print("worst-codeword error:", max_error(c, scheme))
print("mean error:          ", avg_error(c, scheme))

# The two metrics answer different admissibility questions.
budget = Fraction(1, 200)
print(f"\nwithin budget {budget}?",
      "max:", max_error(c, scheme) <= budget,
      "avg:", avg_error(c, scheme) <= budget)
