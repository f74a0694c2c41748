"""Deterministic random-channel corpora shared across test modules."""

from fractions import Fraction

from oneshotcap import Channel, gen_random

# Rows over 2, 3 and two coprime denominators near 2^31, so that the
# channel's scale (their lcm) exceeds 2^62.
P, Q = 2**31 - 1, 2**31 - 19
COPRIME = Channel.make([
    [Fraction(1, 2), Fraction(1, 2), 0, 0],
    [Fraction(1, 3), 0, Fraction(2, 3), 0],
    [Fraction(P // 3, P), Fraction(P // 4, P), Fraction(P - P // 3 - P // 4, P), 0],
    [0, Fraction(Q // 5, Q), Fraction(Q // 2, Q), Fraction(Q - Q // 5 - Q // 2, Q)],
])


def random_channels(count, seed0, max_inputs=4, max_outputs=4, square_ish=False,
                    denominator_bound=12):
    """Seeded corpus of random channels, dimensions cycling through the grid.

    square_ish restricts to nx <= ny, the regime where the sparse-set
    characterization of the average capacity coincides with the codebook
    search on this corpus (no codeword ever has to be sacrificed outright;
    see test_capacity.test_sparse_path_sacrifice_gap for the boundary).
    """
    out = []
    for i in range(count):
        nx = 1 + i % max_inputs
        if square_ish:
            ny = nx + (i // max_inputs) % (max_outputs + 1 - nx)
        else:
            ny = 1 + (i // max_inputs) % max_outputs
        out.append(gen_random(nx, ny, seed=seed0 + i, denominator_bound=denominator_bound))
    return out
