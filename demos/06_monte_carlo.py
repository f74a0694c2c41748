"""Monte-Carlo validation of a capacity witness.

Sampling is exact (each trial draws u from range(q) and errs when u < p,
for the codeword's exact error p/q) and seeded, so a report is
reproducible bit for bit.  Empirical error rates concentrate
around the exact per-codeword errors at the usual 1/sqrt(trials) scale.
"""

import json
from fractions import Fraction

from oneshotcap import FunnelSpec, gen_funnel, max_capacity, simulate

c = gen_funnel(FunnelSpec.make(3, ["1/100", "1/50"]))
result = max_capacity(c, Fraction(1, 100))
print("witness scheme:", result.witness)

trials = 200_000
report = simulate(c, result.witness, trials=trials, seed=7)
for stats in report.per_codeword:
    sigma = (float(stats.exact_error) * (1 - float(stats.exact_error)) / trials) ** 0.5
    print(f"codeword {stats.codeword}: exact {stats.exact_error} "
          f"(~{float(stats.exact_error):.5f}), empirical {stats.error_rate:.5f}, "
          f"one sigma ~ {sigma:.5f}")

print("\nempirical max/avg:", report.empirical_max, report.empirical_avg)
print("exact max/avg:    ", report.exact_max, report.exact_avg)

print("\nfull JSON report:")
print(json.dumps(report.to_json_dict(), indent=2))
