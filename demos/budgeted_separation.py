"""Maximum separation under a failure budget, and what it buys a cloner.

For a failure budget Q_max, small overlaps can be separated completely;
past a critical initial overlap the reachable final overlap lifts off
zero.  The same machinery bounds probabilistic perfect cloning: n clones
multiply the overlap to s**n, so the budget caps n.
"""

from statesep import (
    UNBOUNDED,
    OverlapSpec,
    Priors,
    critical_overlap,
    max_clones,
    max_separation,
    oracle_qmin,
)

Q_MAX = 0.35
PRIORS = Priors.of(0.3)

s_cr = critical_overlap(PRIORS, Q_MAX)
print(f"Budget Q_max = {Q_MAX}, priors (eta1, eta2) = ({PRIORS.eta1}, {PRIORS.eta2})")
print(f"Critical overlap s_cr = {s_cr:.6f}: below it, full separation fits.\n")

print("The brute-force oracle's minimum failure at the solver's s' meets the")
print("budget wherever it binds; below s_cr full separation costs less.\n")
print(f"{'s':>6} {'s_prime_min':>12} {'oracle Q':>12} {'Q_max - Q':>10}")
for s in (0.2, s_cr, 0.4, 0.6, 0.8, 0.95):
    sp, _ = max_separation(PRIORS, s, Q_MAX)
    q_oracle, _ = oracle_qmin(PRIORS, OverlapSpec(s, sp))
    print(f"{s:6.3f} {sp:12.6f} {q_oracle:12.6f} {Q_MAX - q_oracle:10.1e}")

print("\nThe s = 0.4 row is the tangency worked example: the optimal parabola")
print("touches the budget ellipse at s' close to 0.032.\n")

print("Cloning bound at equal priors:")
print(f"{'s':>6} {'Q_max':>7} {'s_prime_min':>12} {'n_max':>6}")
for s, q in ((0.6, 0.3), (0.9, 0.5), (0.3, 0.9), (0.6, 0.0)):
    pr = Priors.of(0.5)
    sp, _ = max_separation(pr, s, q)
    n = max_clones(s, q, pr)
    n_str = "unbounded" if n is UNBOUNDED else str(n)
    print(f"{s:6.2f} {q:7.2f} {sp:12.6f} {n_str:>6}")
print("\nA budget at or above the discrimination cost separates completely,")
print("so any number of clones can be cut; a zero budget leaves s' = s and")
print("exactly the one copy we started with.")
