"""The full tradeoff between separation and failure rate at fixed s.

One parametric sweep per prior: failure budget Q on one axis, reachable
final overlap s' on the other, from the trivial protocol (Q = 0, s' = s)
down to full separation at the discrimination cost.
"""

from statesep import OverlapSpec, Priors, q_ud, qmin_at, tradeoff_at, tradeoff_curve

S = 0.6

for eta1 in (0.1, 0.5):
    pr = Priors.of(eta1)
    print(f"Tradeoff at s = {S}, eta1 = {eta1} "
          f"(discrimination cost {q_ud(pr, S):.4f}):")
    print(f"{'theta':>9} {'Q':>10} {'s_prime':>10}")
    for smp in tradeoff_curve(pr, S, n_samples=9):
        print(f"{smp.theta:9.4f} {smp.q:10.6f} {smp.s_prime:10.6f}")
    print()

print("Skewed priors separate more cheaply: every row of the eta1 = 0.1")
print("table sits below the equal-prior one at the same budget.\n")

print("The sweep inverts cleanly: pick a target, price it, then ask the")
print("tradeoff curve what that price buys back.")
for eta1, sp in ((0.1, 0.3), (0.5, 0.2)):
    pr = Priors.of(eta1)
    q, _ = qmin_at(pr, OverlapSpec(S, sp))
    back = tradeoff_at(pr, S, q)
    print(f"  eta1={eta1}: separating to s'={sp} costs Q={q:.6f}; "
          f"budget Q={q:.6f} buys s'={back.s_prime:.6f}")
