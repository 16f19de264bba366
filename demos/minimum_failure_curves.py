"""Minimum failure probability for a fixed degree of separation.

Sweeps the optimal failure probability Q_min against the prior eta1 for
several target overlaps, reproduces the two closed-form endpoints, and
cross-checks a few points against the brute-force oracle.
"""

from statesep import OverlapSpec, Priors, oracle_qmin, qmin_at, qmin_curve

S = 0.6
TARGETS = (0.05, 0.3, 0.5, 0.59)

print(f"Q_min(eta1) for s = {S}, several target overlaps s'\n")
etas = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
print(f"{'s_prime':>8} | " + " ".join(f"eta1={e:<5}" for e in etas))
for sp in TARGETS:
    ov = OverlapSpec(S, sp)
    row = [qmin_at(Priors.of(e), ov)[0] for e in etas]
    print(f"{sp:8.2f} | " + " ".join(f"{q:10.6f}" for q in row))

print("\nEndpoints in closed form, for s' = 0.3:")
sp = 0.3
print(f"  equal priors:  Q = (s - s')/(1 - s')     = {(S - sp) / (1 - sp):.6f}")
print(f"  eta1 -> 0:     Q = (s^2 - s'^2)/(1-s'^2) = {(S**2 - sp**2) / (1 - sp**2):.6f}")

samples = qmin_curve(OverlapSpec(S, sp), n_samples=7)
print("\nThe same curve traced by its parametrization (t, eta1, Q_min):")
for smp in samples:
    print(f"  t={smp.t:.4f}  eta1={smp.eta1:.4f}  Q_min={smp.q_min:.6f}"
          f"  at (q1, q2)=({smp.point.q1:.4f}, {smp.point.q2:.4f})")

print("\nBrute-force oracle cross-check (direct search along the curve, no parametrization):")
for eta1 in (0.1, 0.3, 0.5):
    pr = Priors.of(eta1)
    solver_q, _ = qmin_at(pr, OverlapSpec(S, sp))
    oracle_q, _ = oracle_qmin(pr, OverlapSpec(S, sp))
    print(f"  eta1={eta1}: solver {solver_q:.12f}  oracle {oracle_q:.12f}"
          f"  diff {abs(solver_q - oracle_q):.1e}")
