"""Designing devices: the solution catalog and least-squares search.

Verifies every cataloged solution, sweeps the analytic qutrit relation,
and runs a short multi-start Levenberg-Marquardt search for qubit truncators.
"""

import numpy as np

from qscissors import (GqsdSpec, MeasurementEvent, SearchConfig,
                       TruncationTarget, conditional_amplitudes, optimize,
                       qutrit_bs_relation, refine, truncation_defect,
                       verify_catalog)

print("=== catalog of published solutions ===")
results = verify_catalog()
width = max(len(r.name) for r in results)
for r in results:
    status = "ok " if r.passed else "BAD"
    print(f"  {status} {r.name:<{width}}  defect = {r.defect:.2e}  "
          f"|c| = {r.amplitude:.6f}")

print("\n=== qutrit transmittance relation ===")
print("for each T1 there are two partner T4 values; the heralding phase")
print("xi4 is 0 when the branch sign matches sign(2 T1 - 1), pi otherwise")
event = MeasurementEvent((1, 1, 0), (1, 0, 1))
for t1 in (0.10, 0.2113, 0.35, 0.65, 0.7887):
    for branch in (+1, -1):
        t4 = qutrit_bs_relation(t1, branch)
        xi4 = 0.0 if branch * (2 * t1 - 1) > 0 else np.pi
        spec = GqsdSpec([t1, 1, 1, t4, 1], (0, 0, 0, xi4, 0, 0))
        c = conditional_amplitudes(spec, event)
        defect = truncation_defect(c, TruncationTarget.full(3))
        print(f"  T1 = {t1:.4f}  branch {branch:+d}  T4 = {t4:.4f}  "
              f"|c0| = {abs(c.c[0]):.6f}  defect = {defect:.2e}")
print("the amplitude peaks at T1 = (3 - sqrt 3)/6 ~ 0.2113 and its mirror")

print("\n=== multi-start search: qubit truncators ===")
config = SearchConfig(seeds=6, max_iterations=2000, convergence_tol=1e-10,
                      random_seed=1, fix_t3=1.0)
records = optimize(MeasurementEvent((1, 0, 0), (0, 0, 1)),
                   TruncationTarget.full(2), config)
print(f"{len(records)} distinct solutions (sorted by success amplitude):")
for rec in records:
    t = ", ".join(f"{v:.4f}" for v in rec.spec.transmittances)
    print(f"  |c0| = {rec.amplitude:.6f}  defect = {rec.defect:.1e}  T = [{t}]")

print("\n=== polishing a rounded solution ===")
rounded = GqsdSpec([0.78494, 0.69001, 1, 0.87451, 0.70185],
                   (0, 0, 0, 0, np.pi, 0))
quartit_event = MeasurementEvent((1, 1, 1), (1, 1, 1))
before = truncation_defect(conditional_amplitudes(rounded, quartit_event),
                           TruncationTarget.full(4))
refined, after = refine(rounded, quartit_event, TruncationTarget.full(4),
                        tol=1e-10, fix_t3=1.0)
print(f"defect at 5-decimal parameters: {before:.2e}")
print(f"defect after local refinement:  {after:.2e}")
print("refined T =", np.round(refined.transmittances, 8))
