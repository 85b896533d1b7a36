"""Run the seeded invariant suite and print the structured report.

Every documented invariant - kernel identities, module axioms, the
derivative properties, the orthogonality implication chains, the oracle
cross-checks - replays on seeded random instances.  The report is
deterministic for a fixed seed, apart from the wall time of each property,
and is the same document the command line emits via ``rhoperp check``.
"""

from rhoperp import property_suite

report = property_suite(seed=0, trials=60)

print(f"seed = {report.seed}, trials = {report.trials}, all_pass = {report.all_pass}\n")
print(f"{'property':34s} {'trials':>6s} {'failures':>8s} {'worst margin':>14s} {'seconds':>8s}")
for r in report.results:
    wm = "-" if r.worst_margin is None else f"{r.worst_margin:.3e}"
    print(f"{r.name:34s} {r.trials:6d} {r.failures:8d} {wm:>14s} {r.seconds:8.3f}")

print("\nJSON document (as emitted by the CLI):")
print(report.to_json()[:400] + " ...")
