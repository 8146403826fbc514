"""Survey every non-nilpotent catalog group up to an order bound and run
the theorem checks over the same range.  (The catalog is the constructible
families, not all isomorphism classes; the summary says exactly what was
checked.)

Equivalent CLI:  engel survey --max-order 60 --verify

Run from the repository root:  python demos/05_survey_and_verify.py
"""

from engelgraph import summary_json, survey, verify_theorems

result = survey(60)
print(f"catalog plans evaluated: {len(result.plans_checked)}")
print(f"non-nilpotent groups reported: {len(result.reports)}")
print(f"diameter histogram: {result.diameter_histogram}")
print(f"planar Engel graphs: {result.planar_groups}")
print(f"disconnected Engel graphs: {result.disconnected_groups or 'none found'}")
print()
print("largest graphs in range:")
for r in sorted(result.reports, key=lambda r: -r.metrics.vertex_count)[:5]:
    m = r.metrics
    print(
        f"  {r.name:10s} vertices={m.vertex_count:3d} edges={m.edge_count:4d} "
        f"clique={m.clique_number}"
    )
print()

for verdict in verify_theorems(60):
    status = "PASS" if verdict.passed else "FAIL"
    detail = f"  [{verdict.detail}]" if verdict.detail else ""
    print(f"{status} {verdict.name}{detail[:110]}")

# The full machine-readable summary (what `engel survey --out` writes):
print()
print(summary_json(result)[:400] + "...")
