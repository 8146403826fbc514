"""Record the reference outputs the workloads are checked against.

    python3 perfbench/record_refs.py

Writes ``perfbench/refs/{catalog,large,subgroups}.json`` from the library in
this checkout.  Run it only at a commit whose outputs are trusted: the
references are the correctness gate for every later run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_library  # noqa: E402
from workloads import CATALOG_ORDER, LARGE_GROUPS, REFS, SUBGROUPS_ORDER, class_subgraphs  # noqa: E402


def main() -> int:
    eg = import_library()
    result = eg.survey(CATALOG_ORDER)
    catalog = {
        "summary": eg.summary_json(result),
        "reports": {r.name: eg.write_report(r) for r in result.reports},
        "verdicts": [v.name for v in eg.verify_theorems(CATALOG_ORDER)],
    }
    large = {}
    for name in LARGE_GROUPS:
        evaluation = eg.evaluate_group(name)
        report = json.loads(eg.write_report(evaluation.report))
        report.pop("name")
        large[name] = {"report": report, "classSubgraphs": class_subgraphs(eg, evaluation)}
    subgroups = {}
    for plan in eg.catalog_plans(SUBGROUPS_ORDER):
        G = eg.build_group(plan)
        subgroups[G.name] = [
            len(eg.fitting_subgroup(G)),
            len(eg.conjugacy_classes(G)),
            len(eg.derived_subgroup(G)),
        ]
    REFS.mkdir(exist_ok=True)
    for name, data in (("catalog", catalog), ("large", large), ("subgroups", subgroups)):
        (REFS / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
