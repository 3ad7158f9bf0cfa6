"""Record the correctness references from the current engine.

    python3 bench/record.py [WORKLOAD ...]

Runs every op that some seed can produce (not a seeded op list) and writes
`references/<workload>.json`, keyed by op, one op a line.  Run it only on
a tree whose numbers are trusted: the benchmark counts every later
difference from these files as a failed op.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def universe(workload: str) -> list[tuple]:
    if workload == "cli_cold":
        return [("cli",) + argv for argv in workloads.cli_universe()]
    return sorted(set(workloads.op_list(workload, 0)))


def record(workload: str) -> dict:
    references = {}
    env = run.child_env()
    for op in universe(workload):
        if op[0] == "cli":
            child = run.spawn([sys.executable, "-m", "hurwitzcalc.cli", *op[1:]],
                              env)
            result = workloads.cli_result(op[1:], child["rc"], child["stdout"])
        else:
            result = workloads.describe(op, workloads.execute(op))
        references[workloads.op_key(op)] = workloads.reference_of(op, result)
    return references


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        references = record(workload)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        entries = (f"{json.dumps(key)}: {json.dumps(references[key], sort_keys=True)}"
                   for key in sorted(references))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{\n" + ",\n".join(entries) + "\n}\n")
        print(f"{path.name}: {len(references)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
