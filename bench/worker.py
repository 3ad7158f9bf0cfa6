"""One pass of an in-process workload (certify_sweep or directrix_grid),
run in this fresh interpreter.  Prints one JSON line: the time of every
op, the ops whose result differs from the reference, the certificate JSON
bytes and, when traced, the tracer's summary.

    PYTHONPATH=src python bench/worker.py WORKLOAD SEED TRACE
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from clock import Clock


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    ops = workloads.op_list(workload, seed)
    references = workloads.load_references(workload)
    import hurwitzcalc  # noqa: F401  (imported before timing)
    tracer = tracing.Tracer().install() if traced else None
    try:
        return _run_ops(ops, references, tracer)
    finally:
        if tracer:
            tracer.restore()


def _describe(op: tuple, raw) -> dict:
    """The op's result, or the error that makes it count as failed."""
    if isinstance(raw, Exception):
        return {"error": f"{type(raw).__name__}: {raw}"}
    try:
        return workloads.describe(op, raw)
    except Exception as exc:   # a result of another shape
        return {"error": f"{type(exc).__name__}: {exc}"}


def _run_ops(ops: list[tuple], references: dict, tracer) -> dict:
    clock, failures, json_bytes = Clock(), [], 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        start = perf_counter()
        try:
            with tracer.span("op", "bench") if tracer else nullcontext():
                raw = workloads.execute(op, tracer)
        except Exception as exc:   # an op that raises counts as failed
            raw = exc
        clock.record(perf_counter() - start)
        with tracer.paused() if tracer else nullcontext():
            result = _describe(op, raw)
        json_bytes += result.get("json_bytes", 0)
        problem = workloads.check(op, result, references)
        if problem:
            failures.append([workloads.op_key(op), problem])
    clock.flush()
    return {"times": clock.raw, "norm": clock.norm, "cal": clock.cal,
            "failures": failures, "json_bytes": json_bytes,
            "trace": tracer.summary() if tracer else None}


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    import hurwitzcalc
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(hurwitzcalc.__file__).resolve().parent.parent != src:
        print(f"engine imported from {hurwitzcalc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(json.dumps(run_pass(workload, seed, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
