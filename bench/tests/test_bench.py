"""Tests of the benchmark itself (not of the engine):

    python3 -m pytest -q bench/tests
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import worker
import workloads

IN_PROCESS_OPS = [("certify", 3, 6), ("certify", 4, 9), ("family", 4, 2, -3, 5),
                  ("family", 6, 1, 0, -5), ("maroni", 7), ("maroni", 16)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_alone_fixes_the_op_list(workload):
    first = workloads.op_list(workload, 7)
    assert first == workloads.op_list(workload, 7)
    assert first != workloads.op_list(workload, 8)
    assert len(first) == len(workloads.op_list(workload, 8))
    if workload != "cli_cold":
        assert sorted(first) == sorted(workloads.op_list(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_has_a_reference(workload):
    references = workloads.load_references(workload)
    for seed in range(5):
        for op in workloads.op_list(workload, seed):
            assert workloads.op_key(op) in references


def test_traced_run_gives_the_same_results():
    from hurwitzcalc import yeff
    original = yeff.certify
    untraced = [workloads.describe(op, workloads.execute(op))
                for op in IN_PROCESS_OPS]
    tracer = tracing.Tracer().install()
    try:
        assert yeff.certify is not original
        traced = [workloads.describe(op, workloads.execute(op, tracer))
                  for op in IN_PROCESS_OPS]
    finally:
        tracer.restore()
    assert yeff.certify is original
    assert traced == untraced
    summary = tracer.summary()
    assert summary["calls"]["yeff.certify"] == 2
    assert summary["calls"]["directrix.rotating_directrix_class"] >= 2
    assert summary["calls"]["symkernel.Poly.__mul__"] > 0
    assert summary["yeff"]["rules"] > 0


def test_traced_cli_call_gives_the_same_output():
    env = run.child_env()
    for argv in (["slope", "4", "9", "--json"], ["slope", "3", "5"]):
        plain = run.spawn([sys.executable, "-m", "hurwitzcalc.cli", *argv], env)
        traced = run.spawn([sys.executable, str(run.BENCH / "cli_shim.py"),
                            *argv], env)
        assert (traced["rc"], traced["stdout"]) == (plain["rc"], plain["stdout"])
        mark = traced["stderr"].splitlines()[-1]
        assert mark.startswith("@@trace ")
        info = json.loads(mark[len("@@trace "):])
        assert info["trace"]["calls"]["cli.main"] == 1


def test_tampered_reference_fails_the_op():
    for op in IN_PROCESS_OPS:
        references = workloads.load_references(
            "certify_sweep" if op[0] == "certify" else "directrix_grid")
        result = workloads.describe(op, workloads.execute(op))
        assert workloads.check(op, result, references) is None
        tampered = copy.deepcopy(references)
        ref = tampered[workloads.op_key(op)]
        if op[0] == "certify":
            label = sorted(ref["bounds"])[0]
            ref["bounds"][label] += "+1"
        elif op[0] == "family":
            ref["degree"] = str(int(ref["degree"]) + 1)
        else:
            ref["count"] = "0"
        assert workloads.check(op, result, tampered) is not None


def test_tampered_cli_reference_fails_the_op():
    op = ("cli", "slope", "4", "9", "--json")
    references = workloads.load_references("cli_cold")
    child = run.spawn([sys.executable, "-m", "hurwitzcalc.cli", *op[1:]],
                      run.child_env())
    result = workloads.cli_result(op[1:], child["rc"], child["stdout"])
    assert workloads.check(op, result, references) is None
    tampered = copy.deepcopy(references)
    tampered[workloads.op_key(op)]["stdout"]["slope"] = "7"
    assert workloads.check(op, result, tampered) is not None


def test_pass_counts_a_tampered_op_as_failed(monkeypatch):
    ops = [("maroni", 3), ("family", 3, 1, 0, 0)]
    references = workloads.load_references("directrix_grid")
    references["maroni 3"] = {"count": "-1"}
    monkeypatch.setattr(workloads, "op_list", lambda workload, seed: ops)
    monkeypatch.setattr(workloads, "load_references", lambda workload: references)
    for traced in (False, True):
        result = worker.run_pass("directrix_grid", 0, traced)
        assert len(result["times"]) == 2
        assert [key for key, _ in result["failures"]] == ["maroni 3"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)])[0] == 90
    assert run.tail([float(x) for x in range(78)])[0] == 75
    pct, value, beyond = run.tail([float(x) for x in range(1000)])
    assert (pct, beyond) == (99, 10)


def test_fails_without_the_engine_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_normalized_time_divides_by_the_bracketing_references():
    from clock import Clock
    references = iter([2.0, 4.0, 1.0, 3.0])
    clock = Clock(lambda: next(references), segment_s=1.0)
    for seconds in (0.25, 0.75, 3.0):   # two segments: [0.25, 0.75], [3.0]
        clock.record(seconds)
    clock.flush()
    assert clock.raw == [0.25, 0.75, 3.0]
    assert clock.norm == [0.25 / 3.0, 0.75 / 3.0, 3.0 / 2.5]
    assert clock.cal == [2.0, 4.0, 1.0]
