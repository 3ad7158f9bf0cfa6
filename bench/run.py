"""hurwitzcalc benchmark: run one workload at one seed, untraced or traced.

    python3 bench/run.py --workload certify_sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md): certify_sweep, directrix_grid, cli_cold.  Every
op is checked against the references recorded from the engine in
`references/`; an op that raises, exits with an unexpected code or gives
a different result counts as failed.

The run first times `SETUP_SPAWNS` fresh interpreters up to the engine
being imported (`setup_s`), then runs whole passes over the workload's op
list, each in a fresh process (cli_cold: each op in a fresh process).  The
number of passes follows from `--seconds` alone, so a faster engine does
not change the sample count.  Op times are also reported normalized by a
reference task timed between ops (clock.py); those are the bounded
metrics.  `--trace 1` alternates untraced and traced passes and reports
the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The exit
code is 0 when every op matched its reference, 1 when some op failed, and
2 when the benchmark could not run (for instance without the engine's
source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads
from clock import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Typical seconds of one untraced pass on a 2-core box; only used to turn
# --seconds into a pass count (3, 3 and 1 passes at --seconds 36).
NOMINAL_PASS_S = {"certify_sweep": 10.0, "directrix_grid": 10.0, "cli_cold": 22.0}
# The end-to-end metrics of the JSON line; the report prints all of them.
JSON_METRICS = ("setup_s", "wall_cal", "op_p50_cal", "op_tail_cal",
                "peak_rss_mb")
SETUP_SPAWNS = 7
DEADLINE_S = 150.0        # start no pass after this; a run must end in 180 s
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
READY_CODE = "import hurwitzcalc, hurwitzcalc.cli; print('ready', flush=True)"


class BenchError(Exception):
    """The benchmark could not run."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"       # same hashing, so counts repeat
    return env


def spawn(argv: list[str], env: dict[str, str]) -> dict:
    """Run a child to completion; returns its exit code, output, start
    time, seconds from spawn to exit and peak RSS in KiB."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "stdout": out.decode(), "stderr": err.decode(),
            "start": start, "seconds": elapsed, "rss_kb": usage.ru_maxrss}


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from spawning an interpreter to the engine being imported."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", READY_CODE], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            with proc.stdout, proc.stderr:
                line = proc.stdout.readline()
                ready = time.monotonic() - start
                proc.stdout.read()
                err = proc.stderr.read()
        finally:
            proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"engine import failed: {err.decode().strip()}")
        samples.append(ready)
    return samples


def run_worker_pass(workload: str, seed: int, traced: bool,
                    env: dict[str, str]) -> dict:
    child = spawn([sys.executable, str(BENCH / "worker.py"), workload,
                   str(seed), "1" if traced else "0"], env)
    if child["rc"] != 0:
        raise BenchError(f"worker exited {child['rc']}: {child['stderr'].strip()}")
    result = json.loads(child["stdout"].splitlines()[-1])
    result["rss_kb"] = child["rss_kb"]
    return result


def run_cli_pass(ops: list[tuple], references: dict, traced: bool,
                 env: dict[str, str]) -> dict:
    """One closed-loop pass of cli_cold: each call in a fresh interpreter,
    started when the previous one has exited.  Each call's reference task is
    the start-up of a bare interpreter, timed after every call: start-up
    follows the host's drift far more closely than a loop in this process
    does."""
    def bare_start() -> float:
        return spawn([sys.executable, "-c", "pass"], env)["seconds"]

    clock, failures, summaries = Clock(bare_start, segment_s=0.0), [], []
    interp, imports, execs = [], [], []
    json_bytes = rss_kb = 0
    for op in ops:
        argv = list(op[1:])
        cmd = ([sys.executable, str(BENCH / "cli_shim.py")] if traced
               else [sys.executable, "-m", "hurwitzcalc.cli"]) + argv
        child = spawn(cmd, env)
        clock.record(child["seconds"])
        rss_kb = max(rss_kb, child["rss_kb"])
        if traced:
            mark = [line for line in child["stderr"].splitlines()
                    if line.startswith("@@trace ")]
            if not mark:
                raise BenchError(f"traced call {argv} left no trace: "
                                 f"{child['stderr'].strip()}")
            info = json.loads(mark[-1][len("@@trace "):])
            interp.append(info["started"] - child["start"])
            imports.append(info["import_s"])
            execs.append(info["trace"]["span_s"].get("cli", 0.0))
            summaries.append(info["trace"])
        try:
            result = workloads.cli_result(op[1:], child["rc"], child["stdout"])
        except ValueError as exc:
            result = {"error": f"unparsable output: {exc}"}
        if argv[:2] == ["yeff", "certify"] and "--json" in argv:
            json_bytes += len(child["stdout"].encode())
        problem = workloads.check(op, result, references)
        if problem:
            failures.append([workloads.op_key(op), problem])
    clock.flush()
    result = {"times": clock.raw, "norm": clock.norm, "cal": clock.cal,
              "failures": failures, "json_bytes": json_bytes,
              "rss_kb": rss_kb, "trace": None}
    if traced:
        result["trace"] = tracing.merge(summaries)
        result["cli"] = {"interp_s": interp, "import_s": imports,
                         "exec_s": execs}
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it:
    (percentile, value, samples beyond the value)."""
    n = len(samples)
    pct = max([p for p in TAIL_LADDER if n * (100 - Fraction(str(p))) >= 1000],
              default=TAIL_LADDER[0])
    ordered = sorted(samples)
    pos = pct / 100 * (n - 1)
    low = int(pos)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return pct, value, sum(1 for x in ordered if x > value)


def end_to_end(passes: list[dict], setup: list[float], n_ops: int) -> dict:
    """Raw times in seconds and ms, and normalized ones in cal (see
    clock.py).  `JSON_METRICS` names the ones the JSON line carries."""
    walls = [sum(p["times"]) for p in passes]
    times = [t for p in passes for t in p["times"]]
    norms = [t for p in passes for t in p["norm"]]
    wall = statistics.median(walls)
    pct, value, beyond = tail(times)
    norm_pct, norm_value, norm_beyond = tail(norms)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (n_ops / wall, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_tail_ms": (value * 1000, "ms",
                       f"p{pct:g}, {beyond} of {len(times)} samples beyond"),
        "wall_cal": (statistics.median(sum(p["norm"]) for p in passes), "cal"),
        "op_p50_cal": (statistics.median(norms), "cal"),
        "op_tail_cal": (norm_value, "cal", f"p{norm_pct:g}, {norm_beyond} of "
                        f"{len(norms)} samples beyond"),
        "calibration_ms": (statistics.median(
            c for p in passes for c in p["cal"]) * 1000, "ms"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


PENCIL_DELTA = tuple(f"family_calc.{kind}_pencil_delta"
                     for kind in ("trigonal", "tetragonal", "hyperelliptic"))


def per_layer(traced: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics of the traced passes (medians over them; the counts
    are the same in every pass)."""
    def metrics_of(p: dict) -> dict:
        s = p["trace"]
        calls, distinct = s["calls"], s["distinct"]

        def n(*names):
            return sum(calls.get(name, 0) for name in names)

        def ratio(*names):
            total = n(*names)
            return sum(distinct.get(name, 0) for name in names) / total \
                if total else 0.0

        rf_ops = sum(v for k, v in calls.items()
                     if k.startswith("symkernel.RationalFunction."))
        self_s, span_s, yeff = s["self_s"], s["span_s"], s["yeff"]
        cli = p.get("cli")
        out = {
            "symkernel.poly_mul.calls": n("symkernel.Poly.__mul__"),
            "symkernel.poly_add.calls": n("symkernel.Poly.__add__"),
            "symkernel.poly_new.calls": n("symkernel.Poly.__init__"),
            "symkernel.rf_ops.calls": rf_ops,
            "symkernel.self_s": self_s.get("symkernel", 0.0),
            "chow.ring_build.calls": n("chow.ChowPresentation.__init__"),
            "chow.ring_build.distinct_ratio": ratio(
                "chow.ChowPresentation.__init__"),
            "chow.normal_form.calls": n("chow.ChowPresentation.normal_form"),
            "chow.normal_form.distinct_ratio": ratio(
                "chow.ChowPresentation.normal_form"),
            "chow.ring_eq.calls": n("chow.ChowPresentation.__eq__"),
            "chow.class_mul.calls": n("chow.ChowClass.__mul__"),
            "chow.integrate.calls": n("chow.ChowClass.integrate"),
            "chow.self_s": self_s.get("chow", 0.0),
            "family_calc.pentagonal_symbolic.calls": n(
                "family_calc.pentagonal_pencil_symbolic"),
            "family_calc.pentagonal_symbolic.distinct_ratio": ratio(
                "family_calc.pentagonal_pencil_symbolic"),
            "family_calc.pencil_delta.calls": n(*PENCIL_DELTA),
            "family_calc.pencil_delta.distinct_ratio": ratio(*PENCIL_DELTA),
            "family_calc.span_s": span_s.get("family_calc", 0.0),
            "family_calc.self_s": self_s.get("family_calc", 0.0),
            "directrix.class.calls": n("directrix.rotating_directrix_class"),
            "directrix.span_s": span_s.get("directrix", 0.0),
            "directrix.self_s": self_s.get("directrix", 0.0),
            "divisor_classes.class_x.calls": n("divisor_classes.class_x"),
            "divisor_classes.span_s": span_s.get("divisor_classes", 0.0),
            "graphs.enumerate.calls": n("graphs.enumerate_two_vertex"),
            "graphs.span_s": span_s.get("graphs", 0.0),
            "yeff.build_rules_s": yeff.get("build_rules_s", 0.0),
            "yeff.margin_s": yeff.get("margin_s", 0.0),
            "yeff.propagate_s": yeff.get("propagate_s", 0.0),
            "yeff.serialize_s": yeff.get("serialize_s", 0.0),
            "yeff.cert_json_bytes": p["json_bytes"],
            "yeff.rules.count": yeff.get("rules", 0),
            "yeff.rules.reconstructed": yeff.get("reconstructed", 0),
        }
        for part in ("interp_s", "import_s", "exec_s"):
            out[f"cli.{part}"] = statistics.median(cli[part]) if cli else 0.0
        return out

    each = [metrics_of(p) for p in traced]
    merged = {name: (statistics.median(m[name] for m in each),
                     _layer_unit(name)) for name in each[0]}
    merged["trace.overhead_ratio"] = (
        statistics.median(sum(p["norm"]) for p in traced)
        / statistics.median(untraced_walls), "ratio")
    return merged


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """The checked-out commit, read from .git in this tree only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()} ({sys.executable}), "
            f"nproc {len(os.sched_getaffinity(0))}, git {git_sha()}, "
            f"loadavg {load}")


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "hurwitzcalc" / "__init__.py").is_file():
        raise BenchError(f"engine source not found under {SRC}")
    env = child_env()
    ops = workloads.op_list(workload, seed)
    references = workloads.load_references(workload)
    print(f"# {workload} seed {seed} trace {int(traced)}: {len(ops)} ops a pass")
    print(f"# env: {environment()}")

    def one_pass(traced_pass: bool) -> dict:
        if workload == "cli_cold":
            return run_cli_pass(ops, references, traced_pass, env)
        return run_worker_pass(workload, seed, traced_pass, env)

    started = time.monotonic()
    setup = [] if traced else measure_setup(env)
    nominal = NOMINAL_PASS_S[workload]
    rounds = max(1, int(seconds // (3 * nominal if traced else nominal)))
    plain, with_trace, last = [], [], 0.0
    for _ in range(rounds):
        if plain and time.monotonic() - started + last > DEADLINE_S:
            break
        round_start = time.monotonic()
        plain.append(one_pass(False))
        if traced:
            with_trace.append(one_pass(True))
        last = time.monotonic() - round_start
    passes = plain + with_trace
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"# {len(plain)} untraced and {len(with_trace)} traced passes in "
          f"{time.monotonic() - started:.1f} s; env after: {environment()}")

    if traced:
        metrics = per_layer(with_trace, [sum(p["norm"]) for p in plain])
    else:
        metrics = end_to_end(plain, setup, len(ops))
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"{name:48s} {value:14.6f} {unit}{extra}")
    print(f"{'fail_ratio':48s} {len(failures) / attempted:14.6f} ratio"
          f"  ({len(failures)} of {attempted} ops)")
    for key, problem in failures[:10]:
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    names = list(metrics) if traced else JSON_METRICS
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names}}))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
