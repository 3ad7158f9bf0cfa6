"""The benchmark's workloads: op lists made from a seed, op execution,
result description and the check against the recorded references.

An op is a tuple whose first item names its kind:

* ``("certify", d, g)``: `yeff.certify(d, g)` plus JSON serialization of
  the certificate (workload ``certify_sweep``);
* ``("family", n, r, a, l)``: the rotating-directrix pipeline of one family
  against its closed form (workload ``directrix_grid``);
* ``("maroni", g_r)``: `maroni_intersection_pentagonal(g_r)` (also
  ``directrix_grid``);
* ``("cli", *argv)``: one `python -m hurwitzcalc.cli` call in a fresh
  interpreter (workload ``cli_cold``).

The seed fixes the order of every op list.  For ``cli_cold`` it also picks
the arguments of the light commands; the number of commands of each kind,
and the arguments of the costly ones, are the same for every seed, so that
the median and the tail percentile land on the same kind of command.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from pathlib import Path

WORKLOADS = ("certify_sweep", "directrix_grid", "cli_cold")

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

ADMISSIBLE = {3: tuple(range(4, 41, 2)), 4: tuple(range(9, 34, 6)), 5: (16, 36)}

CERTIFY_POINTS = tuple((d, g) for d in (3, 4, 5) for g in ADMISSIBLE[d])

FAMILIES = tuple((n, r, a, l) for n in range(3, 7) for r in range(1, n - 1)
                 for a in range(-5, 6) for l in range(-5, 6))
MARONI_GENERA = tuple(range(80))

# ---------------------------------------------------------------------------
# cli_cold: light commands (import-dominated), drawn from pools by the seed
# ---------------------------------------------------------------------------

_CHOW_EXPRESSIONS = (
    ("p1xp1", "Rs*Rt"), ("p1xp1", "(2*Rs+3*Rt)^2"), ("p1xp1", "(Rs+Rt)^2"),
    ("hirzebruch:h", "tau^2"), ("hirzebruch:h", "(tau+2*f)^2"),
    ("projbundle:2:u", "z^2"), ("projbundle:3:u+v", "z^3"),
    ("projbundle:3:u+v", "z^2*f"), ("projspace:3", "H^3"),
    ("projspace_x_p1:3", "H^3*F"), ("projspace_x_p1:3", "(H+F)^4"),
)
_PENCIL_KINDS = ("trigonal_plain", "trigonal_unramified_3pts",
                 "trigonal_ramified_21", "trigonal_triple",
                 "hyperelliptic_plain", "hyperelliptic_3vertex",
                 "hyperelliptic_4vertex", "tetragonal_plain",
                 "tetragonal_unramified_4pts", "tetragonal_ramified_2pp")


def _light_pools() -> dict[str, list[tuple[str, ...]]]:
    def sargs(*items):
        return tuple(str(x) for x in items)

    return {
        "slope": [sargs("slope", d, g) for d, g in CERTIFY_POINTS],
        "class": [sargs("class", which, d, *at)
                  for which in ("maroni", "ce", "x") for d in (4, 5)
                  for at in ((), ("--at", ADMISSIBLE[d][0]),
                             ("--at", ADMISSIBLE[d][-1]))]
                 + [sargs("class", which, 3, *at) for which in ("maroni", "x")
                    for at in ((), ("--at", 4), ("--at", 40))],
        "pencil": [sargs("pencil", kind, "--gr", gr)
                   for kind in _PENCIL_KINDS for gr in range(1, 9)],
        "chow": [("chow", "eval", ring, expr) for ring, expr in _CHOW_EXPRESSIONS],
        "graphs": [sargs("graphs", "enum", "--d", d, "--g", g)
                   for d, g in CERTIFY_POINTS],
        "invariants": [sargs("invariants", "--d", d, "--g", g, "--ch2e", e,
                             "--ch2f", 0 if d == 3 else f, "--c1sq", s)
                       for d in (3, 4, 5) for g in ADMISSIBLE[d][:2]
                       for e in (1, 2) for f in (1, 3) for s in (3, 5)
                       if d != 3 or f == 1],
    }


# commands of each light kind in one pass of cli_cold
_LIGHT_COUNTS = {"slope": 10, "class": 10, "pencil": 10, "chow": 10,
                 "graphs": 10, "invariants": 10}

# calls expected to exit with code 2 (domain errors), once each
_FAILING = (("slope", "3", "5"), ("yeff", "certify", "--d", "3", "--g", "7"),
            ("chow", "eval", "foo", "x"), ("class", "maroni", "3", "--at", "3"))

# costly commands with fixed arguments.  In the 200 samples of two passes
# the p95 falls among the 34 `--g 12` calls, below the 4 selftests; with
# one pass the p90 falls at the same place.
_FIXED = ((("yeff", "certify", "--d", "3", "--g", "10", "--json"), 17),
          (("yeff", "certify", "--d", "3", "--g", "12", "--json"), 17),
          (("selftest",), 1), (("selftest", "--json"), 1))


def cli_universe() -> list[tuple[str, ...]]:
    """Every CLI call that some seed can produce."""
    calls = [argv + flag for pool in _light_pools().values() for argv in pool
             for flag in ((), ("--json",))]
    return calls + list(_FAILING) + [argv for argv, _ in _FIXED]


def op_list(workload: str, seed: int) -> list[tuple]:
    """The ops of one pass, fixed by the seed alone."""
    rng = random.Random(seed)
    if workload == "certify_sweep":
        ops = [("certify", d, g) for d, g in CERTIFY_POINTS]
    elif workload == "directrix_grid":
        ops = [("family",) + fam for fam in FAMILIES]
        ops += [("maroni", g_r) for g_r in MARONI_GENERA]
    elif workload == "cli_cold":
        pools = _light_pools()
        calls = []
        for kind, count in _LIGHT_COUNTS.items():
            for _ in range(count):
                flag = ("--json",) if rng.random() < 0.5 else ()
                calls.append(rng.choice(pools[kind]) + flag)
        calls += _FAILING
        calls += [argv for argv, count in _FIXED for _ in range(count)]
        ops = [("cli",) + argv for argv in calls]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def op_key(op: tuple) -> str:
    return " ".join(str(x) for x in op)


# ---------------------------------------------------------------------------
# In-process execution (certify_sweep, directrix_grid)
# ---------------------------------------------------------------------------

def execute(op: tuple, tracer=None):
    """Run one in-process op and return its raw result.  Engine functions
    are looked up on their modules at call time, so a traced run calls the
    wrappers."""
    from hurwitzcalc import directrix, yeff

    kind = op[0]
    if kind == "certify":
        cert = yeff.certify(op[1], op[2])
        with tracer.span("yeff.serialize", "yeff") if tracer else nullcontext():
            text = json.dumps(cert.to_json())
        return cert, text
    if kind == "family":
        fam = directrix.DirectrixFamily(*op[1:])
        degree = directrix.directrix_pushforward_degree(fam)
        pipeline = directrix.rotating_directrix_class(fam)
        closed = directrix.rotating_directrix_closed_form(fam)
        return degree, pipeline, closed, pipeline == closed
    if kind == "maroni":
        return directrix.maroni_intersection_pentagonal(op[1])
    raise ValueError(f"not an in-process op: {op!r}")


def _class_terms(cls) -> dict[str, str]:
    return {t["monomial"]: t["coeff"] for t in cls.to_json()["terms"]}


def describe(op: tuple, raw) -> dict:
    """The checked content of a raw result, as JSON data."""
    kind = op[0]
    if kind == "certify":
        cert, text = raw
        return {"status": cert.status,
                "bounds": {label: str(res.lower_bound)
                           for label, res in cert.per_graph.items()},
                "json_bytes": len(text.encode())}
    if kind == "family":
        degree, pipeline, closed, same = raw
        return {"degree": str(degree), "same": same,
                "closed": _class_terms(closed), "pipeline": _class_terms(pipeline)}
    if kind == "maroni":
        return {"count": str(raw)}
    raise ValueError(f"not an in-process op: {op!r}")


def cli_result(argv: tuple[str, ...], returncode: int, stdout: str) -> dict:
    """Exit code and output of one CLI call; `--json` output is parsed, so
    key order and spacing do not count."""
    if "--json" in argv and returncode == 0:
        return {"rc": returncode, "stdout": json.loads(stdout)}
    return {"rc": returncode, "stdout": stdout}


def reference_of(op: tuple, result: dict) -> dict:
    """What the reference file keeps of a result of this tree: the
    certificate's status and every graph's lower bound (not its JSON
    bytes); a family's -a-l and closed form; a Maroni count; a CLI call's
    exit code and output."""
    kind = op[0]
    if kind == "certify":
        return {"status": result["status"], "bounds": result["bounds"]}
    if kind == "family":
        return {"degree": result["degree"], "closed": result["closed"]}
    return result


def check(op: tuple, result: dict, references: dict) -> str | None:
    """None if the result matches the reference, else what differs."""
    ref = references.get(op_key(op))
    if ref is None:
        return "no reference recorded"
    if "error" in result:
        return result["error"]
    kind = op[0]
    if kind == "family":
        if result["degree"] != ref["degree"]:
            return f"degree {result['degree']} != {ref['degree']}"
        if not result["same"]:
            return "pipeline class != closed form"
        if result["closed"] != ref["closed"] or result["pipeline"] != ref["closed"]:
            return "class differs from the recorded closed form"
        return None
    got = reference_of(op, result)
    if got != ref:
        differing = sorted(k for k in ref if got.get(k) != ref[k])
        return f"differs from reference in {differing}"
    return None


def load_references(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)
