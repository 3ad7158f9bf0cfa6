"""Run the engine's byte checks on several interpreters and compare their
output, standard library only.

    python tools/interpreters.py PYTHON [PYTHON ...]

runs, with `PYTHONPATH=src`, on each interpreter given: `tools/certdigest.py`
(every certificate and rule set up to genus 100), `hurwitzcalc selftest`
with and without `-O`, and the four demos in `demos/`.  It prints one line
per interpreter and check.  It exits 1, naming the interpreter and the
check, when a check exits nonzero or its standard output differs in any
byte from the first interpreter's; otherwise 0.  The digest alone takes a
few seconds per interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = {
    "certdigest": ["tools/certdigest.py"],
    "selftest": ["-m", "hurwitzcalc.cli", "selftest"],
    "selftest -O": ["-O", "-m", "hurwitzcalc.cli", "selftest"],
    **{f"demo {path.stem}": [str(path.relative_to(ROOT))]
       for path in sorted((ROOT / "demos").glob("*.py"))},
}


def _run(python: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True,
                          timeout=600)


def main(pythons: list[str]) -> int:
    first: dict[str, bytes] = {}
    code = 0
    for python in pythons:
        for name, args in CHECKS.items():
            result = _run(python, args)
            reference = first.setdefault(name, result.stdout)
            problem = ""
            if result.returncode:
                problem = f"exit {result.returncode}: {result.stderr.decode(errors='replace')}"
            elif reference != result.stdout:
                problem = f"output differs from {pythons[0]}'s"
            digest = hashlib.sha256(result.stdout).hexdigest()[:12]
            print(f"{python}  {name}: {digest}  {problem or 'ok'}".rstrip())
            code = code or int(bool(problem))
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the engine's output bytes "
                                                 "across interpreters.")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON")
    sys.exit(main(parser.parse_args().pythons))
