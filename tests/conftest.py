import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzcalc

SRC = str(Path(hurwitzcalc.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def engine_env():
    """The environment for an engine subprocess: this process's own, so
    settings such as PYTHONDONTWRITEBYTECODE carry over, with the engine's
    source on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": SRC}


# import symkernel, count every Poly built from then on while the code on
# the command line runs, and print the count
POLYS_BUILT = (
    "import sys\n"
    "from hurwitzcalc.symkernel import Poly\n"
    "built = []\n"
    "init = Poly.__init__\n"
    "def counting(self, *args):\n"
    "    built.append(self)\n"
    "    init(self, *args)\n"
    "Poly.__init__ = counting\n"
    "exec(sys.argv[1])\n"
    "print(len(built))\n")


@pytest.fixture(scope="session")
def polys_built(engine_env):
    """The number of Poly objects a piece of code builds in a fresh
    interpreter, counted from just after `symkernel` is imported."""
    def run(code):
        result = subprocess.run([sys.executable, "-c", POLYS_BUILT, code], env=engine_env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return int(result.stdout)
    return run
