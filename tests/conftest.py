import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzcalc
from hurwitzcalc.symkernel import Poly

SRC = str(Path(hurwitzcalc.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def engine_env():
    """The environment for an engine subprocess: this process's own, so
    settings such as PYTHONDONTWRITEBYTECODE carry over, with the engine's
    source on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": SRC}


# import symkernel, run the warm-up code on the command line, then count
# every Poly built, through __init__ or Poly.const, and every Fraction,
# while the measured code runs, and print both counts.  A Fraction is
# counted where it is built: in Fraction.__new__ and, on Python 3.12 and
# later, where arithmetic builds its result without __new__, in
# Fraction._from_coprime_ints
BUILT = (
    "import sys\n"
    "from fractions import Fraction\n"
    "from hurwitzcalc.symkernel import Poly\n"
    "built = {'Poly': 0, 'Fraction': 0}\n"
    "init, const, new = Poly.__init__, Poly.const.__func__, Fraction.__new__\n"
    "def counting_init(self, *args):\n"
    "    built['Poly'] += 1\n"
    "    init(self, *args)\n"
    "def counting_const(cls, value):\n"
    "    built['Poly'] += 1\n"
    "    return const(cls, value)\n"
    "def counting_new(cls, *args, **kwargs):\n"
    "    built['Fraction'] += 1\n"
    "    return new(cls, *args, **kwargs)\n"
    "Poly.__init__, Poly.const = counting_init, classmethod(counting_const)\n"
    "Fraction.__new__ = counting_new\n"
    "if hasattr(Fraction, '_from_coprime_ints'):\n"
    "    coprime = Fraction._from_coprime_ints.__func__\n"
    "    def counting_coprime(cls, *args):\n"
    "        built['Fraction'] += 1\n"
    "        return coprime(cls, *args)\n"
    "    Fraction._from_coprime_ints = classmethod(counting_coprime)\n"
    "exec(sys.argv[2])\n"
    "built.update(Poly=0, Fraction=0)\n"
    "exec(sys.argv[1])\n"
    "print(built['Poly'], built['Fraction'])\n")


@pytest.fixture(scope="session")
def objects_built(engine_env):
    """The numbers of Poly and of Fraction objects a piece of code builds in
    a fresh interpreter, counted from just after `symkernel` is imported, or
    from the end of the warm-up code when one is given.  Fractions are
    counted at Fraction.__new__, and also at Fraction._from_coprime_ints
    where the Python version has it."""
    def run(code, warm_up=""):
        result = subprocess.run([sys.executable, "-c", BUILT, code, warm_up], env=engine_env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        polys, fractions = map(int, result.stdout.split())
        return {"Poly": polys, "Fraction": fractions}
    return run


@pytest.fixture
def polys_counted(monkeypatch):
    """A list that collects every Poly built in this process from now on,
    through __init__ or Poly.const, until the test ends."""
    built = []
    init, const = Poly.__init__, Poly.const.__func__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_const(cls, value):
        poly = const(cls, value)
        built.append(poly)
        return poly

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Poly, "const", classmethod(counting_const))
    return built
