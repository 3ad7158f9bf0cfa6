"""Line coverage of `src/hurwitzcalc` under the test suite, standard library
only.

    python tools/linecov.py [--out FILE] [pytest arguments ...]

runs pytest in this process (on `tests/` when no arguments are given)
under a `sys.settrace` collector and writes the executable lines of
`src/hurwitzcalc` that no test ran, as JSON, to FILE (default
`linecov.json`).  Its exit code is pytest's.

- Hypothesis swaps out the trace function while it runs, so the collector
  is armed again at the start of every test phase (setup, call, teardown).
- Python children are followed: every `subprocess.Popen` gets a generated
  `sitecustomize` at the front of its `PYTHONPATH` (the tests set that
  variable themselves, so it is added where the child starts), which
  traces the child and writes the lines it ran to a shared directory when
  the child exits.  A child ended by a signal or `os._exit` reports
  nothing.
- An executable line is one that some code object of the module maps an
  instruction to; a function's `def` line counts as run when the function
  is called.
- A line reached only through a `RecursionError` reads as missed: the
  error is raised inside the trace function, which makes Python unset it
  until the next test phase arms it again.  The expression parser's
  guard (`raise OutOfRange("expression nested too deeply")` in
  `chow._Parser.parse`) is such a line, although a test runs it.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hurwitzcalc"
_CHILDREN = "LINECOV_CHILDREN"


class Tracer:
    """Collects (file, line) for every line run in a file under `prefix`."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.ran: set[tuple[str, int]] = set()

    def _on_call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._on_line

    def _on_line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._on_line

    def arm(self) -> None:
        sys.settrace(self._on_call)
        threading.settrace(self._on_call)


def trace_child() -> None:
    """Trace this interpreter and leave its lines for the parent collector;
    the generated `sitecustomize` calls this."""
    tracer = Tracer(str(PACKAGE))
    tracer.arm()

    def dump():
        sys.settrace(None)
        path = Path(os.environ[_CHILDREN]) / f"{os.getpid()}.json"
        path.write_text(json.dumps(sorted(tracer.ran)))
    atexit.register(dump)


def _follow_children(site_dir: str) -> None:
    """Put `site_dir` at the front of every child's PYTHONPATH."""
    start = subprocess.Popen.__init__

    def init(self, args, *rest, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (site_dir, env.get("PYTHONPATH")) if p)
        start(self, args, *rest, env=env, **kwargs)
    subprocess.Popen.__init__ = init


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def report(ran: set[tuple[str, int]]) -> dict:
    uncovered, total = {}, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        missed = sorted(lines - {n for f, n in ran if f == str(path)})
        if missed:
            uncovered[str(path.relative_to(ROOT))] = missed
    missed = sum(map(len, uncovered.values()))
    return {"executable": total, "covered": total - missed, "uncovered": uncovered}


def main(argv: list[str]) -> int:
    out = Path("linecov.json")
    if argv[:1] == ["--out"]:
        out, argv = Path(argv[1]), argv[2:]
    import pytest

    tracer = Tracer(str(PACKAGE))

    @pytest.hookimpl(hookwrapper=True)
    def rearm(item):
        tracer.arm()
        yield
    plugin = types.ModuleType("linecov_rearm")
    plugin.pytest_runtest_setup = plugin.pytest_runtest_call = rearm
    plugin.pytest_runtest_teardown = rearm

    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as scratch:
        site_dir, children = Path(scratch, "site"), Path(scratch, "children")
        site_dir.mkdir()
        children.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            f"import sys\nsys.path.insert(0, {str(ROOT / 'tools')!r})\n"
            "import linecov\nlinecov.trace_child()\n")
        os.environ[_CHILDREN] = str(children)
        _follow_children(str(site_dir))
        tracer.arm()
        try:
            code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                               plugins=[plugin])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        ran = set(tracer.ran)
        for dumped in children.glob("*.json"):
            ran.update((f, n) for f, n in json.loads(dumped.read_text()))
    result = report(ran)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{result['covered']} of {result['executable']} executable lines run; "
          f"uncovered lines in {out}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
