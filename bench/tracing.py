"""Layer tracing for the benchmark, installed from outside the engine.

`Tracer.install()` replaces every public function of the traced modules,
and every method of their public classes, with a wrapper that counts the
call and times it.  `from .x import f` copies a binding, so a function's
wrapper is bound under every name that any `hurwitzcalc` module holds for
it; methods are wrapped on their class.  `Tracer.restore()` puts the
originals back.

Each wrapper keeps a frame on a stack, so a layer's self time (time inside
the layer minus time in wrapped callees) and its span time (time with the
layer anywhere on the stack, counted once) are summed as the run goes.
Calls outside the hot classes also record a span (id, op id, name, start,
end, parent span id).  The hot classes are called hundreds of thousands of
times per pass, so they are counted and timed but keep no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("symkernel", "chow", "family_calc", "directrix", "divisor_classes",
          "graphs", "yeff", "cli")

HOT_CLASSES = frozenset({"Poly", "RationalFunction", "ChowPresentation",
                         "ChowClass"})


def _args_key(args, kwargs):
    return tuple(str(a) for a in args) + tuple(sorted(
        (k, str(v)) for k, v in kwargs.items()))


# Distinct-argument keys, for the `distinct_ratio` metrics.  Each key is
# computed after the call returns, with tracing paused.
KEYS = {
    "chow.ChowPresentation.__init__": lambda args, kwargs: args[0].spec,
    "chow.ChowPresentation.normal_form": lambda args, kwargs: (args[0].spec,
                                                               args[1]),
    "family_calc.pentagonal_pencil_symbolic": _args_key,
    "family_calc.trigonal_pencil_delta": _args_key,
    "family_calc.tetragonal_pencil_delta": _args_key,
    "family_calc.hyperelliptic_pencil_delta": _args_key,
}


class Tracer:
    """Counters, per-layer times and spans of one traced process."""

    def __init__(self):
        self.on = True
        self.op_id = None
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.rules = 0
        self.reconstructed = 0
        self._frames: list[list[float]] = []     # [time spent in children]
        self._depth: Counter = Counter()
        self._open: list[int] = []               # ids of open spans
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, layer: str, record: bool):
        self._frames.append([0.0])
        self._depth[layer] += 1
        if not record:
            return None, None
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        return sid, parent

    def _exit(self, name: str, layer: str, start: float, end: float,
              sid, parent) -> None:
        frame = self._frames.pop()
        elapsed = end - start
        self.self_s[layer] += elapsed - frame[0]
        if self._frames:
            self._frames[-1][0] += elapsed
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.span_s[layer] += elapsed
        if sid is not None:
            self._open.pop()
            self.spans.append((sid, self.op_id, name, start, end, parent))

    @contextmanager
    def span(self, name: str, layer: str):
        """A span recorded by the benchmark's own code, e.g. around one op."""
        sid, parent = self._enter(layer, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, layer, start, perf_counter(), sid, parent)

    @contextmanager
    def paused(self):
        """Calls made inside are neither counted nor timed."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def _wrap(self, fn, name: str, layer: str, record: bool):
        key = KEYS.get(name)
        count_rules = name == "yeff.build_rules"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            sid, parent = self._enter(layer, record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, layer, start, perf_counter(), sid, parent)
            if key is not None or count_rules:
                self.on = False
                try:
                    if key is not None:
                        self.keys[name].add(key(args, kwargs))
                    if count_rules:
                        self.rules += len(result)
                        self.reconstructed += sum(
                            1 for rule in result.values() if rule.reconstructed)
                finally:
                    self.on = True
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _wrap_class(self, cls: type, layer: str) -> None:
        record = cls.__name__ not in HOT_CLASSES
        wrapped: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, (staticmethod, classmethod)):
                fn, kind = raw.__func__, type(raw)
            elif isinstance(raw, types.FunctionType):
                fn, kind = raw, None
            else:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}",
                                             layer, record)
            wrapper = wrapped[id(fn)]
            setattr(cls, attr, kind(wrapper) if kind else wrapper)
            self._undo.append((cls, attr, raw))

    def install(self) -> "Tracer":
        """Wrap the public functions and classes of every traced layer."""
        functions: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hurwitzcalc.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType) or \
                        hasattr(obj, "cache_info"):
                    functions[id(obj)] = (obj, self._wrap(
                        obj, f"{layer}.{attr}", layer, True))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hurwitzcalc" and \
                    not mod_name.startswith("hurwitzcalc."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = functions.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._undo.append((module, attr, obj))
        return self

    def restore(self) -> None:
        """Put back every original binding that `install` replaced."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Totals of this process, as plain JSON data (see `merge`)."""
        durations = defaultdict(float)
        ids = defaultdict(set)
        for sid, _, name, *_ in self.spans:
            ids[name].add(sid)
        inside_certify = 0.0    # build_rules and margin under certify
        inside_serialize = 0.0  # to_json under the benchmark's own span
        for sid, _, name, start, end, parent in self.spans:
            durations[name] += end - start
            if name in ("yeff.build_rules", "yeff.multivertex_margin") and \
                    parent in ids["yeff.certify"]:
                inside_certify += end - start
            if name == "yeff.Certificate.to_json" and \
                    parent in ids["yeff.serialize"]:
                inside_serialize += end - start
        return {
            "calls": dict(self.calls),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "self_s": dict(self.self_s),
            "span_s": dict(self.span_s),
            "yeff": {
                "build_rules_s": durations["yeff.build_rules"],
                "margin_s": durations["yeff.multivertex_margin"],
                "propagate_s": durations["yeff.certify"] - inside_certify,
                "serialize_s": (durations["yeff.Certificate.to_json"]
                                - inside_serialize
                                + durations["yeff.serialize"]),
                "rules": self.rules,
                "reconstructed": self.reconstructed,
            },
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several processes (one per CLI call).  Distinct
    counts add up too: separate processes share nothing."""
    parts = ("calls", "distinct", "self_s", "span_s", "yeff")
    total = {part: Counter() for part in parts}
    for s in summaries:
        for part in parts:
            total[part].update(s[part])
    return {part: dict(counts) for part, counts in total.items()}
