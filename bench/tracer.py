"""Outside-in tracing of the ``lindlyap`` layers.

The tracer wraps public functions of each package module from outside the
package.  Modules bind names such as ``stability_check`` or ``solve`` at import
time (``from .model import stability_check``), so replacing the attribute of
the defining module alone would miss calls.  ``install`` therefore rebinds a
wrapper in every ``lindlyap`` namespace that holds the original object,
including the top-level package, and ``uninstall`` restores each of them.

Wrapped layer functions record spans: name, id, parent id, start and end.
Spans stay in memory; a span's self time is its duration minus the time its
child spans cover.  Eigensolver entry points of numpy and scipy are counted,
not timed, together with the layer spans open at the call, so ratios such as
eigensolves per verdict are measured where the work happens.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer functions traced as spans, by lindlyap module
LAYER_FUNCTIONS = {
    "catalog": ("catalog_build",),
    "model": ("build_dynamics", "stability_check", "realize_lindblad"),
    "lyapunov": ("solve", "solve_integral"),
    "criteria": ("state_criterion", "environment_criterion"),
    "williamson": ("williamson_decompose", "symplectic_spectrum", "engineer_covariant_target",
                   "engineer_gibbs_target"),
    "evolution": ("evolve",),
    "cli": ("main",),
}
# library entry points counted per call: (module, attribute)
COUNTED_FUNCTIONS = (
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "schur"),
)


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lindlyap" or name.startswith("lindlyap."))]


class Tracer:
    """Spans around layer calls and counts of library eigensolver calls."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, span id, parent id, start, end, self seconds, error)
        self.counts: Counter = Counter()  # (library function, open layer names) -> calls
        self.solves: list[tuple] = []  # (args, kwargs, result) of lyapunov.solve calls
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 1
        self._patches: list[tuple] = []  # (namespace, attribute, original)

    # -------------------------------------------------------------- spans

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, error: bool) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((frame[1], frame[0], parent[0] if parent else 0, start, end,
                           duration - frame[2], error))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per job)."""
        frame = self._enter(name)
        start = time.perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            self._exit(frame, start, time.perf_counter(), error)

    def _wrap_layer(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            start = time.perf_counter()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                tracer._exit(frame, start, time.perf_counter(), error)
            if name == "lyapunov.solve":
                tracer.solves.append((args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[(name, tuple(f[1] for f in tracer._stack))] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -------------------------------------------------------------- install

    def _rebind(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = _package_modules()
        for mod_name, fns in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"lindlyap.{mod_name}")
            for fn in fns:
                original = getattr(module, fn)
                self._rebind(package, original, self._wrap_layer(f"{mod_name}.{fn}", original))
        for mod_name, attr in COUNTED_FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._rebind([module, *package], original, self._wrap_counted(f"{mod_name}.{attr}", original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- summaries

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_totals(self) -> dict[str, dict]:
        """calls, self time (ms) and escaped exceptions per layer function."""
        totals = {name: {"calls": 0, "self_ms": 0.0, "errors": 0} for name in layer_names()}
        for name, _, _, _, _, self_s, error in self.spans:
            if name in totals:
                t = totals[name]
                t["calls"] += 1
                t["self_ms"] += 1e3 * self_s
                t["errors"] += int(error)
        return totals

    def counted_calls(self, library_fns, inside=None, outside=()) -> int:
        """Calls of the given library functions made while a layer in ``inside``
        was open (any layer if None) and no layer in ``outside`` was."""
        total = 0
        for (fn, open_layers), n in self.counts.items():
            if fn not in library_fns:
                continue
            if inside is not None and not any(name in inside for name in open_layers):
                continue
            if any(name in outside for name in open_layers):
                continue
            total += n
        return total


def profile_call_counts(functions: dict, thunk) -> Counter:
    """Calls of each function's code object while ``thunk`` runs, seen by ``sys.setprofile``.

    The profiler sees every Python-level call whatever name it was made
    through, so it is an independent count for checking that the tracer
    missed no call.  ``functions`` maps a name to the original function.
    """
    codes = {fn.__code__: name for name, fn in functions.items()}
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts
