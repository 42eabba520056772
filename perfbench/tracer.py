"""Per-layer spans for optitomo, recorded from outside the package.

The package modules bind each other's functions by name (``from .fem import
assemble``), so patching ``optitomo.fem.assemble`` alone would miss every
call made through another module's binding.  ``Tracer.install`` therefore
wraps each public function of the seven library modules and rebinds the
wrapper at every ``optitomo.*`` module attribute that held the original.
Public methods and cached properties of public classes are wrapped on the
class itself, ``optitomo.cli.main`` is wrapped as the ``cli`` layer, and
``scipy.sparse.linalg.splu`` is wrapped as ``fem.factorize``; the LU objects
it returns count their triangular-solve columns (``solve_columns``).

Spans are aggregated in memory per name: calls, busy time (outermost
activation only, so recursion is not counted twice), self time (duration
minus the time covered by child spans) and the busy time of every outermost
call.  ``under`` counts, for every span name, the calls made while another
span name was active anywhere on the stack; work counts such as "solves made
inside the certificate search" are read from it.

Tracing adds a constant cost per wrapped call and changes no argument or
result, so traced runs write byte-identical artifacts.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import cached_property, wraps

LAYERS = ("mesh", "field", "fem", "ntd", "locpot", "inversion", "synth")


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "durations", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.durations = []
        self.depth = 0


class Tracer:
    """Aggregated span recorder; single-threaded, like the program it wraps."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.under: dict[tuple[str, str], int] = {}
        self.solve_columns = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        under = self.under
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stat.depth += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stat.depth == 0:
                    stat.busy_s += duration
                    stat.durations.append(duration)
                if stack:
                    stack[-1][1] += duration
                    for ancestor in {f[0] for f in stack}:
                        key = (ancestor, name)
                        under[key] = under.get(key, 0) + 1

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap the package in place; undo with :meth:`uninstall`."""
        import scipy.sparse.linalg as spla

        cli = importlib.import_module("optitomo.cli")
        wrapped = {cli.main: self.wrap("cli.main", cli.main)}
        for layer in LAYERS:
            module = importlib.import_module(f"optitomo.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)

        splu = spla.splu
        factorize = self.wrap("fem.factorize", splu)
        lu_solve = self.wrap("fem.lu_solve", self._lu_solve)

        def counting_splu(*args, **kwargs):
            return _CountingLU(factorize(*args, **kwargs), lu_solve)

        wrapped[splu] = counting_splu
        self._set(spla, "splu", counting_splu)

        for name, module in list(sys.modules.items()):
            if name != "optitomo" and not name.startswith("optitomo."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) or obj is splu:
                    replacement = wrapped.get(obj)
                    if replacement is not None:
                        self._set(module, attr, replacement)
        return self

    def _lu_solve(self, lu, rhs, *args, **kwargs):
        self.solve_columns += rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
        return lu.solve(rhs, *args, **kwargs)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, cached_property):
                self._set(obj, "func", self.wrap(f"{prefix}.{attr}", obj.func))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(f"{prefix}.{attr}", obj))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self) -> dict:
        """JSON-ready aggregate: spans, ancestor counts and LU solve columns."""
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "busy_s": s.busy_s,
                    "self_s": s.self_s,
                    "durations": s.durations,
                }
                for name, s in sorted(self.stats.items())
            },
            "under": [[a, b, n] for (a, b), n in sorted(self.under.items())],
            "solve_columns": self.solve_columns,
        }


class _CountingLU:
    """Stands in for a SuperLU factorization; solves go through the tracer."""

    __slots__ = ("_lu", "_solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self._solve = solve

    def solve(self, rhs, *args, **kwargs):
        return self._solve(self._lu, rhs, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
