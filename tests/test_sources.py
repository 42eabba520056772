from functools import cached_property
from pathlib import Path
import importlib.util
import inspect
import sys
import warnings

import pytest

import optitomo

SOURCES = sorted(Path(optitomo.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    # compile() rather than import: a cached .pyc skips the compile-time
    # warnings (invalid escapes and the like) that a fresh checkout emits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# Spans the benchmark counts under the certificate search (forward and
# adjoint applications); the tracer's own fem.factorize and fem.lu_solve
# wrap scipy, not optitomo, and are not listed.
UNDER_SEARCH = ("fem.solve_neumann", "fem.solve_source")


def _load_benchmark_runner(monkeypatch):
    """perfbench/run.py as a module, without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_span_exists(name: str) -> bool:
    """Whether the benchmark tracer would record a span called ``name``.

    It wraps ``cli.main``, the public functions of each library module and
    the public methods and cached properties of its public classes.
    """
    layer, *path = name.split(".")
    if layer == "cli":
        return path == ["main"]
    module = importlib.import_module(f"optitomo.{layer}")
    owner, attr = (module, path[0]) if len(path) == 1 else (getattr(module, path[0], None), path[1])
    if attr.startswith("_") or owner is None:
        return False
    if owner is module:
        obj = vars(module).get(attr)
        return inspect.isfunction(obj) and obj.__module__ == module.__name__
    if not (inspect.isclass(owner) and owner.__module__ == module.__name__ and len(path) == 2):
        return False
    obj = vars(owner).get(attr)
    return inspect.isfunction(obj) or isinstance(obj, cached_property)


def test_benchmark_spans_name_public_functions(monkeypatch):
    # A renamed or privatized function would read as a zero counter in the
    # benchmark instead of failing; every function span it reads must exist.
    run = _load_benchmark_runner(monkeypatch)
    module_sums = {"cli.self_s", *(f"{m}.self_s" for m in run.LAYER_MODULES)}
    stems = {
        name.rpartition(".")[0]
        for name, _, _ in run.PER_LAYER
        if name.rpartition(".")[2] in ("calls", "busy_s", "self_s") and name not in module_sums
    }
    source = inspect.getsource(run.layer_metrics)
    for name in UNDER_SEARCH:
        assert f'"{name}"' in source, f"layer_metrics no longer reads {name}"
    missing = sorted(s for s in stems | set(UNDER_SEARCH) if not _traced_span_exists(s))
    assert not missing, f"benchmark spans without a traced function: {missing}"
