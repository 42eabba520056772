from functools import cached_property
from pathlib import Path
import ast
import importlib.util
import inspect
import re
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
# Spans the benchmark counts under the certificate search: fem.solve_neumann
# for its forward applications (one re-check solve per certificate) and
# fem.solve_source for its adjoint applications, which read 0 because the
# search makes no source solve; the span stays while the benchmark reads it.
# The tracer's own fem.factorize and fem.lu_solve wrap scipy, not optitomo,
# and are not listed.
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


PACKAGE = Path(optitomo.__file__).parent
PROGRAM_MODULES = ("mesh", "field", "fem", "ntd", "locpot", "inversion", "synth", "cli")
# The paper's localization check and its bracket helper: no program runs
# them, but they state what a certificate proves.
UNCALLED = {"locpot.verify_localization", "locpot.bracket_index"}


def _identifiers(tree) -> set[str]:
    """Names a module uses in code; docstrings and comments do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_functions(module: str, tree):
    """Qualified module-level public functions and public methods of public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_function_has_a_caller():
    # A public function that only tests call is code the program no longer
    # runs; it counts as called when the library, the benchmark (which names
    # spans as strings) or the acceptance tests use it.
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in PROGRAM_MODULES}
    used = set().union(*map(_identifiers, trees.values()))
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    used |= _identifiers(ast.parse(acceptance))
    benchmark = "\n".join(p.read_text(encoding="utf-8") for p in RUN_PY.parent.glob("*.py"))
    uncalled = {
        qualified
        for module, tree in trees.items()
        for qualified, name in _public_functions(module, tree)
        if name not in used and not re.search(rf"\b{name}\b", benchmark)
    }
    assert uncalled == UNCALLED, f"callers differ from UNCALLED for {sorted(uncalled ^ UNCALLED)}"


# LU and Cholesky factorizations of scipy that the package may call.
FACTORIZATIONS = ("splu", "cholesky_banded", "cho_factor")


def test_each_factorization_kernel_has_one_call_site():
    # Every factor lives only inside the fem call that made it: each kernel
    # is named at exactly one place in the package (a call or the argument
    # of one), so no second path can make a factor and keep it.
    sites = {name: [] for name in FACTORIZATIONS}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name in sites:
                sites[name].append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert all(len(found) == 1 and found[0].startswith("fem.py:") for found in sites.values()), sites


def test_descriptor_text_is_split_in_one_place():
    # Coefficient and flux descriptors share one grammar: the split of a
    # descriptor into its name and numbers, .partition(":"), happens once,
    # in field.parse_descriptor.
    sites = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "partition" and [ast.unparse(a) for a in node.args] == ["':'"]
    ]
    assert len(sites) == 1 and sites[0].startswith("field.py:"), sites


def test_float_text_is_formatted_in_one_place():
    # The mesh file and every CSV share one row formatter: the float spec
    # .17g is written once in code (docstrings aside), in mesh._text_cells.
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = {id(n.body[0].value) for n in ast.walk(tree)
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(n)}
        sites += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and ".17g" in node.value and id(node) not in docs]
    lines, start = inspect.getsourcelines(optitomo.mesh._text_cells)
    assert len(sites) == 1 and sites[0][0] == "mesh.py", sites
    assert start <= sites[0][1] < start + len(lines), sites


def test_assembled_system_is_a_frozen_matrix_value():
    # no solver state on the system: a frozen dataclass of (mesh, matrix)
    # and nothing else in its body but the docstring
    tree = ast.parse((PACKAGE / "fem.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AssembledSystem"]
    assert [ast.unparse(d) for d in cls.decorator_list] == ["dataclass(frozen=True)"]
    body = cls.body[1:] if isinstance(cls.body[0], ast.Expr) else cls.body
    fields = [(type(n), getattr(getattr(n, "target", None), "id", None)) for n in body]
    assert fields == [(ast.AnnAssign, "mesh"), (ast.AnnAssign, "matrix")]
