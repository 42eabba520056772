from pathlib import Path
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
