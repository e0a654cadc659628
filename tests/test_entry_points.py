"""Every example and benchmark script imports against the current API.

Nothing else imports these files, so an API that a change deletes or
renames would otherwise leave them broken until someone runs them. Each
module is imported without being run: the examples keep their work
under a ``__main__`` check, and the benchmarks under test functions or
a ``__main__`` check.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "examples").glob("*.py")) + sorted(
    (ROOT / "benchmarks").glob("*.py")
)
#: Sibling modules the benchmarks import by bare name; ``conftest``
#: would otherwise resolve to this suite's own.
SIBLINGS = ("conftest", "harness")


@pytest.fixture
def sibling_imports(monkeypatch):
    """Let a script import its siblings; restore ``sys.modules`` after."""
    saved = {name: sys.modules.pop(name) for name in SIBLINGS if name in sys.modules}
    try:
        yield lambda directory: monkeypatch.syspath_prepend(str(directory))
    finally:
        for name in SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path, sibling_imports):
    sibling_imports(path.parent)
    spec = importlib.util.spec_from_file_location(
        f"_entry_point_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
