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


def import_script(path: Path, monkeypatch):
    """Import ``path`` as a fresh module without running its ``__main__``
    block. The module sits in ``sys.modules`` while it runs, as a run
    script does, so code that looks itself up there (``@dataclass``
    under ``from __future__ import annotations``) works."""
    name = f"_entry_point_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path, sibling_imports, monkeypatch):
    sibling_imports(path.parent)
    import_script(path, monkeypatch)


def test_script_defining_a_dataclass_imports(tmp_path, monkeypatch):
    script = tmp_path / "dataclass_script.py"
    script.write_text(
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class Pair:\n"
        "    first: int\n"
        "    second: float = 0.0\n"
    )
    module = import_script(script, monkeypatch)
    assert module.Pair(1) == module.Pair(1, 0.0)
