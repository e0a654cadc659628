"""Importing the package loads ``numpy`` and no other third-party package.

``pyproject.toml`` declares ``numpy`` as the only runtime dependency.
This imports every module under ``src/repro`` (``repro.cli`` included)
in a fresh interpreter and lists the top-level packages those imports
loaded that are neither the standard library nor ``repro`` itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in the fresh interpreter; prints one JSON line.
_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
names = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
]
for name in names:
    importlib.import_module(name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
ignored = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
print(json.dumps({"modules": names, "third_party": sorted(loaded - ignored)}))
"""


def test_numpy_is_the_only_third_party_import():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.cli" in report["modules"]
    assert "repro.tracing.cpg" in report["modules"]
    assert report["third_party"] == ["numpy"]
