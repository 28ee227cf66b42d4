"""Import hygiene: every ``__all__`` resolves, and each public package can
be the first thing a fresh interpreter imports.

``repro.networks`` registers :class:`repro.universal.UniversalGraph` in
``TOPOLOGIES`` while ``repro.universal`` imports core modules that import
``repro.networks`` back.  The cycle resolves only because
``repro/__init__`` imports ``.core`` before anything loads
``repro.networks``; the fresh-interpreter checks below fail if that order
is broken.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

FIRST_IMPORTS = (
    "repro.networks",
    "repro.universal",
    "repro.separators",
    "repro.core",
    "repro.simulate",
    "repro.runtime",
    "repro.service",
)


def _all_modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _all_modules())
def test_dunder_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", FIRST_IMPORTS)
def test_package_imports_first_in_fresh_interpreter(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
