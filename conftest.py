"""Repo-root pytest bootstrap for the src/ layout.

The package is not installed into the environment (the toolchain is
baked into the image, the repo is mounted), so a bare ``python -m
pytest`` needs ``src/`` on ``sys.path`` to import ``repro``.  The
Makefile exports ``PYTHONPATH=src`` for the same reason; this conftest
makes the tier-1 invocation work without it.

The repo root itself is also added so test modules can import the
shared helpers of ``tests/conftest.py`` (e.g. the differential oracle
imports ``tests.conftest.assert_equivalent``).
"""

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

# Subprocess-based tests (and CLI invocations under test) must inherit
# the same import path, so mirror it into the environment.
_src = str(_ROOT / "src")
_env = os.environ.get("PYTHONPATH", "")
if _src not in _env.split(os.pathsep):
    os.environ["PYTHONPATH"] = _src + (os.pathsep + _env if _env else "")
