"""Test-session set-up shared by every test module.

Tests that start a child Python process (``python -m elastoscat.cli``)
may run it from a temporary directory. A relative ``PYTHONPATH=src`` no
longer points at this checkout's sources from there, so the absolute
path of ``src/`` is put first in ``PYTHONPATH`` here; any entries
already present are kept after it. Child processes then import the same
``elastoscat`` source tree as the tests that run in process, whatever
their working directory, with or without an installed package.

``peak_mib`` measures a call's traced memory peak for the working-set
guards of the blocked kernels.
"""
import os
import tracemalloc
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def peak_mib(f) -> float:
    """Traced peak, in MiB, of what one call ``f()`` allocates (NumPy's
    buffers included). A first, untraced call fills any lazy caches, so the
    peak is the call's own working set."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
