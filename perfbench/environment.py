"""The software and machine a result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _git_commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over the library sources, which identifies them where git does not."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def describe(root: Path, src: Path, heic_workers) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas": _blas_version(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "HEIC_WORKERS": heic_workers,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(src),
        "machine": platform.machine(),
    }
