"""What a run records beside its metrics, so that host drift can be told
apart from a change of the program: the machine, the revision, the size of
the source, and the time of a fixed computation that is not trifvm."""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np


def git_revision(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_lines(package_dir: str) -> int:
    """Lines of every .py file of the package."""
    total = 0
    for base, _, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def describe(root: str) -> dict:
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(), "numpy": np.__version__,
            "revision": git_revision(root),
            "trifvm_lines": source_lines(os.path.join(root, "src", "trifvm"))}


def probe_s() -> float:
    """Median of three timings of a fixed pure-Python loop (about 0.1 s)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
