"""Host and code fingerprint recorded with every result."""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import subprocess
from pathlib import Path

from launch import THREAD_ENV, affinity_cores


def source_digest(root: Path) -> str:
    """sha256 over every ``src/repro`` Python file (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _ram_bytes() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def fingerprint(root: Path, env: dict, workload: str, seed: int) -> dict:
    """Everything needed to tell whether two results are comparable."""
    return {
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "cpu_model": _cpu_model(),
        "affinity_cores": affinity_cores(),
        "cpu_count": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "ram_bytes": _ram_bytes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_caps": {key: env.get(key) for key in THREAD_ENV},
        "workload": workload,
        "seed": seed,
    }
