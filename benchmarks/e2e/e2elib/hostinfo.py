"""Where a run happened: numbers only compare within one environment."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Any


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def load_average() -> float:
    """The 1-minute load average (-1 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except (OSError, AttributeError):
        return -1.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" (the driver's checkout is no repo)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest waited-for child (MiB).

    ``ru_maxrss`` is KiB on Linux. ``RUSAGE_CHILDREN`` is the maximum
    over terminated children, not their sum, so call this after the
    service child / pool workers have been reaped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(root: Path) -> dict[str, Any]:
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
