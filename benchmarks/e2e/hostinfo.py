"""What the host is, read from /sys and /proc; no third-party imports."""

from __future__ import annotations

import os
from pathlib import Path


def read_llc_bytes() -> int | None:
    """Size of cpu0's last-level cache from sysfs, or ``None``."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:])
        try:
            nbytes = int(size[:-1]) * mult if mult else int(size)
        except ValueError:
            continue
        if best is None or level > best[0]:
            best = (level, nbytes)
    return best[1] if best else None


def ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def isa_flags() -> list[str]:
    """The vector-ISA flags of /proc/cpuinfo that BLAS and -march=native
    builds depend on."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                return sorted(f for f in line.split(":", 1)[1].split()
                              if f.startswith(("avx", "fma", "sse4")))
    except OSError:
        pass
    return []
