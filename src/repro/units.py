"""Byte and time unit helpers.

Everything in the simulator is denominated in *bytes* and *nanoseconds*
(integers where possible, floats where rates are involved).  These helpers
keep call sites readable (``4 * MiB``, ``1.3 * USEC``) and provide parsing
for configuration strings such as ``"30GB/s"`` or ``"2MiB"``; reports
format quantities through :func:`repro.telemetry.metrics._fmt_quantity`.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Byte units
# ---------------------------------------------------------------------------

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
TiB = 1 << 40

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

#: Size of a CPU cacheline; flush granularity of the PMEM store buffer.
CACHELINE = 64
#: Base page size used by the DAX mmap path.
PAGE_4K = 4 * KiB
#: Huge page size; the DAX filesystem maps files with 2 MiB pages.
PAGE_2M = 2 * MiB

# ---------------------------------------------------------------------------
# Time units (nanoseconds)
# ---------------------------------------------------------------------------

NSEC = 1
USEC = 10**3
MSEC = 10**6
SEC = 10**9

_SIZE_SUFFIXES = {
    "b": 1,
    "kb": KB, "mb": MB, "gb": GB, "tb": TB,
    "kib": KiB, "mib": MiB, "gib": GiB, "tib": TiB,
    "k": KiB, "m": MiB, "g": GiB, "t": TiB,
}

_TIME_SUFFIXES = {
    "ns": NSEC,
    "us": USEC,
    "ms": MSEC,
    "s": SEC,
}

_NUM_RE = r"([0-9]*\.?[0-9]+)"


def parse_size(text: str | int | float) -> int:
    """Parse a human size string (``"40GB"``, ``"2MiB"``, ``"512"``) to bytes."""
    if isinstance(text, (int, float)):
        return int(text)
    m = re.fullmatch(_NUM_RE + r"\s*([A-Za-z]*)", text.strip())
    if not m:
        raise ValueError(f"unparseable size: {text!r}")
    value, suffix = float(m.group(1)), m.group(2).lower()
    if suffix == "":
        return int(value)
    if suffix not in _SIZE_SUFFIXES:
        raise ValueError(f"unknown size suffix {suffix!r} in {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def parse_bandwidth(text: str | int | float) -> float:
    """Parse ``"30GB/s"``-style bandwidth to bytes/ns.

    Plain numbers are taken as bytes/ns already.
    """
    if isinstance(text, (int, float)):
        return float(text)
    t = text.strip()
    if "/" not in t:
        return float(t)
    size_part, _, time_part = t.partition("/")
    per = _TIME_SUFFIXES.get(time_part.strip().lower())
    if per is None:
        raise ValueError(f"unknown bandwidth denominator in {text!r}")
    return parse_size(size_part) / per
