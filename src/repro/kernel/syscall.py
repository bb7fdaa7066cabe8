"""Syscall cost helpers — the fixed price of crossing into the kernel."""

from __future__ import annotations


def syscall(ctx, note: str = "") -> None:
    """A non-blocking kernel entry/exit (e.g. pwrite to DAX, stat)."""
    ctx.delay(ctx.machine.kernel.syscall_ns, note=note or "syscall")


def page_fault(ctx, count: int = 1, note: str = "") -> None:
    """``count`` minor page faults (mapping population)."""
    if count > 0:
        ctx.delay(ctx.machine.kernel.page_fault_ns * count, note=note or "page-fault")
