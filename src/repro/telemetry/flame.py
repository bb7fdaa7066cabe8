"""Folded-stack flamegraph export (speedscope / FlameGraph compatible).

One line per unique stack, ``frame;frame;frame weight`` — the format
Brendan Gregg's ``flamegraph.pl`` consumes directly and speedscope imports
as "Brendan Gregg's collapsed stack format".  Stacks are the span tree's
name chain rooted at ``rank N``; weights are each span's *exclusive*
modeled nanoseconds (duration minus recorded children), so the flame sums
to the same figure the perf attribution diffs.

Weights are integers (both consumers require it).  The ``scale`` factor
produces the wall variant: multiply every modeled-ns weight by
``wall_ns / modeled_ns`` and the flame is denominated in measured
wall-clock instead — same shape, honest axis.
"""

from __future__ import annotations

from .spans import as_span_list, child_ns_index

#: frame used when a span's parent lives in another dump or flight record
#: — keeps orphans visible instead of silently re-rooting
ORPHAN_FRAME = "(orphan)"


def folded_stacks(traces_or_spans, *, scale: float = 1.0) -> dict[str, int]:
    """``stack -> integer weight`` for a finished run's span forest."""
    spans = as_span_list(traces_or_spans)
    child = child_ns_index(spans)
    by_id = {s.span_id: s for s in spans}
    stacks: dict[str, int] = {}
    chain_cache: dict[int, str] = {}

    def chain(s) -> str:
        got = chain_cache.get(s.span_id)
        if got is not None:
            return got
        if s.parent_id is None:
            prefix = f"rank {s.rank}"
        elif s.parent_id in by_id:
            prefix = chain(by_id[s.parent_id])
        else:
            prefix = f"rank {s.rank};{ORPHAN_FRAME}"
        out = chain_cache[s.span_id] = f"{prefix};{s.name}"
        return out

    for s in spans:
        self_ns = max(s.duration_ns - child.get(s.span_id, 0.0), 0.0)
        weight = int(round(self_ns * scale))
        if weight <= 0:
            continue
        key = chain(s)
        stacks[key] = stacks.get(key, 0) + weight
    return stacks


def render_folded(stacks: dict[str, int]) -> str:
    """Serialize folded stacks, sorted for byte-stable output."""
    return "".join(f"{stack} {weight}\n"
                   for stack, weight in sorted(stacks.items()))


def write_folded(path, traces_or_spans, *, scale: float = 1.0) -> str:
    """Write one folded-stack file; returns the rendered text."""
    text = render_folded(folded_stacks(traces_or_spans, scale=scale))
    with open(path, "w") as fh:
        fh.write(text)
    return text


def validate_folded(text: str) -> list[str]:
    """Check folded-stack text the way its consumers would; [] when ok."""
    errs: list[str] = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        stack, sep, weight = line.rpartition(" ")
        if not sep or not stack:
            errs.append(f"line {i}: expected '<stack> <weight>': {line!r}")
            continue
        try:
            w = int(weight)
        except ValueError:
            errs.append(f"line {i}: non-integer weight {weight!r}")
            continue
        if w < 0:
            errs.append(f"line {i}: negative weight {w}")
        if any(not frame for frame in stack.split(";")):
            errs.append(f"line {i}: empty frame in stack {stack!r}")
    return errs
