"""The paper's Fig. 6/7 claims as pure checks over a sweep's series.

A series is ``{library: {nprocs: seconds}}`` (:func:`~.experiment.series_from`).
Each :class:`Claim` names the process counts it reads and is checked only
when the sweep contains all of them, so a small smoke sweep (``--procs 2``)
checks nothing instead of failing.  The bands are the paper's ratios with
room for the model's constants: writes ~2.5x faster than NetCDF/pNetCDF and
~15% faster than ADIOS; reads ~5x and ~2x (§4.1, Figs. 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

A, B = "PMCPY-A", "PMCPY-B"

Series = dict[str, dict[int, float]]


@dataclass(frozen=True)
class Claim:
    text: str
    procs: tuple[int, ...]
    holds: Callable[[Series], bool]


def _ordered(*libs: str) -> list[Claim]:
    """``libs[0] < libs[1] < ...`` at 16-48 procs, one claim per count."""
    return [
        Claim(f"{' < '.join(libs)} @{p}p", (p,),
              lambda s, p=p: all(s[x][p] < s[y][p]
                                 for x, y in zip(libs, libs[1:])))
        for p in (16, 24, 32, 48)
    ]


def _band(num: str, lo: float, hi: float, paper: str) -> Claim:
    return Claim(f"{lo} <= {num}/{A} <= {hi} @24p (paper {paper})", (24,),
                 lambda s: lo <= s[num][24] / s[A][24] <= hi)


WRITE_CLAIMS: tuple[Claim, ...] = (
    *_ordered(A, "ADIOS", "NetCDF"),
    *_ordered(A, "pNetCDF"),
    _band("NetCDF", 1.8, 3.2, "~2.5x"),
    _band("ADIOS", 1.05, 1.45, "~15% faster"),
    Claim(f"{B} >= 0.9 ADIOS @24p (MAP_SYNC erases the gain)", (24,),
          lambda s: s[B][24] >= 0.9 * s["ADIOS"][24]),
    Claim(f"{A} changes < 20% from 24p to 48p (scaling flattens)", (24, 48),
          lambda s: abs(s[A][48] - s[A][24]) / s[A][24] < 0.2),
    Claim(f"{B} 48p < 24p (metadata updates parallelize)", (24, 48),
          lambda s: s[B][48] < s[B][24]),
)

READ_CLAIMS: tuple[Claim, ...] = (
    *_ordered(A, "ADIOS", "NetCDF"),
    _band("ADIOS", 1.5, 2.6, "~2x"),
    _band("NetCDF", 4.0, 8.0, "~5x"),
    Claim(f"{B} >= 0.8 ADIOS @24p (MAP_SYNC: no better than ADIOS)", (24,),
          lambda s: s[B][24] >= 0.8 * s["ADIOS"][24]),
    Claim(f"{B} 48p < 24p (keeps improving)", (24, 48),
          lambda s: s[B][48] < s[B][24]),
)

#: (numerator, paper's ratio over PMCPY-A at 24 procs) per direction
PAPER_RATIOS = {
    "write": (("NetCDF", "~2.5x"), ("pNetCDF", "~2.5x"),
              ("ADIOS", "~1.15x (15% faster)")),
    "read": (("NetCDF", "~5x"), ("pNetCDF", "~5x"), ("ADIOS", "~2x")),
}


def check(claims: tuple[Claim, ...], series: Series) -> list[tuple[str, bool]]:
    """(claim, holds) for every claim whose process counts the sweep has."""
    counts = {p for cells in series.values() for p in cells}
    return [(c.text, c.holds(series)) for c in claims
            if counts.issuperset(c.procs)]


def ratio_rows(direction: str, series: Series) -> list[tuple]:
    """Ours-vs-paper ratios over PMCPY-A at 24 procs."""
    if 24 not in series.get(A, {}):
        return []
    return [(f"{direction}s {lib}/{A}", f"{series[lib][24] / series[A][24]:.2f}x",
             paper) for lib, paper in PAPER_RATIOS[direction]]


def _beats(series: Series, x: str, y: str) -> str:
    wins = [f"{p}p ({series[x][p] / series[y][p]:.2f}x)"
            for p in sorted(series[x]) if series[x][p] < series[y][p]]
    return ", ".join(wins) or "none"


def deviation_rows(direction: str, series: Series) -> list[tuple]:
    """Where the model departs from the paper; reported, never gated."""
    if direction == "read":
        return [(f"{B} beats ADIOS on reads at", _beats(series, B, "ADIOS"),
                 "no better than ADIOS")]
    same = all(round(t, 4) == round(series["pNetCDF"][p], 4)
               for p, t in series["NetCDF"].items())
    return [
        (f"{B} beats ADIOS on writes at", _beats(series, B, "ADIOS"),
         "slightly slower than ADIOS"),
        ("NetCDF vs pNetCDF writes",
         "equal to 4 decimals at every count" if same else "differ",
         "two distinct curves"),
    ]
