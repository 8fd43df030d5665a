#!/usr/bin/env python3
"""Reproduce the wedge figure: four contour families over the sector rays.

Draws the six decay-sector boundaries of the -z^4 problem together with the
reference contour (lower half), its upper mirror, the adjacent-sector
contour crossing the real axis, and both root pairings of sqrt(ix).
Writes demos/output/wedges_all.svg plus a per-contour classification table.
"""
from pathlib import Path

from ptcontour import (ADJACENT, LOWER_PT, SQRT_IX, UPPER_PT, Branch,
                       ContourParams, polyline, wedge_report)
from ptcontour.svgfig import wedge_figure

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

sqrt_ix_upper = ContourParams(SQRT_IX.a, SQRT_IX.b, SQRT_IX.c, Branch.UPPER)
sqrt_ix_lower = ContourParams(SQRT_IX.a, SQRT_IX.b, SQRT_IX.c, Branch.LOWER)

contours = [
    ("1: -2i*sqrt(1+ix)", LOWER_PT, False),
    ("2: i*sqrt(1+ix)", UPPER_PT, False),
    ("3: sqrt(1+ix)", ADJACENT, False),
    ("4: sqrt(ix), lower root", sqrt_ix_lower, False),
    ("4': sqrt(ix), upper root", sqrt_ix_upper, True),
]

traces = []
print(f"{'contour':26s} {'wedges':>10s} {'adjacent':>9s} {'symmetric':>10s}")
for label, params, dashed in contours:
    xs, re_z, im_z = polyline(params, extent=8.0, n=801)
    traces.append((label, re_z, im_z, dashed))
    rep = wedge_report(params)
    print(f"{label:26s} {f'{rep.wedge_minus},{rep.wedge_plus}':>10s} "
          f"{str(rep.adjacent):>9s} {str(rep.pt_symmetric):>10s}")

path = wedge_figure(out / "wedges_all.svg", traces)
print(f"\nfigure written to {path}")
