#!/usr/bin/env python3
"""Leading-order momentum-space profiles, bare and metric-weighted.

The three closed-form profiles show the asymptotics directly: the
adjacent-sector contour's profile grows toward p -> +infinity while the two
symmetric contours decay at both ends.  Weighting by each contour's metric
cancels the growing cubic and leaves integrable curves.  We also check the
profiles against the numerically computed eigenfunction factors: their
large-|p| decay slopes agree to better than 15%.
"""
from pathlib import Path

import numpy as np

from ptcontour import TAGS, compare_to_numeric, eval_wkb, metric_weighted_wkb
from ptcontour.svgfig import line_chart

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

ps = np.linspace(-8.0, 8.0, 481)
bare = [(tag, ps, np.asarray(eval_wkb(tag, ps))) for tag in TAGS]
weighted = [(tag, ps, np.asarray(metric_weighted_wkb(tag, ps)))
            for tag in TAGS]
line_chart(out / "wkb_bare.svg", bare,
           title="log |profile(p)|", xlabel="p", ylabel="log magnitude")
line_chart(out / "wkb_weighted.svg", weighted,
           title="log |profile * eta * profile|", xlabel="p",
           ylabel="log magnitude")

print("end behavior (log magnitudes):")
for tag in TAGS:
    lo, hi = eval_wkb(tag, -20.0), eval_wkb(tag, 20.0)
    wlo, whi = metric_weighted_wkb(tag, -20.0), metric_weighted_wkb(tag, 20.0)
    print(f"  {tag:9s} bare: {lo:12.1f} | {hi:12.1f}   "
          f"weighted: {wlo:12.1f} | {whi:12.1f}")

print("\nprofile decay vs computed eigenfunction factor (slope fits):")
for tag in TAGS:
    for side in compare_to_numeric(tag):
        print(f"  {tag:9s} side {side.side:+d}: numeric "
              f"{side.numeric_factor_slope:9.3f}, profile "
              f"{side.wkb_factor_slope:9.3f}, deviation "
              f"{side.relative_deviation:6.1%}")

print(f"\nfigures written to {out}")
