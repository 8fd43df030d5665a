#!/usr/bin/env python3
"""A wavefunction that blows up still has finite transition amplitudes.

The contour sqrt(1+ix) ends in two adjacent sectors, so no solution decays
at both ends: its momentum-space wavefunctions grow like e^p toward
p -> +infinity.  The factored representation keeps them usable anyway: the
stored smooth factor is tame, and the growing cubic exponent is only ever
combined analytically with the metric exponent, which cancels it exactly.

The factor is a grid eigenvector, so it is resolved only where it stays
above about 1e-12 of its peak (|p| below about 3.4 here); beyond that its
samples are rounding noise, and the magnitude at the top of the grid is read
from the leading-order profile instead.  Even so it is large, while every
weighted amplitude stays at or below one.
"""
import math

import numpy as np

from ptcontour import (ADJACENT, Grid, amplitude, eigenbasis, eval_wkb,
                       metric_of)

grid = Grid("momentum", -30.0, 30.0, 1601)
basis = eigenbasis(ADJACENT, 4, grid)

print(f"contour {ADJACENT.label()}: psi~(p) = exp(E(p)) * factor(p) with the "
      f"exact exponent E(p) = +(2/3)p^3 + p")
pts = basis.points()
factor = np.abs(basis.factor[0])
resolved = pts[factor > 1e-12 * factor.max()]
print(f"grid: [{grid.lo}, {grid.hi}] with {grid.n} points; the factor is "
      f"resolved for {resolved.min():.1f} <= p <= {resolved.max():.1f}\n")

exponent10 = basis.exponent_values() / math.log(10.0)
print(f"  {'p':>5s} {'log10|factor|':>14s} {'E(p)/ln 10':>11s} "
      f"{'log10|psi~|':>12s}")
for p_show in (0.0, 1.0, 2.0, 3.0):
    i = int(np.argmin(np.abs(pts - p_show)))
    f10 = math.log10(factor[i])
    print(f"  {pts[i]:5.1f} {f10:14.1f} {exponent10[i]:11.1f} "
          f"{f10 + exponent10[i]:12.1f}")

top = eval_wkb("adjacent", grid.hi) / math.log(10.0)
print(f"\nat the grid top p = {grid.hi:.0f} the exact exponent part alone is "
      f"E/ln 10 = {exponent10[-1]:.1f};")
print(f"the leading-order profile gives log10 |psi~({grid.hi:.0f})| = "
      f"{top:.1f}")
print(f"raw magnitude at the grid top exceeds 1e10: {top > 10}")

mat = amplitude(basis, basis, metric_of(ADJACENT))
print(f"\nmetric-weighted amplitude matrix (4x4): max |entry| = "
      f"{np.abs(mat).max():.12f}")
print(f"deviation from identity: {np.abs(mat - np.eye(4)).max():.3e}")
print("\nThe weight exp(-(4/3)p^3 - 2p) cancels the growth term for term,")
print("exactly as the Gaussian weight does for Hermite polynomials.")
