#!/usr/bin/env python3
"""All contours share the spectrum of the anchor p^2 + 4x^4 - 2x.

The anchor is diagonalized by brute force in position space on three grids
with Richardson extrapolation (the package's reference run).  Each contour's
Hermitian equivalent is then diagonalized independently in momentum space;
the five spectra agree with the anchor to better than 1e-5 relative,
including the shifted-parameter contour whose generator differs.  Where
both endpoints lie in one decay family, the non-Hermitian transformed
operator is also diagonalized directly, by dense ``eig`` of its band.
"""
import numpy as np
import scipy.linalg as sla

from ptcontour import (ADJACENT, LOWER_PT, REFERENCE_LEVELS, STANDARD_FIVE,
                       Grid, build_h1, default_momentum_grid,
                       eigensolve_hermitian, hermitize, matrixize,
                       oracle_spectrum, wedge_report)
from ptcontour.contour import direct_diagonalization_allowed


def band_to_dense(ab):
    """The n x n matrix of a band with ``ab[u + i - j, j] = A[i, j]``."""
    u, n = ab.shape[0] // 2, ab.shape[1]
    return sum(np.diag(ab[u - off, max(off, 0):n + min(off, 0)], off)
               for off in range(-u, u + 1))


levels = oracle_spectrum(5)
print("anchor spectrum (Richardson over n = 801/1201/1601):")
for i, e in enumerate(levels):
    print(f"  E{i} = {e:.10f}")
print(f"frozen-fixture agreement: "
      f"{np.abs(levels - np.array(REFERENCE_LEVELS[:5])).max():.2e}\n")

print(f"{'contour':16s}" + "".join(f"{f'E{i}':>14s}" for i in range(5))
      + f"{'max rel dev':>14s}")
for params in STANDARD_FIVE:
    grid = default_momentum_grid(params)
    res = eigensolve_hermitian(matrixize(hermitize(params).h, grid), 5,
                               grid=grid)
    got = res.real_parts()
    rel = (np.abs(got - levels) / levels).max()
    print(f"{params.label():16s}"
          + "".join(f"{v:14.8f}" for v in got) + f"{rel:14.2e}")

print("\ndirect diagonalization of the non-Hermitian transformed operator")
print("(only attempted where both endpoints lie in one decay family):")
for params in (LOWER_PT, ADJACENT):
    if not direct_diagonalization_allowed(wedge_report(params)):
        print(f"  {params.label():12s} skipped: adjacent sectors, no solution "
              "decays at both ends; use the metric route")
        continue
    grid = Grid("momentum", -16.0, 16.0, 801)
    vals = sla.eig(band_to_dense(matrixize(build_h1(params), grid)))[0]
    vals = vals[np.argsort(vals.real, kind="stable")[:5]]
    max_imag = np.abs(vals.imag).max()
    rel = (np.abs(vals.real - levels) / levels).max()
    print(f"  {params.label():12s} max |Im E| = {max_imag:.1e}, "
          f"max rel dev vs anchor = {rel:.1e}")
