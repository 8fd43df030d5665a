"""Norm-preserving maps between the Hilbert spaces of two contours.

A contour with parameters (a2, b2, c2) is reached from one with (a1, b1, c1)
by scaling its real parameter by beta = a2^2 c2 / (a1^2 c1) and shifting it
by an imaginary amount set by gamma = b2/c2 - a1^2 b1 / (a2^2 c2).  On
momentum-space wavefunctions the scaling acts as a unitary dilation and the
imaginary shift as multiplication by exp(gamma p).  For every admissible
contour a^2 c and b/c are real, so beta and gamma are exact real rationals;
the dilation multiplies a basis' exact scale (the momentum per grid unit)
and both parts act analytically on the tagged exponent, so no sample
changes, and the transported metric coefficients obey the exact identities

    kappa3' = kappa3 / beta^3        kappa1' = kappa1 / beta - 2 gamma

and metric-weighted amplitudes are preserved identically.  The map itself
and the metric transport are exact and live in :mod:`ptcontour.opalg`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .catalog import SQRT_IX
from .metric import (TaggedWaveFn, amplitude, default_momentum_grid,
                     eigenbasis)
from .opalg import ContourParams, IsoMap, map_params, metric_of, unit_dilation
from .opalg import push_metric  # noqa: F401  (re-exported)


def push_wavefn(m: IsoMap, u: TaggedWaveFn) -> TaggedWaveFn:
    """Transport a tagged basis along the map, all rows at once.

    The dilation multiplies the scale by beta, which carries each sample to
    beta times its momentum (with a parity fold for beta < 0), and divides
    exponent coefficients by beta^k; the shift adds gamma * p.  The grid
    and the factor, in grid units, stay as they are.
    """
    exponent = [c / m.beta ** k for k, c in enumerate(u.exponent)]
    exponent[1] += m.gamma
    return replace(u, scale=u.scale * m.beta, exponent=tuple(exponent))


@dataclass(frozen=True)
class IsometryReport:
    """Amplitude matrices before and after transport, with deviations."""

    src: ContourParams
    dst: ContourParams
    beta: Fraction
    gamma: Fraction
    k: int
    amplitudes_src: np.ndarray
    amplitudes_dst: np.ndarray
    max_deviation: float
    identity_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < 1e-6


def verify_isometry(src: ContourParams, dst: ContourParams, k: int = 3,
                    n: int = 1201) -> IsometryReport:
    """Check amplitude preservation between two contours' Hilbert spaces.

    Gates both contours (:func:`~ptcontour.opalg.unit_dilation`), reaches
    the source eigenbasis by the exact map from that of ``SQRT_IX``
    (a^2 c = 1) on n points, and computes its k x k metric-weighted
    amplitude matrix; then maps the whole basis onto the target and
    recomputes the matrix with the target metric.  No float depends on
    either a^2 c, so every admissible pair is accepted.
    """
    unit_dilation(src)
    unit_dilation(dst)
    m = map_params(src, dst)
    unit = eigenbasis(SQRT_IX, k, default_momentum_grid(SQRT_IX, n=n))
    basis = push_wavefn(map_params(SQRT_IX, src), unit)
    a_src = amplitude(basis, basis, metric_of(src))
    pushed = push_wavefn(m, basis)
    a_dst = amplitude(pushed, pushed, metric_of(dst))
    max_dev = float(np.abs(a_src - a_dst).max())
    ident = float(np.abs(a_src - np.eye(k)).max())
    return IsometryReport(
        src=src, dst=dst, beta=m.beta, gamma=m.gamma, k=k,
        amplitudes_src=a_src, amplitudes_dst=a_dst,
        max_deviation=max_dev, identity_deviation=ident,
    )
