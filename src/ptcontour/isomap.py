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

and metric-weighted amplitudes are preserved identically: one solved basis
serves every contour.  The exact maps live in :mod:`ptcontour.opalg`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .catalog import SQRT_IX
from .metric import (TaggedWaveFn, amplitude, default_momentum_grid,
                     eigenbasis)
from .opalg import ContourParams, IsoMap, map_params, metric_of, unit_dilation


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
    """Amplitude matrices before and after transport.  ``max_deviation`` is
    0.0 by construction (the transport is exact); ``passed`` also requires
    ``identity_deviation``, the basis' numerical health, below 1e-6."""

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
        return self.max_deviation < 1e-6 and self.identity_deviation < 1e-6


def verify_isometry(src: ContourParams, dst: ContourParams, k: int = 3,
                    n: int = 1201) -> IsometryReport:
    """Check amplitude preservation between two contours' Hilbert spaces:
    the source's eigenbasis on the unit grid of n points, its k x k
    metric-weighted amplitude matrix, and the matrix of that basis carried
    onto the target under the target's metric.  Both contours are gated; no
    float depends on either a^2 c, so every admissible pair is accepted.
    """
    basis = eigenbasis(src, k, default_momentum_grid(SQRT_IX, n=n))
    unit_dilation(dst)
    m = map_params(src, dst)
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
