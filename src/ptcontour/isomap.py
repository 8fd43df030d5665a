"""Norm-preserving maps between the Hilbert spaces of two contours.

A contour with parameters (a2, b2, c2) is reached from one with (a1, b1, c1)
by scaling its real parameter by beta = a2^2 c2 / (a1^2 c1) and shifting it
by an imaginary amount set by gamma = b2/c2 - a1^2 b1 / (a2^2 c2).  On
momentum-space wavefunctions the scaling acts as a unitary dilation and the
imaginary shift as multiplication by exp(gamma p).  For every admissible
contour a^2 c and b/c are real, so beta and gamma are exact real rationals;
both parts act analytically on the tagged exponent, so the transported
metric coefficients obey the exact rational identities

    kappa3' = kappa3 / beta^3        kappa1' = kappa1 / beta - 2 gamma

and metric-weighted amplitudes are preserved identically.  The map itself
and the metric transport are exact and live in :mod:`ptcontour.opalg`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .metric import (TaggedWaveFn, amplitude, default_momentum_grid,
                     eigenbasis)
from .opalg import ContourParams, IsoMap, map_params, metric_of
from .opalg import push_metric  # noqa: F401  (re-exported)
from .spectral import Grid


def push_wavefn(m: IsoMap, u: TaggedWaveFn) -> TaggedWaveFn:
    """Transport a tagged basis along the map, all rows at once.

    The dilation part rescales the grid by beta (with a parity fold, which
    reverses every row, for beta < 0) and divides exponent coefficients by
    beta^k; the shift part adds gamma * p.  The factor keeps its sample
    values up to the unitary normalization |beta|^(-1/2); nothing is
    interpolated.
    """
    if u.grid.variable != "momentum" or not u.grid.symmetric:
        raise ValueError("push_wavefn requires a symmetric momentum grid")
    beta, gamma = m.beta, m.gamma
    if abs(beta) > np.finfo(float).max:
        raise ValidationError(f"the map's scale beta = {beta} overflows a float")
    scale = abs(float(beta))
    natural = Grid("momentum", u.grid.lo * scale, u.grid.hi * scale, u.grid.n)
    factor = u.factor / math.sqrt(scale)
    if beta < 0:
        factor = factor[:, ::-1].copy()
    exponent = tuple(c / beta ** k for k, c in enumerate(u.exponent))
    exponent = (exponent[0], exponent[1] + gamma, exponent[2], exponent[3])
    return TaggedWaveFn(grid=natural, factor=factor, exponent=exponent)


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

    Computes the k x k metric-weighted amplitude matrix of the source
    eigenbasis, maps the whole basis onto the target and recomputes the
    matrix with the target metric.  Because the map rescales the source
    grid onto the target's natural one, no interpolation enters the
    comparison.
    """
    m = map_params(src, dst)
    basis = eigenbasis(src, k, default_momentum_grid(src, n=n))
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
