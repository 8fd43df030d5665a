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

and metric-weighted amplitudes are preserved identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PushforwardMismatch
from .metric import (MetricSpec, TaggedWaveFn, amplitude,
                     default_momentum_grid, eigenbasis, metric_of)
from .opalg import ContourParams
from .spectral import Grid


@dataclass(frozen=True)
class IsoMap:
    """Scale-and-shift map taking the source contour to the target."""

    beta: Fraction
    gamma: Fraction
    source: ContourParams
    target: ContourParams

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero")

    def compose(self, second: "IsoMap") -> "IsoMap":
        """The map 'self then second'; targets must chain."""
        if second.source != self.target:
            raise ValueError("maps do not chain: target != second.source")
        beta = self.beta * second.beta
        gamma = second.gamma + self.gamma / second.beta
        return IsoMap(beta=beta, gamma=gamma,
                      source=self.source, target=second.target)


def map_params(src: ContourParams, dst: ContourParams) -> IsoMap:
    """Exact (beta, gamma) of the map from src onto dst.

    In the invariants (lam, rho) = (a^2 c, b/c) of each contour,
    beta = lam_dst / lam_src and gamma = rho_dst - rho_src lam_src / lam_dst.
    """
    lam_src, rho_src = src.invariants()
    lam_dst, rho_dst = dst.invariants()
    return IsoMap(beta=lam_dst / lam_src,
                  gamma=rho_dst - rho_src * lam_src / lam_dst,
                  source=src, target=dst)


def push_metric(m: IsoMap, eta1: MetricSpec) -> MetricSpec:
    """Transport metric coefficients along the map, verifying exactness.

    The transported coefficients must coincide, as exact rationals, with the
    metric computed directly on the target contour; a mismatch can only be
    an implementation bug and raises :class:`PushforwardMismatch`.
    """
    if eta1 != metric_of(m.source):
        raise ValueError("eta1 is not the metric of the map's source contour")
    pushed = MetricSpec(
        kappa3=eta1.kappa3 / m.beta ** 3,
        kappa1=eta1.kappa1 / m.beta - 2 * m.gamma,
    )
    direct = metric_of(m.target)
    if pushed != direct:
        raise PushforwardMismatch(
            f"transported ({pushed.kappa3}, {pushed.kappa1}) != "
            f"direct ({direct.kappa3}, {direct.kappa1})")
    return pushed


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
