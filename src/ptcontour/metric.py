"""Metric operators eta = exp(kappa3 p^3 + kappa1 p) and weighted amplitudes.

Wavefunctions are stored factored: a smooth, numerically tame factor on a
momentum grid together with an exact cubic polynomial exponent that is only
ever combined analytically.  Transition amplitudes add the bra, ket and
metric exponents as exact rationals first; for every matched contour/metric
pair the sum cancels to zero identically, so the amplitudes are finite by
structure, and a basis sharing one such exponent gets its whole amplitude
matrix from one array product F^H diag(w) F.  Only a combined exponent
that is genuinely nonzero is ever exponentiated, in log-magnitude form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonIntegrable
from .opalg import ContourParams, dyson_coefficients, hermitize
from .spectral import Grid, eigensolve_hermitian, matrixize

_EXP_OVERFLOW = 700.0
_HALFWIDTH_SCALE = 4.0


@dataclass(frozen=True)
class MetricSpec:
    """Exact exponent coefficients of eta = exp(kappa3 p^3 + kappa1 p)."""

    kappa3: Fraction
    kappa1: Fraction

    def exponent_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (Fraction(0), self.kappa1, Fraction(0), self.kappa3)


def metric_of(params: ContourParams) -> MetricSpec:
    """Metric coefficients kappa3 = -4/(3 (a^2 c)^3), kappa1 = -2 b/c.

    These are twice the similarity-generator coefficients (f, g) of
    :func:`dyson_coefficients` (eta is the square of the similarity
    transformation), so the validity conditions are the same as for the
    Hermitian equivalent.
    """
    f, g = dyson_coefficients(params)
    return MetricSpec(kappa3=2 * f, kappa1=2 * g)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; n must be odd (even interval count)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _poly_eval(coeffs: tuple[Fraction, ...], p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p, dtype=float)
    for c in reversed(coeffs):
        out = out * p + float(c)
    return out


@dataclass(frozen=True)
class TaggedWaveFn:
    """Momentum-space wavefunction exp(exponent(p)) * factor(p).

    ``factor`` holds grid samples of the smooth part; ``exponent`` is an
    exact real polynomial of degree <= 3, applied implicitly.  The full
    product is never materialized when the exponent is unbounded above on
    the grid, which is exactly what keeps blowing-up wavefunctions usable.
    """

    grid: Grid
    factor: np.ndarray
    exponent: tuple[Fraction, Fraction, Fraction, Fraction]
    label: str = ""

    def exponent_values(self) -> np.ndarray:
        return _poly_eval(self.exponent, self.grid.points())

    def log_abs(self) -> np.ndarray:
        """log |exp(exponent) * factor| per sample (-inf where factor = 0)."""
        mag = np.abs(self.factor)
        with np.errstate(divide="ignore"):
            return self.exponent_values() + np.log(mag)


def eigenbasis(params: ContourParams, k: int, grid: Grid) -> list[TaggedWaveFn]:
    """Tagged eigenfunctions of the transformed Hamiltonian on a contour.

    Diagonalizes the Hermitian equivalent in momentum representation (real
    orthonormal eigenvectors), then undoes the similarity transformation
    analytically: the returned functions carry exponent -(f p^3 + g p) with
    the smooth eigenvector as factor.  Factors are normalized against the
    Simpson weights of the grid and phased so the largest sample is positive.
    """
    if grid.variable != "momentum":
        raise ValueError("eigenbasis requires a momentum grid")
    if grid.n % 2 == 0:
        raise ValueError("eigenbasis requires an odd point count (Simpson)")
    res = hermitize(params)
    vecs = eigensolve_hermitian(matrixize(res.h, grid), k).eigenvectors
    w = simpson_weights(grid.n, grid.spacing)
    exponent = (Fraction(0), -res.g, Fraction(0), -res.f)
    out = []
    for i in range(k):
        v = vecs[:, i].astype(float)
        v = v / math.sqrt(float(np.sum(w * v * v)))
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        out.append(TaggedWaveFn(
            grid=grid, factor=v, exponent=exponent,
            label=f"level {i} of {params.label()}"))
    return out


def default_momentum_grid(params: ContourParams, n: int = 1201) -> Grid:
    """Momentum grid wide enough for the contour's eigenfunctions.

    The Hermitian equivalents are self-similar under p -> |a^2 c| p, so a
    halfwidth of 4|a^2 c| gives every contour the same resolution.
    """
    s = params.a2c
    scale = math.hypot(float(s.re), float(s.im))
    return Grid("momentum", -_HALFWIDTH_SCALE * scale, _HALFWIDTH_SCALE * scale, n)


def _combined_exponent(u: TaggedWaveFn, v: TaggedWaveFn,
                       eta: MetricSpec) -> tuple[Fraction, ...]:
    ec = eta.exponent_coeffs()
    return tuple(cu + cv + ce
                 for cu, cv, ce in zip(u.exponent, v.exponent, ec))


def amplitude(u: TaggedWaveFn, v: TaggedWaveFn, eta: MetricSpec) -> complex:
    """Metric-weighted transition amplitude <u | eta | v>.

    The bra is complex-conjugated.  Exponents combine exactly; when the
    combined exponent vanishes identically the amplitude reduces to a plain
    Simpson quadrature of the factors.  A combined exponent that exceeds
    the overflow sentinel anywhere on the grid marks the amplitude as
    genuinely divergent and raises :class:`NonIntegrable`.
    """
    if u.grid != v.grid:
        raise ValueError("amplitude requires both functions on one grid")
    pts = u.grid.points()
    w = simpson_weights(u.grid.n, u.grid.spacing)
    cross = np.conj(u.factor) * v.factor
    combined = _combined_exponent(u, v, eta)
    if all(c == 0 for c in combined):
        return complex(np.sum(w * cross))

    e = _poly_eval(combined, pts)
    peak = int(np.argmax(e))
    if e[peak] > _EXP_OVERFLOW:
        raise NonIntegrable(
            f"combined exponent peaks at {e[peak]:.3g} at p = {pts[peak]:.3g}")
    mag = np.abs(cross)
    vals = np.zeros_like(cross)
    nz = mag > 0
    vals[nz] = (cross[nz] / mag[nz]) * np.exp(np.log(mag[nz]) + e[nz])
    return complex(np.sum(w * vals))


def amplitude_matrix(basis: list[TaggedWaveFn], eta: MetricSpec) -> np.ndarray:
    """:func:`amplitude` of every pair, in one array product F^H diag(w) F
    of the factors F if the basis shares one grid and one exponent eta
    cancels; summed as :func:`amplitude` sums, so the bits are the same."""
    u = basis[0] if basis else None
    if u and not any(_combined_exponent(u, u, eta)) and all(
            (v.grid, v.exponent) == (u.grid, u.exponent) for v in basis):
        f = np.stack([v.factor for v in basis])
        w = simpson_weights(u.grid.n, u.grid.spacing)
        return (w * (f.conj()[:, None] * f)).sum(axis=-1).astype(complex)
    return np.array([[amplitude(a, b, eta) for b in basis] for a in basis],
                    dtype=complex).reshape(len(basis), len(basis))


# ---------------------------------------------------------------------------
# weight-function analogy with Hermite polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteTable:
    """Weighted Hermite inner products T[n, m] plus plotting samples."""

    table: np.ndarray
    plot_x: np.ndarray
    plot_values: np.ndarray     # rows: H_0 .. H_3


def hermite_values(n_max: int, x: np.ndarray) -> np.ndarray:
    """H_0..H_n_max on x by the three-term recurrence."""
    out = np.empty((n_max + 1, len(x)))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * x
    for n in range(1, n_max):
        out[n + 1] = 2.0 * x * out[n] - 2.0 * n * out[n - 1]
    return out


def exact_hermite_norm(n: int) -> float:
    """Closed form Integral(H_n^2 exp(-x^2)) = 2^n n! sqrt(pi)."""
    return 2.0 ** n * math.factorial(n) * math.sqrt(math.pi)


def hermite_demo(n_max: int = 5) -> HermiteTable:
    """Weighted inner products of Hermite polynomials.

    The polynomials diverge at |x| -> inf, yet the Gaussian weight renders
    every inner product finite: the same mechanism the metric operator
    provides for contours whose wavefunctions blow up.  Quadrature is a
    200-interval Simpson rule on [-12, 12].
    """
    if not 0 <= n_max <= 8:
        raise ValueError("n_max must be between 0 and 8")
    x = np.linspace(-12.0, 12.0, 201)
    w = simpson_weights(201, x[1] - x[0])
    hv = hermite_values(n_max, x)
    weight = np.exp(-x * x)
    table = np.einsum("i,ni,mi->nm", w * weight, hv, hv)
    plot_x = np.linspace(-3.0, 3.0, 241)
    return HermiteTable(table=table, plot_x=plot_x,
                        plot_values=hermite_values(3, plot_x))
