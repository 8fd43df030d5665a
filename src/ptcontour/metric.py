"""Metric operators eta = exp(kappa3 p^3 + kappa1 p) and weighted amplitudes.

A basis of wavefunctions is stored factored: one row per function of a
smooth, numerically tame factor on a grid, with one exact cubic exponent
and one exact scale, a sample's momentum per grid unit, that all rows
share: every contour's basis is the unit form's on [-4, 4] scaled by a^2 c.
Transition amplitudes add the bra, ket and metric exponents as exact
rationals first; for every matched contour/metric pair the sum cancels to
zero identically, so the amplitudes, summed in grid units where the scale
cancels too, are finite by structure.  The amplitude matrix of two bases,
F^H diag(w) G with w the Simpson weights times exp of the combined
exponent, is summed one bra row at a time, so its temporaries are O(m n),
not O(k m n); only a nonzero exponent is exponentiated, after the overflow
sentinel has bounded it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonIntegrable, ValidationError
from .opalg import (UNIT_FORM, ContourParams, MetricSpec, dyson_coefficients,
                    unit_dilation)
from .opalg import metric_of  # noqa: F401  (re-exported)
from .spectral import Grid, eigensolve_hermitian, matrixize

_EXP_OVERFLOW = 700.0
_HALFWIDTH_SCALE = 4.0


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; n must be odd (even interval count)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _poly_eval(coeffs: tuple[Fraction, ...], q: np.ndarray,
               scale: Fraction) -> np.ndarray:
    """The polynomial at p = scale * q, from its exact coefficients in q."""
    out = np.zeros_like(q, dtype=float)
    for k, c in reversed(list(enumerate(coeffs))):
        out = out * q + float(c * scale ** k)
    return out


@dataclass(frozen=True)
class TaggedWaveFn:
    """Momentum-space basis exp(exponent(p)) |scale|^-1/2 factor[i](p/scale).

    ``factor`` has shape ``(k, grid.n)``: row i holds the smooth part of
    function i at the grid points, which sit at the momenta :meth:`points`.
    All rows share the grid, the exact ``scale`` and ``exponent``, an exact
    real polynomial of degree <= 3 applied implicitly.  The full product is
    never materialized when the exponent is unbounded above on the grid,
    which is exactly what keeps blowing-up wavefunctions usable.
    """

    grid: Grid
    factor: np.ndarray
    exponent: tuple[Fraction, Fraction, Fraction, Fraction]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if np.ndim(self.factor) != 2 or np.shape(self.factor)[1] != self.grid.n:
            raise ValueError(f"factor must have shape (k, {self.grid.n}), "
                             f"got {np.shape(self.factor)}")

    def points(self) -> np.ndarray:
        """The momenta p = scale * q of the samples, as floats."""
        return float(self.scale) * self.grid.points()

    def exponent_values(self) -> np.ndarray:
        return _poly_eval(self.exponent, self.grid.points(), self.scale)

    def log_abs(self) -> np.ndarray:
        """log |exp(exponent) * factor| per sample (-inf where factor = 0)."""
        mag = np.abs(self.factor)
        with np.errstate(divide="ignore"):
            return self.exponent_values() + np.log(mag)


def eigenbasis(params: ContourParams, k: int, grid: Grid) -> TaggedWaveFn:
    """The lowest k eigenfunctions of the transformed Hamiltonian on a
    contour, as one basis sampled on a grid of the contour's momenta.

    Diagonalizes :data:`~ptcontour.opalg.UNIT_FORM` in momentum
    representation (real orthonormal eigenvectors) on the grid divided by
    a^2 c, exact for :func:`default_momentum_grid`, and scales the basis by
    the a^2 c that :func:`~ptcontour.opalg.unit_dilation` gates; the
    exponent -(f p^3 + g p), (f, g) from :func:`dyson_coefficients`, undoes
    the similarity transformation.  Level i is C-contiguous factor row i,
    normalized against the Simpson weights of its grid and phased so its
    largest sample is positive.
    """
    if grid.variable != "momentum":
        raise ValueError("eigenbasis requires a momentum grid")
    if grid.n % 2 == 0:
        raise ValueError("eigenbasis requires an odd point count (Simpson)")
    lam = unit_dilation(params)
    cubic, linear = dyson_coefficients(params)
    unit = Grid("momentum", *sorted([grid.lo / lam, grid.hi / lam]), grid.n)
    vecs = eigensolve_hermitian(matrixize(UNIT_FORM, unit), k).eigenvectors
    w = simpson_weights(unit.n, unit.spacing)
    f = vecs.T.astype(float, order="C")
    f /= np.sqrt((w * f * f).sum(-1))[:, None]
    f[f[np.arange(k), np.abs(f).argmax(-1)] < 0] *= -1.0
    return TaggedWaveFn(grid=unit, factor=f, scale=lam,
                        exponent=(Fraction(0), -linear, Fraction(0), -cubic))


def default_momentum_grid(params: ContourParams, n: int = 1201) -> Grid:
    """Momentum grid wide enough for the contour's eigenfunctions.

    The Hermitian equivalents are self-similar under p -> |a^2 c| p, so a
    halfwidth of 4|a^2 c|, a positive float, gives every contour the same
    resolution.
    """
    lam, _ = params.invariants()
    if abs(lam) > np.finfo(float).max / _HALFWIDTH_SCALE or not float(lam):
        raise ValidationError(f"a^2 c = {lam} puts its grid beyond the floats")
    scale = abs(float(lam))
    return Grid("momentum", -_HALFWIDTH_SCALE * scale, _HALFWIDTH_SCALE * scale, n)


def _combined_exponent(u: TaggedWaveFn, v: TaggedWaveFn,
                       eta: MetricSpec) -> tuple[Fraction, ...]:
    ec = eta.exponent_coeffs()
    return tuple(cu + cv + ce
                 for cu, cv, ce in zip(u.exponent, v.exponent, ec))


def amplitude(u: TaggedWaveFn, v: TaggedWaveFn, eta: MetricSpec) -> np.ndarray:
    """Metric-weighted transition amplitudes <u_i | eta | v_j>, as a complex
    (k, m) matrix for bases of k and m rows on one grid and scale.

    The bra is complex-conjugated.  Exponents combine exactly; when the
    combined exponent vanishes identically the amplitudes reduce to a plain
    Simpson quadrature of the factors in grid units.  A combined exponent
    that exceeds the overflow sentinel anywhere on the grid marks the
    amplitudes as genuinely divergent and raises :class:`NonIntegrable`.
    """
    if (u.grid, u.scale) != (v.grid, v.scale):
        raise ValueError("amplitude requires both bases on one grid")
    grid = u.grid
    combined = _combined_exponent(u, v, eta)
    w = simpson_weights(grid.n, grid.spacing)
    if any(combined):
        pts = grid.points()
        e = _poly_eval(combined, pts, u.scale)
        peak = int(np.argmax(e))
        if e[peak] > _EXP_OVERFLOW:
            from decimal import Decimal     # exact p, however large the scale
            p = Decimal(pts[peak]) * u.scale.numerator / u.scale.denominator
            raise NonIntegrable(f"combined exponent peaks at {e[peak]:.3g} "
                                f"at p = {p:.3g}")
        w = w * np.exp(e)
    out = np.empty((len(u.factor), len(v.factor)), dtype=complex)
    for i, bra in enumerate(u.factor):
        out[i] = (w * (np.conj(bra) * v.factor)).sum(-1)
    return out


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
