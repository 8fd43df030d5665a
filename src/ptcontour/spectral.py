"""Grid discretization and banded eigensolvers for operator expressions.

Position representation: x acts by multiplication and p = -i d/dx.
Momentum representation: p is diagonal and x = +i d/dp, matching the
Fourier convention psi(x) = (2*pi)^(-1/2) * Integral(e^{ipx} psi~(p) dp).
A monomial x^m p^n becomes (matrix of x)^m @ (matrix of p)^n, in that order,
mirroring the canonical operator ordering.  Each derivative power d^k is its
own compact centered 4th-order k-th-derivative stencil (Fornberg 1988, Math.
Comp. 51:699) with zero (Dirichlet) values beyond the grid ends, so the
matrix of a term is one stencil scaled by rows (position) or by columns
(momentum).  Unlike a power of the first-difference matrix, these stencils
have no grid-scale sawtooth null modes: the lowest eigenpairs of the matrix
are the physical ones.  Matrices are stored as LAPACK band arrays of
half-bandwidth u at most 3, so storage and the eigenvectors (banded inverse
iteration) cost O(n).  The eigenvalues come from LAPACK's ``?sbevx``, whose
band-to-tridiagonal reduction costs O(n^2 u) and is the largest cost of a
spectrum.  ``scipy.linalg`` is imported at the first solve, so that commands
which solve nothing do not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, NotConverged, NotHermitian
from .opalg import ANCHOR, OperatorExpr
from .reference import REFERENCE_DOMAIN, REFERENCE_GRID_SIZES

_MAX_LEVELS = 12
#: bound on ||A v - lambda v|| / max|A|; converged ~6e-16, missed level ~1e-9
_RESIDUAL_BOUND = 1e-12

#: centered 4th-order stencils of d^k, k -> (denominator, integer weights at
#: offsets -r..r); the matrix entries are weight / (denominator * h^k)
_STENCILS = {
    0: (1, (1,)),
    1: (12, (1, -8, 0, 8, -1)),
    2: (12, (-1, 16, -30, 16, -1)),
    3: (8, (1, -8, 13, 0, -13, 8, -1)),
    4: (6, (-1, 12, -39, 56, -39, 12, -1)),
}


@dataclass(frozen=True)
class Grid:
    """Uniform grid in either the position or momentum variable."""

    variable: str          # "position" | "momentum"
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.variable not in ("position", "momentum"):
            raise ValueError(f"unknown grid variable {self.variable!r}")
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if not self.hi > self.lo:
            raise ValueError("grid requires hi > lo")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def symmetric(self) -> bool:
        return self.lo == -self.hi

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def position_grid(extent: float, n: int = 1201) -> Grid:
    return Grid("position", -float(extent), float(extent), n)


def matrixize(a: OperatorExpr, grid: Grid) -> np.ndarray:
    """Band of a normal-ordered operator on a grid, in ``solve_banded`` layout.

    Shape (2u+1, n), u the widest stencil radius among the terms, with
    ``ab[u + i - j, j] = A[i, j]``; each stencil weight goes straight into its
    band row, scaled by the row point (position) or column point (momentum).
    """
    maxdeg = a.degree()
    if grid.n < 4 * maxdeg:
        raise GridTooCoarse(
            f"n={grid.n} < 4 * degree={maxdeg} for this operator")
    position = grid.variable == "position"
    orders = [n if position else m for m, n in a.terms]
    if not set(orders) <= _STENCILS.keys():
        raise ValueError(f"no derivative stencil of order {max(orders)}")
    u = max((len(_STENCILS[k][1]) // 2 for k in orders), default=0)
    out = np.zeros((2 * u + 1, grid.n), dtype=complex)
    pts = grid.points()
    for (m, n), c in a.terms.items():
        # x^m (-i d/dx)^n scales rows; (i d/dp)^m p^n scales columns
        k, scale = ((n, complex(c) * (-1j) ** n * pts ** m) if position else
                    (m, complex(c) * 1j ** m * pts ** n))
        denom, weights = _STENCILS[k]
        step = denom * grid.spacing ** k
        for off, w in enumerate(weights, start=-(len(weights) // 2)):
            lo, hi = max(off, 0), grid.n + min(off, 0)   # columns j = i + off
            shift = off if position else 0               # rows i = j - off
            out[u - off, lo:hi] += scale[lo - shift:hi - shift] * (w / step)
    return out


def _band_matmul(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for A in ``solve_banded`` layout and x of shape (n, k)."""
    u, n = ab.shape[0] // 2, ab.shape[1]
    out = np.zeros(x.shape, dtype=np.result_type(ab, x))
    for off in range(-u, u + 1):
        lo, hi = max(off, 0), n + min(off, 0)       # columns j = i + off
        out[lo - off:hi - off] += ab[u - off, lo:hi, None] * x[lo:hi]
    return out


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    """The n x n matrix of a band in ``solve_banded`` layout."""
    return _band_matmul(ab, np.eye(ab.shape[1]))


@dataclass(frozen=True)
class SpectrumResult:
    """Retained eigenpairs (vectors in columns), by ascending real part."""

    eigenvalues: tuple[complex, ...]
    residual_norms: tuple[float, ...]
    grid: Grid | None
    method: str
    eigenvectors: np.ndarray = field(repr=False, compare=False)

    def real_parts(self) -> np.ndarray:
        return np.array([e.real for e in self.eigenvalues])


def neighbor_correlation(v: np.ndarray) -> float:
    """Normalized correlation of adjacent samples; -1 flags sawtooth modes."""
    num = np.real(np.vdot(v[:-1], v[1:]))
    den = np.real(np.vdot(v, v))
    return float(num / den)


def is_grid_artifact(v: np.ndarray) -> bool:
    """Diagnostic: whether a grid vector is a sawtooth rather than a mode."""
    # physical modes correlate near +1, sawtooth artifacts near -1; anything
    # clearly negative is an artifact (0 is typical of non-grid test matrices)
    return neighbor_correlation(v) < -0.5


def hermitian_eigenpairs(ab: np.ndarray, k: int):
    """Lowest k eigenpairs (values, vectors in columns) of a Hermitian band.

    Values from LAPACK's banded solver; each vector from two inverse-iteration
    steps shifted just above its value, started from a ramp, since a constant
    is orthogonal to the odd levels of a parity-symmetric operator.
    """
    import scipy.linalg as sla
    u, n = ab.shape[0] // 2, ab.shape[1]
    defect = max(np.abs(ab[u - d, d:] - ab[u + d, :n - d].conj()).max()
                 for d in range(u + 1))     # A[i, i+d] vs conj(A[i+d, i])
    if defect >= 1e-10 * np.abs(ab).max():
        raise NotHermitian("matrix fails the Hermiticity tolerance")
    sym = ab if ab.imag.any() else ab.real
    vals = sla.eig_banded(sym[:u + 1], eigvals_only=True, select="i",
                          select_range=(0, k - 1))
    vecs = np.empty((n, len(vals)), dtype=sym.dtype)
    for i, lam in enumerate(vals):
        shifted = sym.copy()
        shifted[u] -= lam + 1e-10 * max(1.0, abs(lam))
        vecs[:, i] = np.linspace(1.0, 2.0, n)
        for _ in range(2):
            v = sla.solve_banded((u, u), shifted, vecs[:, i])
            vecs[:, i] = v / np.linalg.norm(v)
    return vals, vecs


def _check_levels(k: int) -> None:
    if k < 1:
        raise ValueError(f"the level count must be at least 1, got {k}")
    if k > _MAX_LEVELS:
        raise ValueError(f"at most {_MAX_LEVELS} eigenpairs are retained")


def _result(ab, vals, vecs, grid, method) -> SpectrumResult:
    """Package eigenpairs with ||A v - lambda v|| / ||v|| per column v."""
    norms = (np.linalg.norm(_band_matmul(ab, vecs) - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    return SpectrumResult(tuple(complex(v) for v in vals),
                          tuple(float(r) for r in norms), grid, method, vecs)


def eigensolve_hermitian(ab: np.ndarray, k: int,
                         grid: Grid | None = None) -> SpectrumResult:
    """Lowest k eigenpairs of a Hermitian band, with residuals.

    Raises :class:`NotConverged` if a residual exceeds the bound.
    """
    _check_levels(k)
    result = _result(ab, *hermitian_eigenpairs(ab, k), grid, "eig_banded")
    worst, scale = max(result.residual_norms), np.abs(ab).max()
    if worst > _RESIDUAL_BOUND * scale:
        raise NotConverged(f"eigenpair residual {worst:.3e} exceeds "
                           f"{_RESIDUAL_BOUND} * max|A| = {scale:.3e}")
    return result


def eigensolve_general(ab: np.ndarray, k: int,
                       grid: Grid | None = None) -> SpectrumResult:
    """k eigenpairs of least real part of a general band, by dense ``eig``."""
    import scipy.linalg as sla
    _check_levels(k)
    try:
        vals, vecs = sla.eig(band_to_dense(ab))
    except np.linalg.LinAlgError as exc:   # pragma: no cover - hardware path
        raise NotConverged(str(exc)) from exc
    order = np.argsort(vals.real, kind="stable")[:k]
    return _result(ab, vals[order], vecs[:, order], grid, "hessenberg-qr")


# ---------------------------------------------------------------------------
# reference spectrum of the anchor operator
# ---------------------------------------------------------------------------

_DRIFT_BOUND = 1e-7
_STENCIL_ORDER = 4


def _richardson(coarse, fine, h_coarse, h_fine):
    w_c, w_f = h_coarse ** _STENCIL_ORDER, h_fine ** _STENCIL_ORDER
    return (np.asarray(coarse) * w_f - np.asarray(fine) * w_c) / (w_f - w_c)


def oracle_spectrum(levels: int = 5, operator: OperatorExpr | None = None) -> np.ndarray:
    """Grid-refinement spectrum of the anchor p^2 + 4x^4 - 2x.

    Diagonalizes on [-6, 6] at n = 801, 1201, 1601, Richardson-extrapolates
    successive grid pairs, and requires the two extrapolants to agree below
    1e-7 per level (raises :class:`NotConverged` otherwise).  Returns the
    finest-pair extrapolation.
    """
    if not 1 <= levels <= 8:
        raise ValueError("levels must be between 1 and 8")
    op = ANCHOR if operator is None else operator
    per_grid = []
    spacings = []
    for n in REFERENCE_GRID_SIZES:
        grid = Grid("position", *REFERENCE_DOMAIN, n)
        per_grid.append(
            eigensolve_hermitian(matrixize(op, grid), levels).real_parts())
        spacings.append(grid.spacing)
    extrap_1 = _richardson(per_grid[0], per_grid[1], spacings[0], spacings[1])
    extrap_2 = _richardson(per_grid[1], per_grid[2], spacings[1], spacings[2])
    drift = np.abs(extrap_2 - extrap_1)
    if drift.max() >= _DRIFT_BOUND:
        raise NotConverged(
            f"extrapolated drift {drift.max():.3e} exceeds {_DRIFT_BOUND}")
    return extrap_2
