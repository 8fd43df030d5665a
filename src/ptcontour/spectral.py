"""Grid discretization and the banded eigensolver for operator expressions.

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
half-bandwidth u at most 3, so storage costs O(n).  The eigenvalues are found
coarse to fine: LAPACK's ``?sbevx`` (``?hbevx`` for a complex band), whose
O(m^2 u) band-to-tridiagonal reduction runs on the band coarsened r-fold
(m ~ n/r points, r = 16, 8 or 4, the coarsest that passes its check), and
Rayleigh-quotient iteration on the band itself refines each value and finds
its vector with a few O(n u^2) ``?gbsv`` solves.  Both drivers are called as
``eig_banded`` and ``solve_banded`` call them, less their per-call set-up.
They come from scipy's compiled LAPACK module ``_flapack``, loaded from its
file at the first solve, so that no command imports ``scipy.linalg`` (and
with it ``scipy.sparse``) and commands which solve nothing load no LAPACK at
all.  Only ``get_lapack_funcs``, when that file or the driver is missing,
imports ``scipy.linalg``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, NotConverged, NotHermitian
from .opalg import ANCHOR, OperatorExpr
from .reference import REFERENCE_DOMAIN, REFERENCE_GRID_SIZES

_MAX_LEVELS = 12
#: bound on ||A v - lambda v|| / max|A|; converged ~6e-16, missed level ~1e-9
_RESIDUAL_BOUND = 1e-12
#: the bands that may seed the eigenvalues, tried coarsest first: each keeps
#: every r-th grid point and is checked against the band keeping every 2r-th
_COARSENINGS = (16, 8, 4)
#: bound on residual / (distance to the nearest other level), which bounds
#: the error of each eigenvector (Davis-Kahan)
_VECTOR_TOL = 1e-13
_RQI_STEPS = 8          # per level; 2-3 reach the tolerance

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

    def points(self) -> np.ndarray:
        """mid + h (j - (n - 1)/2), j < n: exactly odd about mid, so mirrored
        or power-of-two-dilated symmetric grids share their floats."""
        mid = (self.lo + self.hi) / 2
        return mid + self.spacing * (np.arange(self.n) - (self.n - 1) / 2)


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


def _coarsened(band: np.ndarray, ratio: int, k: int) -> np.ndarray | None:
    """The band on every ``ratio``-th interior point of its grid, or None.

    Column j of a Hermitian band is the conjugate of row j, so it is a sum of
    the stencils with coefficients taken from point j alone; on a grid
    ``ratio`` times coarser the stencil of d^k is scaled by ``ratio^-k``.
    None if the band has k columns or fewer to keep, or if they are not such
    sums.
    """
    u, n = band.shape[0] // 2, band.shape[1]
    cols = band[:, 4:n - u:ratio]     # from 4 >= u: whole stencils only
    if cols.shape[1] <= k:
        return None
    orders, basis, gram = _stencil_basis(u)
    coef = np.linalg.solve(gram, basis.T @ cols)
    if np.abs(basis @ coef - cols).max() > 1e-10 * np.abs(cols).max():
        return None
    return (basis * float(ratio) ** -orders) @ coef


@functools.cache
def _stencil_basis(u: int):
    """Stencils of half-width <= u as band columns: orders, columns, Gram."""
    orders = [k for k, (_, w) in _STENCILS.items() if len(w) // 2 <= u]
    basis = np.stack([np.pad(w, u - len(w) // 2) / d
                      for d, w in map(_STENCILS.get, orders)], axis=1)
    return np.array(orders), basis, basis.T @ basis


@functools.cache
def _flapack():
    """scipy's compiled LAPACK module, loaded from its file under scipy's
    ``linalg/`` directory without importing ``scipy.linalg``; None if no
    such file is found."""
    import importlib.machinery
    import importlib.util
    from pathlib import Path
    scipy = importlib.util.find_spec("scipy")
    linalg = Path(scipy.submodule_search_locations[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            # under scipy's own name, which its init function needs and
            # under which a later ``import scipy.linalg`` finds it loaded
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


@functools.cache
def _lapack(name: str, dtype):
    """LAPACK's ``?name`` for arrays of ``dtype``, as (full name, driver):
    the d driver for a real dtype, the z driver for a complex one."""
    dtype = complex if np.dtype(dtype).kind == "c" else float
    full = ("z" if dtype is complex else "d") + name
    driver = getattr(_flapack(), full, None)
    if driver is None:
        from scipy.linalg.lapack import get_lapack_funcs
        driver, = get_lapack_funcs((name,), dtype=dtype)
    return full, driver


def _seeds(band: np.ndarray, k: int):
    """The lowest k values of a band, and each one's distance to the nearest
    other of its lowest k + 1 (k if the band has only k columns)."""
    top = k if band.shape[1] > k else k - 1
    upper = np.asarray_chkfinite(band[:band.shape[0] // 2 + 1])
    name, bevx = _lapack("hbevx" if upper.dtype.kind == "c" else "sbevx",
                         upper.dtype)
    # as eig_banded(eigvals_only=True, select="i") calls it; tiny = dlamch('s')
    vals, _, m, _, info = bevx(upper, 0.0, 1.0, 1, top + 1, compute_v=0,
                               mmax=1, range=2, lower=0, overwrite_ab=0,
                               abstol=2 * np.finfo(float).tiny)
    if info:
        raise NotConverged(f"{name} failed with info {info}")
    gaps = np.diff(np.concatenate(([-np.inf], vals[:m], [np.inf])))
    return vals[:k], np.minimum(gaps[:-1], gaps[1:])[:k]


def _rayleigh_refine(sym, lam, tol, v, work):
    """Rayleigh-quotient iteration on the band from the value ``lam``.

    ``work`` holds the band under u rows of LU fill-in.  Each step sets its
    diagonal to the band's less the current value (nudged up so that it is
    never exactly singular) and factors a copy.  The first starts from the
    ramp ``v``, as a constant is orthogonal to the odd levels of a
    parity-symmetric operator.  Returns the last Rayleigh quotient and its
    unit vector at a residual below ``tol``, or after ``_RQI_STEPS``.
    """
    u = sym.shape[0] // 2
    name, gbsv = _lapack("gbsv", work.dtype)
    for _ in range(_RQI_STEPS):
        shift = lam + 1e-10 * max(1.0, abs(lam))
        work[2 * u] = sym[u] - shift
        _, _, w, info = gbsv(u, u, work, v)
        if info:
            raise NotConverged(f"{name} failed with info {info}")
        norm = np.linalg.norm(w)
        # (A - shift) w = v, so A x = shift x + v / norm for x = w / norm
        x = w / norm
        lam = shift + np.vdot(x, v).real / norm
        residual = np.linalg.norm((shift - lam) * x + v / norm)
        v = x
        if residual < tol:
            break
    return lam, v


def hermitian_eigenpairs(ab: np.ndarray, k: int):
    """Lowest k eigenpairs (values, vectors in columns) of a Hermitian band,
    and the name of the method that found them.

    The lowest values of the band coarsened r-fold seed Rayleigh-quotient
    iteration on the band itself (nested iteration: Brandt 1977; RQI:
    Parlett 1998), for the first r of ``_COARSENINGS`` whose seeds pass two
    tests.  The band coarsened 2r-fold must give each seed again to within
    a quarter of its distance to the nearest other seed, so that the seeds
    have converged in the grid spacing; the iteration then starts from the
    Richardson extrapolation of the two values.  A level is refined until
    its residual is below ``_VECTOR_TOL`` times that distance, which bounds
    the error of its vector.  Each refined value must stay within a quarter
    of the distance of its seed too; since the seeds ascend and each
    distance is at most the gap to the next seed, the values then increase.
    If no rung passes, the band's own values seed the iteration.
    """
    u, n = ab.shape[0] // 2, ab.shape[1]
    sym = ab if ab.imag.any() else ab.real      # no complex work for a real A
    defect = max(np.abs(sym[u - d, d:] - sym[u + d, :n - d].conj()).max()
                 for d in range(u + 1))     # A[i, i+d] vs conj(A[i+d, i])
    if defect >= 1e-10 * np.abs(sym).max():
        raise NotHermitian("matrix fails the Hermiticity tolerance")
    np.asarray_chkfinite(sym)   # once: the solves below skip their checks
    ramp = np.linspace(1.0, 2.0, n)     # one start and work band per solve
    work = np.zeros((3 * u + 1, n), np.result_type(sym, ramp), order="F")
    work[u:] = sym

    def refine(seeds, near):
        vals, vecs = zip(*(_rayleigh_refine(sym, lam, tol, ramp, work)
                           for lam, tol in zip(seeds, _VECTOR_TOL * near)))
        return np.array(vals), np.stack(vecs, axis=1)

    for ratio in _COARSENINGS:
        coarse = _coarsened(sym, ratio, k)
        check = None if coarse is None else _coarsened(coarse, 2, k)
        if check is None:
            continue
        seeds, near = _seeds(coarse, k)
        again = _seeds(check, k)[0]
        if np.all(np.abs(again - seeds) < near / 4):
            vals, vecs = refine(_richardson(again, seeds, 2 * ratio, ratio),
                                near)
            if np.all(np.abs(vals - seeds) < near / 4):
                return vals, vecs, f"eig_banded/{ratio}+rqi"
    return (*refine(*_seeds(sym, k)), "eig_banded+rqi")


def check_levels(k: int) -> None:
    """The level rule of every spectral solve: 1 <= k <= 12."""
    if k < 1:
        raise ValueError(f"the level count must be at least 1, got {k}")
    if k > _MAX_LEVELS:
        raise ValueError(f"at most {_MAX_LEVELS} eigenpairs are retained")


def eigensolve_hermitian(ab: np.ndarray, k: int,
                         grid: Grid | None = None) -> SpectrumResult:
    """Lowest k eigenpairs of a Hermitian band, with the residual
    ||A v - lambda v|| / ||v|| of each.

    Raises :class:`NotConverged` if a residual exceeds the bound.
    """
    check_levels(k)
    vals, vecs, method = hermitian_eigenpairs(ab, k)
    band = ab if ab.imag.any() else ab.real     # no complex work for a real A
    norms = (np.linalg.norm(_band_matmul(band, vecs) - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    worst, scale = norms.max(), np.abs(band).max()
    if worst > _RESIDUAL_BOUND * scale:
        raise NotConverged(f"eigenpair residual {worst:.3e} exceeds "
                           f"{_RESIDUAL_BOUND} * max|A| = {scale:.3e}")
    return SpectrumResult(tuple(complex(v) for v in vals),
                          tuple(float(r) for r in norms), grid, method, vecs)


# ---------------------------------------------------------------------------
# reference spectrum of the anchor operator
# ---------------------------------------------------------------------------

_DRIFT_BOUND = 1e-7
_STENCIL_ORDER = 4


def _richardson(coarse, fine, h_coarse, h_fine):
    w_c, w_f = h_coarse ** _STENCIL_ORDER, h_fine ** _STENCIL_ORDER
    return (np.asarray(coarse) * w_f - np.asarray(fine) * w_c) / (w_f - w_c)


def oracle_spectrum(levels: int = 5) -> np.ndarray:
    """Grid-refinement spectrum of the anchor p^2 + 4x^4 - 2x.

    Diagonalizes on [-6, 6] at n = 801, 1201, 1601, Richardson-extrapolates
    successive grid pairs, and requires the two extrapolants to agree below
    1e-7 per level (raises :class:`NotConverged` otherwise).  Returns the
    finest-pair extrapolation.
    """
    if not 1 <= levels <= 8:
        raise ValueError("levels must be between 1 and 8")
    grids = [Grid("position", *REFERENCE_DOMAIN, n)
             for n in REFERENCE_GRID_SIZES]
    per_grid = [eigensolve_hermitian(matrixize(ANCHOR, g), levels).real_parts()
                for g in grids]
    spacings = [g.spacing for g in grids]
    extrap_1 = _richardson(per_grid[0], per_grid[1], spacings[0], spacings[1])
    extrap_2 = _richardson(per_grid[1], per_grid[2], spacings[1], spacings[2])
    drift = np.abs(extrap_2 - extrap_1)
    if drift.max() >= _DRIFT_BOUND:
        raise NotConverged(
            f"extrapolated drift {drift.max():.3e} exceeds {_DRIFT_BOUND}")
    return extrap_2
