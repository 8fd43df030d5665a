"""Leading-order momentum-space wavefunction profiles for three contours.

The three closed-form profiles (one per contour family) are evaluated
verbatim in log-magnitude form: cube roots and exponential arguments are
combined additively, so nothing overflows for |p| <= 200.  Outside the
region where every printed radicand is nonnegative, principal complex
branches are taken and the samples flagged through the validity mask.

Tags:

    ``upper_pt``  contour i*sqrt(1+ix)   -- decays at both ends
    ``adjacent``  contour sqrt(1+ix)     -- grows as p -> +inf, decays at -inf
    ``sqrt_ix``   contour sqrt(ix)       -- decays at both ends

Weighting a profile with its contour's metric cancels the growing cubic in
the exponent, which is the whole point: the metric turns a blowing-up
profile into an integrable one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SQRT_IX, TAG_PARAMS, TAGS
from .errors import PtContourError
from .metric import default_momentum_grid, eigenbasis
from .opalg import metric_of


class OutOfDomain(PtContourError):
    """An intermediate principal-branch value is non-finite."""


def _check(tag: str) -> None:
    if tag not in TAGS:
        raise ValueError(f"unknown profile tag {tag!r}; expected one of {TAGS}")


def _as_array(p) -> np.ndarray:
    return np.atleast_1d(np.asarray(p, dtype=float))


def eval_wkb(tag: str, p) -> np.ndarray | float:
    """log |profile(p)|, evaluated term-by-term in log space."""
    _check(tag)
    ps = _as_array(p)
    pc = ps.astype(complex)
    with np.errstate(all="ignore"):
        if tag == "upper_pt":
            pref = np.sqrt(2.0 * (2.0 * pc ** 3 - 1.0)) + 2.0 * pc ** 1.5
            if np.any(pref == 0):
                raise OutOfDomain("prefactor radical sum vanished")
            log_pref = np.log(pref).real / 3.0
            arg = (-2.0 / 3.0) * ps ** 3 + ps \
                - np.abs(ps) * np.sqrt(2.0 * pc * (2.0 * pc ** 3 - 1.0)).real / 3.0
        else:
            pref = np.sqrt(2.0) * pc ** 1.5 + np.sqrt(2.0 * pc ** 3 + 1.0)
            if np.any(pref == 0):
                raise OutOfDomain("prefactor radical sum vanished")
            log_pref = -np.log(pref).real / 3.0
            arg = (2.0 / 3.0) * ps ** 3 \
                - np.sqrt(4.0 * pc ** 6 + 2.0 * pc ** 3).real / 3.0
            if tag == "adjacent":
                arg = arg + ps
        out = log_pref + arg
    if not np.isfinite(out).all():
        raise OutOfDomain("non-finite intermediate in profile evaluation")
    return out if np.ndim(p) else float(out[0])


def in_domain(tag: str, p) -> np.ndarray:
    """True where every printed radicand is nonnegative."""
    _check(tag)
    ps = _as_array(p)
    if tag == "upper_pt":
        mask = 2.0 * ps ** 3 - 1.0 >= 0.0
    else:
        mask = ps >= 0.0
    return mask if np.ndim(p) else bool(mask[0])


def metric_exponent(tag: str) -> tuple[float, float]:
    """(kappa3, kappa1) of the tag's contour metric, as floats."""
    _check(tag)
    spec = metric_of(TAG_PARAMS[tag])
    return float(spec.kappa3), float(spec.kappa1)


def metric_weighted_wkb(tag: str, p) -> np.ndarray | float:
    """log |profile * eta * profile| with the tag's own metric."""
    k3, k1 = metric_exponent(tag)
    ps = _as_array(p)
    out = 2.0 * np.asarray(eval_wkb(tag, ps)) + k3 * ps ** 3 + k1 * ps
    return out if np.ndim(p) else float(out[0])


def weighted_tail_integral(tag: str, extent: float) -> float:
    """Trapezoid integral of the metric-weighted profile over its valid region,
    sampled 8 times per unit of p (and at least 64 times)."""
    n = max(int(16 * extent) + 1, 64)
    ps = np.linspace(-extent, extent, n)
    mask = in_domain(tag, ps)
    vals = np.zeros_like(ps)
    vals[mask] = np.exp(np.asarray(metric_weighted_wkb(tag, ps[mask])))
    return float(np.trapezoid(vals, ps))


# ---------------------------------------------------------------------------
# consistency bridge to the numerically computed eigenfunctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailComparison:
    side: int                     # +1 or -1
    window: tuple[float, float]
    numeric_factor_slope: float
    wkb_factor_slope: float
    relative_deviation: float
    numeric_full_slope: float
    wkb_full_slope: float

    @property
    def slopes_within_band(self) -> bool:
        return self.relative_deviation < 0.15

    @property
    def full_signs_agree(self) -> bool:
        return self.numeric_full_slope * self.wkb_full_slope > 0


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def compare_to_numeric(tag: str) -> list[TailComparison]:
    """Compare profile decay against the computed ground-state factor on
    the tag's contour ``TAG_PARAMS[tag]``.

    The factored representation splits each wavefunction into the exact
    polynomial exponent (which reproduces the profile's printed cubic and
    linear terms identically) and a smooth decaying factor.  This check fits
    the large-|p| slope of log|factor| against the profile's remaining part
    (profile minus the polynomial exponent) on the widest window where the
    factor is numerically trustworthy; double precision cannot represent the
    factor much beyond |p| ~ 3.5 for these contours, so the window stays
    inside that.  Leading-order profiles justify only a coarse (15%) band.
    """
    _check(tag)
    params = TAG_PARAMS[tag]
    u = eigenbasis(params, 1, default_momentum_grid(SQRT_IX))
    pts = u.points()
    ground = u.factor[0]
    log_factor = np.full(len(pts), -np.inf)
    nz = np.abs(ground) > 0
    log_factor[nz] = np.log(np.abs(ground[nz]))
    floor = log_factor.max() + np.log(1e-12)
    exponent = u.exponent_values()

    out = []
    for side in (-1, +1):
        window = (pts * side >= 1.5) & (pts * side <= 4.5) & (log_factor > floor)
        x = pts[window]
        if len(x) < 8:
            raise ValueError("trustworthy window too small for a slope fit")
        wkb_total = np.asarray(eval_wkb(tag, x))
        numeric_factor_slope = _fit_slope(x, log_factor[window])
        wkb_factor_slope = _fit_slope(x, wkb_total - exponent[window])
        rel = abs(numeric_factor_slope - wkb_factor_slope) / abs(wkb_factor_slope)
        out.append(TailComparison(
            side=side,
            window=(float(x.min()), float(x.max())),
            numeric_factor_slope=numeric_factor_slope,
            wkb_factor_slope=wkb_factor_slope,
            relative_deviation=float(rel),
            numeric_full_slope=_fit_slope(x, (exponent + log_factor)[window]),
            wkb_full_slope=_fit_slope(x, wkb_total),
        ))
    return out
