"""Geometry of the contours z(x) = a*sqrt(b + i c x).

Point sampling with explicit square-root branch control, asymptotic endpoint
directions, and classification of the endpoints into the six angular sectors
of the -z^4 problem (opening pi/3, boundaries at k*pi/3).  A solution of the
associated differential equation decays in a sector according to the sign of
sin(3*theta), which splits the sectors into two alternating families.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchUndefined, OnStokesLine
from .opalg import Branch, ContourParams

_WEDGE_OPENING = math.pi / 3
_PT_TOL = 1e-10
_STOKES_TOL = 1e-9


@dataclass(frozen=True)
class WedgeReport:
    """Endpoint directions and their sector classification."""

    theta_plus: float
    theta_minus: float
    wedge_plus: int
    wedge_minus: int
    decay_family_plus: str      # 'A' where sin(3*theta) > 0, else 'B'
    decay_family_minus: str
    adjacent: bool
    pt_symmetric: bool


def _pick_root(w: complex, branch: Branch,
               prev: complex | None) -> complex | None:
    """Choose a square root of w under the branch policy.

    None when the root is real and there is no previous sample to continue.
    """
    r = cmath.sqrt(w)
    if branch is Branch.PRINCIPAL:
        return r
    if abs(r.imag) > 1e-14 * abs(r):
        want_up = branch is Branch.UPPER
        return r if (r.imag > 0) == want_up else -r
    # root (numerically) real: the imaginary-part rule is ambiguous
    if r == 0:
        return r
    if prev is None:
        return None
    return r if abs(r - prev) <= abs(-r - prev) else -r


def sample(params: ContourParams, x_values) -> np.ndarray:
    """z(x) = a*sqrt(b + i c x) at each real parameter value, as an array.

    ``principal`` takes the principal square root of (b + i c x); ``upper``
    and ``lower`` select, per point, the root with positive respectively
    negative imaginary part, falling back to continuity with the previous
    sample where the root is real.  Leading samples with a real root
    continue backwards from the first sample that decides the branch.
    """
    a, b, c = map(complex, (params.a, params.b, params.c))
    ws = [b + 1j * c * float(x) for x in x_values]
    roots = []
    for w in ws:
        roots.append(_pick_root(w, params.branch, roots[-1] if roots else None))
    lead = next((i for i, r in enumerate(roots) if r is not None), len(roots))
    if ws and lead == len(ws):
        raise BranchUndefined(
            f"root of {ws[0]} is real and no sample decides the branch")
    for i in reversed(range(lead)):
        roots[i] = _pick_root(ws[i], params.branch, roots[i + 1])
    return np.array([a * r for r in roots], dtype=complex)


def _wrap_angle(theta: float) -> float:
    """Wrap into (-pi, pi]."""
    t = math.remainder(theta, 2 * math.pi)
    if t <= -math.pi:
        t += 2 * math.pi
    return t


def _asymptotic_root_angle(params: ContourParams, direction: int) -> float:
    """Angle of the selected root of (b + i c x) as x -> direction * inf."""
    s = 1 if params.c.re > 0 else -1
    principal = s * direction * math.pi / 4
    if params.branch is Branch.PRINCIPAL:
        return principal
    candidates = (principal, _wrap_angle(principal + math.pi))
    want_up = params.branch is Branch.UPPER
    for cand in candidates:
        if (math.sin(cand) > 0) == want_up:
            return cand
    raise BranchUndefined("asymptotic root direction is real")


def endpoint_angles(params: ContourParams) -> tuple[float, float]:
    """Asymptotic directions (theta_minus, theta_plus) of the contour ends.

    Closed form arg(a) +/- pi/4 adjusted for branch and the sign of c,
    cross-checked against the sampled arg(z) at |x| = 1e8 max(1, |b/c|),
    where the sample is asymptotic and b + i c x is never real.
    """
    if not params.c.is_real():
        raise ValueError("endpoint angles require real c")
    base = math.atan2(float(params.a.im), float(params.a.re))
    far = 1e8 * max(1.0, abs(complex(params.b_over_c)))
    thetas = []
    for direction in (-1, +1):
        closed = _wrap_angle(base + _asymptotic_root_angle(params, direction))
        num_angle = cmath.phase(sample(params, [direction * far])[0])
        dev = abs(_wrap_angle(num_angle - closed))
        if dev > 1e-6:
            raise ArithmeticError(
                f"closed-form angle {closed} disagrees with sampled {num_angle}")
        thetas.append(closed)
    return thetas[0], thetas[1]


def _classify(theta: float) -> tuple[int, str]:
    ratio = theta / _WEDGE_OPENING
    if abs(ratio - round(ratio)) < _STOKES_TOL:
        raise OnStokesLine(f"endpoint angle {theta} lies on a wedge boundary")
    wedge = math.floor(ratio)
    family = "A" if math.sin(3 * theta) > 0 else "B"
    return wedge, family


def is_pt_symmetric(params: ContourParams) -> bool:
    """Grid test of z(-x) = -conj(z(x)) on 1001 points of [-50, 50]."""
    zs = sample(params, np.linspace(-50.0, 50.0, 1001))
    dev = np.abs(zs[::-1] + np.conj(zs)).max()
    return bool(dev < _PT_TOL)


def wedge_report(params: ContourParams) -> WedgeReport:
    """Classify both contour endpoints into sectors of the -z^4 problem."""
    theta_minus, theta_plus = endpoint_angles(params)
    wedge_p, family_p = _classify(theta_plus)
    wedge_m, family_m = _classify(theta_minus)
    adjacent = (wedge_p - wedge_m) % 6 in (1, 5)
    return WedgeReport(
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        wedge_plus=wedge_p,
        wedge_minus=wedge_m,
        decay_family_plus=family_p,
        decay_family_minus=family_m,
        adjacent=adjacent,
        pt_symmetric=is_pt_symmetric(params),
    )


def direct_diagonalization_allowed(report: WedgeReport) -> bool:
    """Whether the transformed Hamiltonian may be diagonalized directly.

    Requires non-adjacent endpoints in the same decay family; contours that
    fail this (ends in adjacent sectors) have no solution finite at both
    ends and must go through the metric route instead.
    """
    return (not report.adjacent
            and report.decay_family_plus == report.decay_family_minus)


def polyline(params: ContourParams, extent: float = 6.0, n: int = 481):
    """(x, Re z, Im z) arrays for plotting and CSV export."""
    xs = np.linspace(-extent, extent, n)
    zs = sample(params, xs)
    return xs, zs.real, zs.imag
