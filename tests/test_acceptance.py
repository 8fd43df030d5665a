"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Exact checks carry zero tolerance (rational arithmetic); numerical checks
pin the stated tolerances.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

import ptcontour as pt
from ptcontour.catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX,
                               STANDARD_FIVE, UPPER_PT)
from ptcontour.opalg import Branch, ContourParams, OperatorExpr
from ptcontour.rational import GaussianRational as Q


def _report(criterion: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion}: {detail}"


EXPECTED_METRICS = {
    id(LOWER_PT): (Fraction(1, 48), Fraction(-2)),
    id(UPPER_PT): (Fraction(4, 3), Fraction(-2)),
    id(ADJACENT): (Fraction(-4, 3), Fraction(-2)),
    id(SQRT_IX): (Fraction(-4, 3), Fraction(0)),
    id(LOWER_PT_B5): (Fraction(1, 48), Fraction(-10)),
}


def test_criterion_1_exact_algebra_suite():
    ok = True
    details = []

    # toy chain: exp(-x^2/2) carries p^2 + 2ixp onto p^2 + x^2 - 1
    gen = OperatorExpr.monomial(2, 0, Fraction(-1, 2))
    toy = OperatorExpr({(0, 2): Q(1), (1, 1): Q(0, 2)})
    target = OperatorExpr({(0, 2): Q(1), (2, 0): Q(1), (0, 0): Q(-1)})
    if pt.bch_conjugate(gen, toy) != target:
        ok = False
        details.append("toy chain")

    for params in STANDARD_FIVE:
        h = pt.hermitize(params).h
        a2c = params.a2c
        expected = OperatorExpr({
            (0, 4): Q(4) / a2c ** 4,      # 4 / (a^8 c^4)
            (0, 1): Q(2) / a2c,           # 2 / (a^2 c)
            (2, 0): a2c ** 2,             # a^4 c^2
        })
        if h != expected:
            ok = False
            details.append(f"coefficients {params.label()}")
        spec = pt.metric_of(params)
        if (spec.kappa3, spec.kappa1) != EXPECTED_METRICS[id(params)]:
            ok = False
            details.append(f"metric {params.label()}")

    _report("1 exact-algebra", ok, "; ".join(details) or "zero tolerance")


def test_criterion_2_metric_pushforward_identities():
    count = 0
    for src in STANDARD_FIVE:
        for dst in STANDARD_FIVE:
            if src is dst:
                continue
            m = pt.map_params(src, dst)
            beta, gamma = m.beta, m.gamma
            src_spec = pt.metric_of(src)
            dst_spec = pt.metric_of(dst)
            assert src_spec.kappa3 / beta ** 3 == dst_spec.kappa3
            assert src_spec.kappa1 / beta - 2 * gamma == dst_spec.kappa1
            pt.push_metric(m, src_spec)     # raises on any inexactness
            count += 1
    _report("2 metric-pushforward", count == 20, f"{count} ordered pairs")


def test_criterion_3_oracle_and_contour_spectra(oracle_levels):
    # oracle_spectrum enforces extrapolated successive-grid drift < 1e-7
    # internally; reaching this point means the gate passed
    frozen = np.array(pt.REFERENCE_LEVELS[:5])
    ok = bool(np.abs(oracle_levels - frozen).max() < 1e-9)
    worst = 0.0
    for params in STANDARD_FIVE:
        grid = pt.default_momentum_grid(params)
        got = pt.eigensolve_hermitian(pt.matrixize(pt.hermitize(params).h,
                                                   grid), 5).real_parts()
        worst = max(worst, float((np.abs(got - frozen) / frozen).max()))
    ok = ok and worst < 1e-5
    _report("3 oracle-spectrum", ok,
            f"max relative deviation {worst:.2e} over 5 contours x 5 levels")


def test_criterion_4_amplitude_invariance():
    worst_dev = 0.0
    worst_ident = 0.0
    for src in (UPPER_PT, ADJACENT, SQRT_IX):
        rep = pt.verify_isometry(src, LOWER_PT, k=3)
        worst_dev = max(worst_dev, rep.max_deviation)
        worst_ident = max(worst_ident, rep.identity_deviation,
                          float(np.abs(rep.amplitudes_dst
                                       - np.eye(3)).max()))
    ok = worst_dev < 1e-6 and worst_ident < 1e-6
    _report("4 amplitude-invariance", ok,
            f"max |A1-A2| {worst_dev:.2e}, identity dev {worst_ident:.2e}")


def test_criterion_5_blowup_yet_finite(wide_adjacent_basis):
    # resolved witnesses only: the grid eigenvector is noise beyond |p| ~ 3.4
    top = wide_adjacent_basis.grid.hi
    log10_top = pt.eval_wkb("adjacent", top) / math.log(10.0)
    rise = pt.compare_to_numeric("adjacent")[1].numeric_full_slope
    mat = pt.amplitude(wide_adjacent_basis, wide_adjacent_basis,
                       pt.metric_of(ADJACENT))
    max_amp = float(np.abs(mat).max())
    ok = log10_top > 10.0 and rise > 0 and max_amp <= 1.0 + 1e-8
    _report("5 blowup-yet-finite", ok,
            f"profile log10 magnitude at p = {top:.0f} {log10_top:.2f}, "
            f"resolved log|psi~| slope {rise:.3f}, "
            f"max amplitude {max_amp:.12f}")


def test_criterion_6_wkb_asymptotics():
    ps = np.linspace(10.0, 100.0, 181)
    ok = bool(np.all(np.diff(pt.eval_wkb("adjacent", ps)) > 0))
    ok &= bool(np.all(np.diff(pt.eval_wkb("adjacent", -ps)) < 0))
    for tag in ("upper_pt", "sqrt_ix"):
        ok &= bool(np.all(np.diff(pt.eval_wkb(tag, ps)) < 0))
        ok &= bool(np.all(np.diff(pt.eval_wkb(tag, -ps)) < 0))
    from ptcontour.wkb import weighted_tail_integral
    i40 = weighted_tail_integral("adjacent", 40.0)
    i80 = weighted_tail_integral("adjacent", 80.0)
    rel = abs(i80 - i40) / i40
    ok = ok and rel < 1e-6
    _report("6 wkb-asymptotics", ok,
            f"tails monotone, weighted integral drift {rel:.2e}")


def test_criterion_7_wedge_taxonomy():
    ok = True
    for params in (LOWER_PT, UPPER_PT,
                   ContourParams(SQRT_IX.a, SQRT_IX.b, SQRT_IX.c, Branch.UPPER),
                   ContourParams(SQRT_IX.a, SQRT_IX.b, SQRT_IX.c, Branch.LOWER)):
        rep = pt.wedge_report(params)
        ok &= (not rep.adjacent) and rep.pt_symmetric
    rep = pt.wedge_report(ADJACENT)
    ok &= rep.adjacent and not rep.pt_symmetric
    _report("7 wedge-taxonomy", ok)


def test_criterion_8_hermite_demo():
    table = pt.hermite_demo(5).table
    worst = 0.0
    for n in range(6):
        for m in range(6):
            expected = pt.exact_hermite_norm(n) if n == m else 0.0
            scale = pt.exact_hermite_norm(max(n, m))
            worst = max(worst, abs(table[n, m] - expected) / scale)
    _report("8 hermite-demo", worst < 1e-8, f"max relative deviation {worst:.2e}")
