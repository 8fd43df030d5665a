"""Exact identities and spectra over randomly drawn admissible contours.

Every admissible contour has a = u + vi, c = t * conj(a)^2 and b = s * c
with t a nonzero rational, so a^2 c = t |a|^4 and b/c = s are real.  The
identities that the catalog tests check on five contours must hold, with
zero tolerance, on each of these draws too.  The banded spectra of the
draws must match a dense reference level for level, and the isometry check
must pass or raise a typed error.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

import ptcontour.metric as metric
from ptcontour.catalog import LOWER_PT, STANDARD_FIVE
from ptcontour.errors import PtContourError
from ptcontour.isomap import map_params, push_metric, verify_isometry
from ptcontour.metric import default_momentum_grid, eigenbasis, metric_of
from ptcontour.opalg import (ANCHOR, ContourParams, canonical_swap,
                             hermitian_form, hermitize, is_hermitian)
from ptcontour.rational import GaussianRational as Q
from ptcontour.spectral import Grid, eigensolve_hermitian, matrixize
from test_spectral import assert_banded_levels, band_to_dense, banded_levels

_HALVES = [Fraction(k, 2) for k in range(-4, 5)]     # -2, -3/2, ..., 2


def random_contours(count):
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        u, v, s = rng.choice(_HALVES), rng.choice(_HALVES), rng.choice(_HALVES)
        if u == 0 and v == 0:
            continue
        t = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                     rng.choice([1, 2, 3, 5]))
        a = Q(u, v)
        c = Q(t) * a.conjugate() * a.conjugate()
        out.append(ContourParams(a, Q(s) * c, c))
    return out


def test_exact_identities_on_random_contours():
    draws = random_contours(100)
    for params in draws:
        h = hermitize(params).h
        assert h == hermitian_form(params)
        assert is_hermitian(h)
        assert canonical_swap(h, params) == ANCHOR
        ident = map_params(params, params)
        assert (ident.beta, ident.gamma) == (Q(1), Q(0))

    pairs = list(zip(draws, draws[1:])) + [(LOWER_PT, p) for p in draws]
    for src, dst in pairs:
        pushed = push_metric(map_params(src, dst), metric_of(src))
        direct = metric_of(dst)
        assert (pushed.kappa3, pushed.kappa1) == (direct.kappa3, direct.kappa1)

    for p0, p1, p2, p3 in zip(draws, draws[1:], draws[2:], draws[3:]):
        m1, m2, m3 = map_params(p0, p1), map_params(p1, p2), map_params(p2, p3)
        left = m1.compose(m2).compose(m3)
        right = m1.compose(m2.compose(m3))
        direct = map_params(p0, p3)
        assert (left.beta, left.gamma) == (right.beta, right.gamma) \
            == (direct.beta, direct.gamma)


def test_closed_form_band_has_the_bits_of_the_commutator_series(
        monkeypatch):
    # the numeric paths build their band from hermitian_form; its terms come
    # in the order hermitize's series yields them, and matrixize adds terms
    # in order, so the band keeps its bits
    draws = [*STANDARD_FIVE, *random_contours(100)]
    for params in draws:
        h = hermitize(params).h
        form = hermitian_form(params)
        assert list(form.terms) == list(h.terms)
        grid = default_momentum_grid(params, n=801)
        assert np.array_equal(matrixize(form, grid), matrixize(h, grid))

    for params in draws[:13]:
        grid = default_momentum_grid(params, n=401)
        basis = eigenbasis(params, 5, grid)
        with monkeypatch.context() as m:
            m.setattr(metric, "hermitian_form", lambda p: hermitize(p).h)
            m.setattr(metric, "dyson_coefficients",
                      lambda p: tuple(hermitize(p))[1:])
            ref = eigenbasis(params, 5, grid)
        assert np.array_equal(basis.factor, ref.factor)
        assert basis.exponent == ref.exponent


@pytest.mark.parametrize("n", [201, 401])
def test_banded_levels_match_dense_reference(n):
    # the dense spectrum is the whole spectrum: no level can be skipped
    import scipy.linalg as sla
    for params in random_contours(8):
        grid = default_momentum_grid(params, n=n)
        ab = matrixize(hermitize(params).h, grid)
        assert not ab.imag.any()      # so the real dense solver applies
        dense = sla.eigvalsh(band_to_dense(ab.real))
        for k in (5, 12):
            levels = eigensolve_hermitian(ab, k, grid=grid).real_parts()
            assert np.abs(levels - dense[:k]).max() \
                < 1e-11 * np.abs(dense[:k]).max()


def test_seed_ladder_matches_full_band_at_workload_sizes():
    # at these sizes the 16- and 8-fold rungs seed most solves; the full
    # band's own lowest values are the reference, so no level may be skipped
    cases = [(hermitize(p).h, lambda n, p=p: default_momentum_grid(p, n=n))
             for p in random_contours(8)]
    cases.append((ANCHOR, lambda n: Grid("position", -6.0, 6.0, n)))
    methods = set()
    for op, grid_of in cases:
        for n in (801, 1601):
            ab = matrixize(op, grid_of(n))
            ref = banded_levels(ab, 12)
            for k in (1, 5, 12):
                res = eigensolve_hermitian(ab, k)
                assert_banded_levels(ab, res, k, ref[:k])
                methods.add(res.method)
    assert {"eig_banded/16+rqi", "eig_banded/8+rqi"} <= methods


def test_isometry_on_random_pairs_passes_or_raises_typed():
    draws = random_contours(8)
    for src, dst in zip(draws[:4], draws[4:]):
        try:
            report = verify_isometry(src, dst, k=3, n=401)
        except PtContourError:
            continue
        assert report.passed, (src, dst, report.max_deviation)
