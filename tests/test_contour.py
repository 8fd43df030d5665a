import cmath
import math
import random

import numpy as np
import pytest

from ptcontour.catalog import ADJACENT, LOWER_PT, SQRT_IX, STANDARD_FIVE, UPPER_PT
from ptcontour.contour import (direct_diagonalization_allowed, endpoint_angles,
                               is_pt_symmetric, polyline, sample, wedge_report)
from ptcontour.errors import BranchUndefined, OnStokesLine
from ptcontour.opalg import Branch, ContourParams
from ptcontour.rational import GaussianRational as Q


def with_branch(params, branch):
    return ContourParams(params.a, params.b, params.c, branch)


SQRT_IX_UPPER = with_branch(SQRT_IX, Branch.UPPER)
SQRT_IX_LOWER = with_branch(SQRT_IX, Branch.LOWER)


# --- sampling -----------------------------------------------------------------

def test_sample_reference_contour_at_origin():
    z = sample(LOWER_PT, [0.0])[0]
    assert abs(z - (-2j)) < 1e-14


def test_sample_adjacent_contour_at_origin():
    z = sample(ADJACENT, [0.0])[0]
    assert abs(z - 1.0) < 1e-14


def test_sample_sqrt_ix_upper_root():
    z = sample(SQRT_IX_UPPER, [1.0])[0]
    assert abs(z - cmath.exp(1j * math.pi / 4)) < 1e-14


def test_sample_square_identity():
    # z^2 = a^2 (b + i c x) within 1e-12 relative, any branch
    rng = random.Random(8)
    for params in (LOWER_PT, UPPER_PT, ADJACENT, SQRT_IX_UPPER, SQRT_IX_LOWER):
        xs = [rng.uniform(-40, 40) for _ in range(50)]
        a2 = complex(params.a) ** 2
        for x, z in zip(xs, sample(params, xs)):
            target = a2 * (complex(params.b) + 1j * complex(params.c) * x)
            scale = max(abs(target), 1e-30)
            assert abs(z ** 2 - target) / scale < 1e-12


def test_sample_branch_continuity_through_real_axis():
    # upper branch of sqrt(1+ix) hits a real root at x = 0; continuity picks
    # the sign that continues the previous sample
    xs = np.linspace(-1.0, 1.0, 21)
    zs = sample(with_branch(ADJACENT, Branch.UPPER), xs)
    mid = zs[10]
    assert abs(mid - (-1.0)) < 1e-12      # continues the x < 0 arc


def test_sample_first_point_ambiguous_raises():
    # one sample, with a real root: no sample decides the branch
    with pytest.raises(BranchUndefined, match=r"^root of \(1\+0j\) is real "
                       r"and no sample decides the branch$"):
        sample(with_branch(ADJACENT, Branch.UPPER), [0.0])


def test_sample_leading_real_root_continues_backwards():
    # b + icx = 1 at x = -50 only; that root continues the samples after it
    params = ContourParams(Q(1), Q(1, 50), Q(1), Branch.UPPER)
    xs = np.linspace(-50.0, 50.0, 1001)
    zs = sample(params, xs)
    assert zs[0] == 1.0
    assert np.array_equal(zs[1:], sample(params, xs[1:]))


# --- endpoint angles ------------------------------------------------------------

def test_endpoint_angles_reference_contour():
    tm, tp = endpoint_angles(LOWER_PT)
    assert abs(tm - (-3 * math.pi / 4)) < 1e-9
    assert abs(tp - (-math.pi / 4)) < 1e-9


def test_endpoint_angles_upper_contour():
    tm, tp = endpoint_angles(UPPER_PT)
    assert abs(tm - math.pi / 4) < 1e-9
    assert abs(tp - 3 * math.pi / 4) < 1e-9


def test_endpoint_angles_adjacent_contour():
    tm, tp = endpoint_angles(ADJACENT)
    assert abs(tm - (-math.pi / 4)) < 1e-9
    assert abs(tp - math.pi / 4) < 1e-9


def test_endpoint_angles_random_parameters_match_numeric():
    # the closed form is verified inside endpoint_angles against the sampled
    # direction at |x| = 1e8; twenty random parameter sets must not trip it
    rng = random.Random(314)
    produced = 0
    while produced < 20:
        re_a, im_a = rng.randint(-5, 5), rng.randint(-5, 5)
        if re_a == 0 and im_a == 0:
            continue
        params = ContourParams(Q(re_a, im_a), Q(rng.randint(-3, 3)),
                               Q(rng.choice([-3, -2, -1, 1, 2, 3])))
        tm, tp = endpoint_angles(params)
        assert -math.pi < tm <= math.pi and -math.pi < tp <= math.pi
        produced += 1


# --- wedge classification ---------------------------------------------------------

def test_wedge_report_reference_contour():
    rep = wedge_report(LOWER_PT)
    assert not rep.adjacent
    assert rep.pt_symmetric
    assert (rep.decay_family_plus, rep.decay_family_minus) == ("B", "B")
    assert (rep.wedge_plus, rep.wedge_minus) == (-1, -3)


def test_wedge_report_adjacent_contour():
    rep = wedge_report(ADJACENT)
    assert rep.adjacent
    assert not rep.pt_symmetric
    assert rep.decay_family_plus != rep.decay_family_minus


def test_wedge_report_upper_contour():
    rep = wedge_report(UPPER_PT)
    assert not rep.adjacent
    assert rep.pt_symmetric


def test_wedge_report_sqrt_ix_both_pairings():
    for params in (SQRT_IX_UPPER, SQRT_IX_LOWER):
        rep = wedge_report(params)
        assert not rep.adjacent
        assert rep.pt_symmetric
        assert rep.decay_family_plus == rep.decay_family_minus


def test_wedge_adjacency_invariant_under_relabeling():
    # reparametrizing x -> -x flips the sign of c and swaps the endpoints
    for params in STANDARD_FIVE:
        rep = wedge_report(params)
        flipped = wedge_report(ContourParams(params.a, params.b, -1 * params.c))
        assert rep.adjacent == flipped.adjacent
        assert {rep.wedge_plus, rep.wedge_minus} == \
               {flipped.wedge_plus, flipped.wedge_minus}


def test_wedge_indices_consistent_with_angles():
    for params in (LOWER_PT, UPPER_PT, ADJACENT, SQRT_IX_UPPER, SQRT_IX_LOWER):
        rep = wedge_report(params)
        for theta, wedge in ((rep.theta_plus, rep.wedge_plus),
                             (rep.theta_minus, rep.wedge_minus)):
            assert wedge == math.floor(theta / (math.pi / 3))


def test_on_stokes_line_detected():
    with pytest.raises(OnStokesLine):
        wedge_report(ContourParams(Q(1, 1), Q(1), Q(1)))   # theta_minus = 0


def test_pt_symmetry_grid_predicate():
    assert is_pt_symmetric(LOWER_PT)
    assert is_pt_symmetric(UPPER_PT)
    assert not is_pt_symmetric(ADJACENT)
    assert is_pt_symmetric(SQRT_IX_UPPER)
    assert is_pt_symmetric(SQRT_IX_LOWER)
    # principal-branch algebra: purely imaginary a gives a symmetric contour,
    # purely real a does not (for b > 0)
    assert is_pt_symmetric(ContourParams(Q(0, 3), Q(2), Q(1)))
    assert not is_pt_symmetric(ContourParams(Q(3), Q(2), Q(1)))


def test_direct_diagonalization_gate():
    assert direct_diagonalization_allowed(wedge_report(LOWER_PT))
    assert direct_diagonalization_allowed(wedge_report(UPPER_PT))
    assert not direct_diagonalization_allowed(wedge_report(ADJACENT))


def test_polyline_shapes():
    xs, re_z, im_z = polyline(LOWER_PT, extent=4.0, n=33)
    assert len(xs) == len(re_z) == len(im_z) == 33
    assert im_z.max() < 0          # contour stays in the lower half-plane
