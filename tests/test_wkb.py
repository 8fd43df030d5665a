import numpy as np
import pytest

from ptcontour.catalog import ADJACENT, SQRT_IX, UPPER_PT
from ptcontour.wkb import (TAG_PARAMS, TAGS, compare_to_numeric, eval_wkb,
                           in_domain, metric_exponent, metric_weighted_wkb,
                           weighted_tail_integral)


# --- pointwise behavior of the printed profiles --------------------------------

def test_adjacent_grows_at_positive_infinity():
    lo, hi = eval_wkb("adjacent", 10.0), eval_wkb("adjacent", 20.0)
    assert hi > lo > 0
    # the cubic terms cancel; what remains is the linear e^p rate up to the
    # slowly varying algebraic prefactor (about -0.35 over this span)
    assert 9.0 < hi - lo < 10.5


def test_adjacent_decays_at_negative_infinity():
    assert eval_wkb("adjacent", -20.0) < -1e3


def test_upper_pt_decays_fast_at_positive_end():
    assert eval_wkb("upper_pt", 20.0) < -1e3


def test_upper_pt_decays_slowly_at_negative_end():
    # the cubic terms cancel at the negative end; decay is e^{-|p|},
    # so log-magnitude sits near -|p|, nowhere near -1e3
    val = eval_wkb("upper_pt", -20.0)
    assert -30.0 < val < -15.0


def test_sqrt_ix_decays_both_ends():
    assert eval_wkb("sqrt_ix", -20.0) < -1e3
    left, right = eval_wkb("sqrt_ix", 10.0), eval_wkb("sqrt_ix", 20.0)
    assert right < left < 0


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        eval_wkb("nope", 1.0)


# --- monotone tails and overflow safety -------------------------------------------

def test_monotone_tails():
    ps = np.linspace(10.0, 100.0, 181)
    # adjacent: grows on the positive tail, the other five tails decay
    assert np.all(np.diff(eval_wkb("adjacent", ps)) > 0)
    assert np.all(np.diff(eval_wkb("adjacent", -ps)) < 0)
    assert np.all(np.diff(eval_wkb("upper_pt", ps)) < 0)
    assert np.all(np.diff(eval_wkb("upper_pt", -ps)) < 0)
    assert np.all(np.diff(eval_wkb("sqrt_ix", ps)) < 0)
    assert np.all(np.diff(eval_wkb("sqrt_ix", -ps)) < 0)


def test_no_overflow_up_to_200():
    ps = np.linspace(-200.0, 200.0, 4001)
    for tag in TAGS:
        assert np.isfinite(eval_wkb(tag, ps)).all()
        assert np.isfinite(metric_weighted_wkb(tag, ps)).all()


# --- validity masks -----------------------------------------------------------------

def test_masks():
    ps = np.array([-2.0, -0.5, 0.0, 0.5, 0.7937, 0.8, 2.0])
    assert list(in_domain("adjacent", ps)) == [False, False, True, True,
                                               True, True, True]
    assert list(in_domain("sqrt_ix", ps)) == list(in_domain("adjacent", ps))
    assert list(in_domain("upper_pt", ps)) == [False, False, False, False,
                                               False, True, True]


def test_profile_bundles_mask():
    # the wkb subcommand's rows: finite log-magnitudes, flagged where a
    # printed radicand is negative
    ps = np.linspace(-5.0, 5.0, 101)
    assert in_domain("upper_pt", ps).sum() < len(ps)
    assert np.isfinite(eval_wkb("upper_pt", ps)).all()


# --- metric weighting ----------------------------------------------------------------

def test_metric_exponents_match_contour_metrics():
    assert metric_exponent("adjacent") == (-4.0 / 3.0, -2.0)
    assert metric_exponent("upper_pt") == (4.0 / 3.0, -2.0)
    assert metric_exponent("sqrt_ix") == (-4.0 / 3.0, 0.0)


def test_weighted_adjacent_decays_both_ways():
    # cubic growth cancels against the metric; what is left decays
    assert metric_weighted_wkb("adjacent", 20.0) < -1e4
    vals = metric_weighted_wkb("adjacent", np.linspace(5.0, 40.0, 71))
    assert np.all(np.diff(vals) < 0)
    assert np.isfinite(metric_weighted_wkb("adjacent", 0.8))


def test_weighted_sqrt_ix_decays_both_ways():
    ps = np.linspace(2.0, 50.0, 97)
    assert np.all(np.diff(metric_weighted_wkb("sqrt_ix", ps)) < 0)
    assert np.all(np.diff(metric_weighted_wkb("sqrt_ix", -ps)) < 0)


def test_weighted_adjacent_integrable_under_domain_doubling():
    i40 = weighted_tail_integral("adjacent", 40.0)
    i80 = weighted_tail_integral("adjacent", 80.0)
    assert i40 > 0
    assert abs(i80 - i40) / i40 < 1e-6


# --- bridge to the numerics -------------------------------------------------------------

@pytest.mark.parametrize("tag,params", [("upper_pt", UPPER_PT),
                                        ("adjacent", ADJACENT),
                                        ("sqrt_ix", SQRT_IX)])
def test_factor_decay_slopes_match_wkb(tag, params):
    assert TAG_PARAMS[tag] == params
    for side in compare_to_numeric(tag):
        assert side.slopes_within_band, (tag, side)
        # decaying factor on both sides: both slope estimates share a sign
        assert side.numeric_factor_slope * side.wkb_factor_slope > 0


def test_adjacent_positive_end_full_slopes_positive():
    sides = compare_to_numeric("adjacent")
    plus = next(s for s in sides if s.side == +1)
    assert plus.numeric_full_slope > 0
    assert plus.wkb_full_slope > 0
    assert plus.full_signs_agree


def test_decaying_tags_full_slopes_negative():
    for tag in ("upper_pt", "sqrt_ix"):
        plus = next(s for s in compare_to_numeric(tag) if s.side == +1)
        assert plus.numeric_full_slope < 0
        assert plus.wkb_full_slope < 0
