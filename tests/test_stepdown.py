"""Stepdown thresholds and rejection rule against exhaustive references."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepslope.schedules import kfwer_schedule
from stepslope.stepdown import (
    fdp_thresholds,
    kfwer_thresholds,
    stepdown_reject,
    two_sided_pvalues,
)

from oracles import normal_cdf, null_rejection_probability, stepdown_bruteforce


def test_kfwer_threshold_values():
    thr = kfwer_thresholds(8, 2, 0.1)
    assert thr[0] == pytest.approx(2 * 0.1 / 8)
    assert thr[1] == pytest.approx(2 * 0.1 / 8)
    assert thr[2] == pytest.approx(2 * 0.1 / (8 + 2 - 3))
    assert thr[-1] == pytest.approx(0.1)
    assert np.all(np.diff(thr) >= 0.0)


def test_fdp_threshold_values():
    thr = fdp_thresholds(10, 0.1, 0.25)
    # i=4: floor(1.0)+1 = 2 allowed, level 2*0.1/(10+2-4)
    assert thr[3] == pytest.approx(2 * 0.1 / 8)
    assert thr[0] == pytest.approx(1 * 0.1 / 10)
    assert np.all(np.diff(thr) >= 0.0)


def test_threshold_validation():
    with pytest.raises(ValueError, match="k"):
        kfwer_thresholds(5, 0, 0.1)
    with pytest.raises(ValueError, match="k"):
        kfwer_thresholds(5, 6, 0.1)
    with pytest.raises(ValueError, match="alpha"):
        kfwer_thresholds(5, 2, 1.0)
    with pytest.raises(ValueError, match="gamma"):
        fdp_thresholds(5, 0.1, 0.0)
    with pytest.raises(ValueError, match="m"):
        fdp_thresholds(0, 0.1, 0.1)


def test_thresholds_match_per_entry_loops_bitwise():
    for m in (1, 2, 7, 50, 1000):
        for alpha in (0.05, 0.1, 0.3):
            for k in sorted({1, min(3, m), m}):
                want = [k * alpha / (m if i <= k else m + k - i) for i in range(1, m + 1)]
                assert kfwer_thresholds(m, k, alpha).tolist() == want
            for gamma in (0.1, 0.25, 1.0 / 3.0):
                want = []
                for i in range(1, m + 1):
                    f = math.floor(gamma * i)
                    want.append((f + 1) * alpha / (m + f + 1 - i))
                assert fdp_thresholds(m, alpha, gamma).tolist() == want


def test_float32_inputs_give_float64_levels():
    a32, g32 = np.float32(0.1), np.float32(0.3)
    a, g = float(a32), float(g32)
    assert kfwer_thresholds(10, 2, a32).tobytes() == kfwer_thresholds(10, 2, a).tobytes()
    assert fdp_thresholds(10, a32, g32).tobytes() == fdp_thresholds(10, a, g).tobytes()
    # the schedules take their levels from here, so their bytes match too
    assert kfwer_schedule(10, 2, a32).values.tobytes() == (
        kfwer_schedule(10, 2, a).values.tobytes()
    )


def test_null_rejection_probability_matches_closed_forms():
    # the first k levels of kFWER are all t = k * alpha / m, so
    # P(R_SD >= 2) = P(at least two p-values <= t)
    m, k = 200, 2
    levels = kfwer_thresholds(m, k, 0.1).tolist()
    assert levels[0] == levels[1] == 2 * 0.1 / m
    t = Fraction(levels[0])
    closed = 1 - (1 - t) ** m - m * t * (1 - t) ** (m - 1)
    sd = null_rejection_probability(levels, m, k, "step-down")
    su = null_rejection_probability(levels, m, k, "step-up")
    assert sd == closed
    assert closed <= su and round(float(su), 5) == round(float(closed), 5) == 0.01746
    # Simes: the step-up count at the BH levels i * q / m is >= 1 with
    # probability q; step-down needs p_(1) <= q / m, and R_SU >= m is p_(m) <= q
    m, q = 40, Fraction(1, 10)
    bh = [q * i / m for i in range(1, m + 1)]
    assert null_rejection_probability(bh, m, 1, "step-up") == q
    assert null_rejection_probability(bh, m, 1, "step-down") == 1 - (1 - q / m) ** m
    assert null_rejection_probability(bh, m, m, "step-up") == q ** m


def test_reject_matches_bruteforce_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        m = int(rng.integers(1, 13))
        p = rng.uniform(size=m)
        if rng.uniform() < 0.5:
            thr = kfwer_thresholds(m, int(rng.integers(1, m + 1)), 0.2)
        else:
            thr = fdp_thresholds(m, 0.2, float(rng.uniform(0.05, 0.9)))
        assert stepdown_reject(p, thr) == stepdown_bruteforce(p, thr)


def test_reject_all_ones_is_empty():
    thr = kfwer_thresholds(6, 2, 0.1)
    assert stepdown_reject(np.ones(6), thr) == set()


def test_reject_all_zero_pvalues_rejects_everything():
    thr = fdp_thresholds(5, 0.1, 0.2)
    assert stepdown_reject(np.zeros(5), thr) == {0, 1, 2, 3, 4}


def test_reject_stops_at_first_violation():
    # second-smallest p fails its level, so only the smallest is rejected
    thr = np.array([0.1, 0.2, 0.3])
    p = np.array([0.25, 0.05, 0.9])
    assert stepdown_reject(p, thr) == {1}


def test_reject_is_threshold_monotone():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = 8
        p = rng.uniform(size=m)
        thr_lo = fdp_thresholds(m, 0.05, 0.1)
        thr_hi = fdp_thresholds(m, 0.2, 0.1)
        assert stepdown_reject(p, thr_lo) <= stepdown_reject(p, thr_hi)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_reject_equals_bruteforce_hypothesis(ps):
    p = np.array(ps)
    thr = kfwer_thresholds(p.size, 1, 0.3)
    assert stepdown_reject(p, thr) == stepdown_bruteforce(p, thr)


def test_reject_validation():
    with pytest.raises(ValueError, match="length"):
        stepdown_reject(np.array([0.5, 0.5]), np.array([0.1]))
    with pytest.raises(ValueError, match="lie in"):
        stepdown_reject(np.array([1.5]), np.array([0.1]))
    with pytest.raises(ValueError, match="non-empty"):
        stepdown_reject(np.array([]), np.array([]))


def test_two_sided_pvalues_match_cdf_oracle():
    z = np.array([-2.5, -0.3, 0.0, 1.0, 3.2])
    got = two_sided_pvalues(z)
    want = np.array([2.0 * (1.0 - normal_cdf(abs(v))) for v in z])
    assert np.allclose(got, want, atol=1e-14)
    assert got[2] == 1.0


def test_two_sided_pvalues_scale():
    z = np.array([2.0, -4.0])
    assert np.allclose(
        two_sided_pvalues(z, scale=2.0), two_sided_pvalues(z / 2.0), atol=1e-15
    )
    with pytest.raises(ValueError, match="scale"):
        two_sided_pvalues(z, scale=0.0)


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_two_sided_pvalues_equal_per_element_erfc_bitwise(scale):
    rng = np.random.default_rng(29)
    z = np.concatenate([rng.standard_normal(500) * 4.0, [0.0, -0.0, 5e-324, -1e-300,
                                                          1e-17, 38.0, -1e3, 1e300]])
    want = [math.erfc(abs(v) / (scale * math.sqrt(2.0))) for v in z.tolist()]
    got = two_sided_pvalues(z, scale)
    assert got.dtype == np.float64 and got.shape == z.shape
    assert got.tobytes() == np.array(want).tobytes()
    # the shape of the statistics is kept
    square = two_sided_pvalues(z[:16].reshape(4, 4), scale)
    assert square.tobytes() == np.array(want[:16]).tobytes() and square.shape == (4, 4)


def test_two_sided_pvalues_refuse_an_infinite_scale():
    # every p-value was 1
    with pytest.raises(ValueError, match="scale must be positive and finite, got inf"):
        two_sided_pvalues(np.array([2.0, -4.0]), scale=math.inf)


@pytest.mark.parametrize("m", [math.inf, math.nan], ids=repr)
def test_thresholds_refuse_a_non_finite_count_with_a_value_error(m):
    # kfwer_thresholds(m=inf) raised an OverflowError
    with pytest.raises(ValueError, match="m must be a positive integer"):
        kfwer_thresholds(m, 1, 0.1)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        fdp_thresholds(m, 0.1, 0.1)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.sampled_from([20, 200, 1000]),
    t_frac=st.floats(min_value=0.0, max_value=0.3),
    k=st.integers(min_value=1, max_value=8),
    alpha=st.sampled_from([0.05, 0.1, 0.2]),
    gamma=st.sampled_from([0.1, 0.25]),
    signal=st.sampled_from(["weak", "moderate", "strong"]),
)
@settings(max_examples=40, deadline=None)
def test_slope_support_contains_the_stepdown_rejections(seed, m, t_frac, k, alpha, gamma,
                                                        signal):
    # on the identity design the SLOPE support is the R largest |y| with
    # R_SD <= R (Bogdan et al., AoAS 2015), so each replication's k-slope
    # and f-slope fits keep every rejection of the stepdown at their levels
    from stepslope.simlab import ExperimentConfig, _draw, _fit, resolve_schedule

    for slope, baseline in (("k-slope", "sd-kfwer"), ("f-slope", "sd-fdp")):
        cells = [ExperimentConfig(design="orthogonal-identity", method=method, n=m, m=m,
                                  t=int(t_frac * m), k=k, alpha=alpha, gamma=gamma,
                                  signal=signal, replications=3, seed=seed)
                 for method in (slope, baseline)]
        (mode, schedule, _), (sd_mode, levels, _) = map(resolve_schedule, cells)
        for rep in range(3):
            data = _draw(cells[0], rep)
            fit = _fit(cells[0], rep, data, mode, schedule)
            rejected = _fit(cells[1], rep, data, sd_mode, levels)
            assert fit.converged
            assert rejected <= fit.support, (slope, rep, sorted(rejected - fit.support))
