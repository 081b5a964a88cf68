"""Schedule generators: spot values, shape laws, corrections, serialization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepslope.errors import NumericalError
from stepslope.schedules import (
    LambdaSchedule,
    bh_schedule,
    build_schedule,
    fdp_schedule,
    gaussian_corrected_schedule,
    gf_schedule,
    gk_schedule,
    group_corrected_schedule,
    group_max_schedule,
    kfwer_schedule,
    monte_carlo_corrected_schedule,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
    schedule_values_from_csv,
)
from stepslope.solver import DesignMatrix, _DiagonalPlusConstant

from oracles import chi_quantile_bisect, monte_carlo_reference, normal_quantile_bisect


def test_bh_spot_values():
    # oracle: normal_quantile_bisect(1 - i*q/(2m)) at tol 1e-13
    sched = bh_schedule(1000, 0.1)
    assert sched.values[0] == pytest.approx(3.890591886412871, abs=1e-9)
    assert sched.values[9] == pytest.approx(
        normal_quantile_bisect(1.0 - 10 * 0.1 / 2000.0), abs=1e-10
    )
    one = bh_schedule(1, 0.1, sigma=1.0)
    assert one.values[0] == pytest.approx(1.6448536269514946, abs=1e-9)


def test_kfwer_spot_values_and_flat_head():
    sched = kfwer_schedule(1000, 5, 0.1)
    assert sched.values[0] == pytest.approx(3.480756404346188, abs=1e-9)
    # the first k levels share the same tail mass
    assert np.all(sched.values[:5] == sched.values[0])
    assert sched.values[5] < sched.values[4]
    # beyond k the tail is k*alpha/(2(m+k-i))
    i = 300
    want = normal_quantile_bisect(1.0 - 5 * 0.1 / (2 * (1000 + 5 - i)))
    assert sched.values[i - 1] == pytest.approx(want, abs=1e-10)


def test_fdp_spot_values():
    sched = fdp_schedule(1000, 0.1, 0.1)
    # i=10: floor(0.1*10)+1 = 2 rejections allowed, denominator 2*(1000+2-10)
    assert sched.values[9] == pytest.approx(3.716986887051128, abs=1e-9)
    i = 1
    want = normal_quantile_bisect(1.0 - 1 * 0.1 / (2 * (1000 + 1 - 1)))
    assert sched.values[0] == pytest.approx(want, abs=1e-10)


def test_sigma_scales_all_feature_schedules():
    for make in (
        lambda s: bh_schedule(50, 0.1, sigma=s),
        lambda s: kfwer_schedule(50, 3, 0.1, sigma=s),
        lambda s: fdp_schedule(50, 0.1, 0.2, sigma=s),
    ):
        base = make(1.0).values
        assert np.allclose(make(2.0).values, 2.0 * base, rtol=1e-15)
        assert np.allclose(make(0.5).values, 0.5 * base, rtol=1e-15)


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=80, deadline=None)
def test_bh_nonincreasing_positive(m, q):
    vals = bh_schedule(m, q).values
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals > 0.0)


@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_kfwer_nonincreasing(m, k, alpha):
    if k > m:
        k = m
    vals = kfwer_schedule(m, k, alpha).values
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals > 0.0)


@given(
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.01, max_value=0.9),
    st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_fdp_nonincreasing(m, alpha, gamma):
    vals = fdp_schedule(m, alpha, gamma).values
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals > 0.0)


def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="alpha"):
        kfwer_schedule(100, 5, 1.5)
    with pytest.raises(ValueError, match="k must not exceed m"):
        kfwer_schedule(5, 6, 0.1)
    with pytest.raises(ValueError, match="m"):
        bh_schedule(0, 0.1)
    with pytest.raises(ValueError, match="q"):
        bh_schedule(10, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        bh_schedule(10, 0.1, sigma=-1.0)
    with pytest.raises(ValueError, match="non-increasing"):
        LambdaSchedule(np.array([1.0, 2.0]), "BH")
    with pytest.raises(ValueError, match="non-negative"):
        LambdaSchedule(np.array([1.0, -0.5]), "BH")
    with pytest.raises(ValueError, match="unknown schedule rule"):
        LambdaSchedule(np.array([1.0]), "bogus")


def test_schedule_values_read_only():
    sched = bh_schedule(5, 0.1)
    with pytest.raises(ValueError):
        sched.values[0] = 0.0


def test_gaussian_correction_matches_direct_recursion():
    base = fdp_schedule(40, 0.1, 0.1)
    n = 200
    got = gaussian_corrected_schedule(base, n).values
    # independent re-run of the accumulation
    ref = [base.values[0]]
    for i in range(2, 41):
        cand = base.values[i - 1] * math.sqrt(
            1.0 + sum(x * x for x in ref) / (n - i)
        )
        if cand > ref[-1]:
            ref.extend([ref[-1]] * (41 - i))
            break
        ref.append(cand)
    assert np.allclose(got, np.array(ref), rtol=1e-15)
    assert got.size == 40
    assert np.all(np.diff(got) <= 0.0)


def test_gaussian_correction_inflates_over_base():
    base = fdp_schedule(40, 0.1, 0.1)
    got = gaussian_corrected_schedule(base, 500).values
    # until truncation every corrected entry is >= its base entry
    assert np.all(got >= base.values - 1e-15)


def test_gaussian_correction_on_flat_head_truncates_to_constant():
    # the kFWER base starts flat, so entry 2 already violates the
    # monotone requirement and the whole schedule collapses to level 1
    base = kfwer_schedule(100, 5, 0.1)
    got = gaussian_corrected_schedule(base, 1000).values
    assert np.all(got == base.values[0])


def test_gaussian_correction_sample_size_error():
    # a geometrically decaying base keeps the candidates monotone long
    # enough to reach the degrees-of-freedom wall at i = n - 1
    base = LambdaSchedule(3.0 * 0.5 ** np.arange(8), "FDP", {})
    with pytest.raises(ValueError, match="sample size too small"):
        gaussian_corrected_schedule(base, 6)


def test_gaussian_correction_rejects_foreign_base():
    with pytest.raises(ValueError, match="kFWER or FDP base"):
        gaussian_corrected_schedule(bh_schedule(10, 0.1), 100)


def test_monte_carlo_on_orthogonal_design_equals_base():
    # orthonormal disjoint columns make the interference term exactly zero
    base = fdp_schedule(8, 0.1, 0.1)
    got = monte_carlo_corrected_schedule(base, np.eye(20)[:, :8], replicates=5, seed=3)
    assert np.array_equal(got.values, base.values)


def test_monte_carlo_deterministic_and_inflating():
    # n large enough that the inflation stays below the base decay,
    # so the schedule does not just truncate to a constant
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 12)) / math.sqrt(400)
    base = fdp_schedule(10, 0.1, 0.1)
    a = monte_carlo_corrected_schedule(base, X, replicates=20, seed=7)
    b = monte_carlo_corrected_schedule(base, X, replicates=20, seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) <= 0.0)
    assert a.values[1] >= base.values[1]
    c = monte_carlo_corrected_schedule(base, X, replicates=20, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_monte_carlo_takes_a_validated_design_matrix():
    # a DesignMatrix was checked when built, so its entries are read as they
    # are; a raw array keeps every check
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(300, 12))
    X = Z / np.sqrt((Z * Z).sum(axis=0))
    base = kfwer_schedule(10, 2, 0.1)
    got = monte_carlo_corrected_schedule(base, DesignMatrix(X), replicates=15, seed=4)
    want = monte_carlo_corrected_schedule(base, X, replicates=15, seed=4)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.rule == want.rule and got.params == want.params
    X[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        monte_carlo_corrected_schedule(base, X, replicates=15, seed=4)
    with pytest.raises(ValueError, match="2-d"):
        monte_carlo_corrected_schedule(base, np.ones(12), replicates=15, seed=4)


@pytest.mark.parametrize("design, error, match", [
    (None, ValueError, "2-d array"),
    (_DiagonalPlusConstant(10, 1.0, 0.0), TypeError, "_DiagonalPlusConstant"),
], ids=["identity", "operator"])
def test_monte_carlo_refuses_a_matrix_free_design(design, error, match):
    with pytest.raises(error, match=match):
        monte_carlo_corrected_schedule(kfwer_schedule(10, 2, 0.1), design, replicates=5)


def test_monte_carlo_errors():
    base = fdp_schedule(10, 0.1, 0.1)
    with pytest.raises(ValueError, match="exceeds design column count"):
        monte_carlo_corrected_schedule(base, np.eye(5), replicates=5, seed=0)
    with pytest.raises(ValueError, match="replicates"):
        monte_carlo_corrected_schedule(base, np.eye(10), replicates=0, seed=0)
    with pytest.raises(NumericalError, match="singular"):
        monte_carlo_corrected_schedule(
            fdp_schedule(3, 0.1, 0.1), np.zeros((4, 3)), replicates=2, seed=0
        )


def _mc_bases(m):
    # kFWER with k = 1, 2, 5 and two FDP settings, one decaying fast
    return [kfwer_schedule(m, 1, 0.1), kfwer_schedule(m, 2, 0.1), kfwer_schedule(m, 5, 0.1),
            fdp_schedule(m, 0.1, 0.1), fdp_schedule(m, 0.2, 0.5)]


def _unit_gaussian(n, m, seed):
    Z = np.random.default_rng(seed).normal(size=(n, m))
    return Z / np.sqrt((Z * Z).sum(axis=0))


def _duplicated_column(n, m, seed):
    X = _unit_gaussian(n, m, seed)
    X[:, 7] = X[:, 2]
    return X


@pytest.mark.parametrize(
    "design,replicates,duplicated",
    [
        (_unit_gaussian(400, 200, 21), 100, False),
        (_unit_gaussian(60, 12, 22), 20, False),
        (np.eye(20)[:, :8], 20, False),
        (_duplicated_column(60, 12, 5), 20, True),
    ],
    ids=["gaussian-400x200", "gaussian-60x12", "identity-20x8", "duplicated-60x12"],
)
def test_monte_carlo_matches_every_draw_oracle(design, replicates, duplicated, monkeypatch):
    # stopping an entry's draws once its rise is proven keeps every byte;
    # the duplicated column makes some sampled Gram matrices singular, so
    # the redraw path is taken
    singular = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    for base in _mc_bases(design.shape[1]):
        for seed in (0, 1, 2, 3):
            got = monte_carlo_corrected_schedule(base, design, replicates, seed)
            want = monte_carlo_reference(base.values, design, replicates, seed)
            assert got.values.tobytes() == want.tobytes(), (base.rule, base.params, seed)
    assert bool(singular) == duplicated


def test_monte_carlo_opens_a_stream_only_for_the_draws_it_takes(monkeypatch):
    # a k = 2 base rises at entry 2 on any Gaussian design, proven at the
    # first draw; on orthonormal columns nothing rises, so every draw of
    # every entry is taken
    gaussian = _unit_gaussian(400, 200, 21)
    opened = []
    seed_sequence = np.random.SeedSequence

    def counting(entropy, *args, **kwargs):
        opened.append(tuple(entropy))
        return seed_sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    base = kfwer_schedule(200, 2, 0.1)
    got = monte_carlo_corrected_schedule(base, gaussian, replicates=100, seed=9)
    assert opened == [(9, 2, 0)]
    assert np.all(got.values == base.values[0])
    opened.clear()
    base = kfwer_schedule(8, 2, 0.1)
    got = monte_carlo_corrected_schedule(base, np.eye(20)[:, :8], replicates=7, seed=9)
    assert opened == [(9, i, r) for i in range(2, 9) for r in range(7)]
    assert got.values.tobytes() == base.values.tobytes()


def test_group_max_matches_quantile_oracle():
    ranks = (2, 5)
    weights = (math.sqrt(2.0), math.sqrt(5.0))
    sched = group_max_schedule(0.1, ranks, weights)
    for i in (1, 2):
        want = max(
            chi_quantile_bisect(1.0 - 0.1 * i / 2.0, l) / w
            for l, w in zip(ranks, weights)
        )
        assert sched.values[i - 1] == pytest.approx(want, abs=1e-9)


def test_gk_spot_value():
    # 1000 groups of rank 5, weight sqrt(5): head tail mass k*alpha/(2m)
    ranks = (5,) * 1000
    weights = (math.sqrt(5.0),) * 1000
    sched = gk_schedule(5, 0.1, ranks, weights)
    assert sched.values[0] == pytest.approx(
        4.866311053349364 / math.sqrt(5.0), abs=1e-9
    )
    assert sched.values[0] == pytest.approx(2.1762804629895562, abs=1e-9)
    assert np.all(sched.values[:5] == sched.values[0])


def test_gf_matches_quantile_oracle():
    ranks = (3, 4)
    weights = (1.0, 2.0)
    m = 2
    alpha, gamma = 0.1, 0.25
    sched = gf_schedule(alpha, gamma, ranks, weights)
    for i in (1, 2):
        allowed = math.floor(gamma * i) + 1
        tail = allowed * alpha / (2.0 * (m + allowed - i))
        want = max(
            chi_quantile_bisect(1.0 - tail, l) / w for l, w in zip(ranks, weights)
        )
        assert sched.values[i - 1] == pytest.approx(want, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="group k-FWER/FDP levels are halved twice: a two-sided normal tail "
    "alpha_i/2 goes into a one-sided chi tail (ROADMAP, \"the group-level halving\")",
)
def test_singleton_group_stepdown_schedules_match_feature_schedules():
    # a unit-weight singleton group norm is |z|, whose chi_1 tail is the
    # two-sided normal tail, so the group and feature schedules coincide
    for m in (10, 100, 1000):
        ranks, weights = (1,) * m, (1.0,) * m
        assert np.allclose(
            gk_schedule(2, 0.1, ranks, weights).values,
            kfwer_schedule(m, 2, 0.1).values, rtol=0.0, atol=1e-12,
        )
        assert np.allclose(
            gf_schedule(0.1, 0.1, ranks, weights).values,
            fdp_schedule(m, 0.1, 0.1).values, rtol=0.0, atol=1e-12,
        )


def test_singleton_group_max_schedule_matches_bh():
    for m in (10, 100, 1000):
        got = group_max_schedule(0.1, (1,) * m, (1.0,) * m).values
        assert np.allclose(got, bh_schedule(m, 0.1).values, rtol=0.0, atol=1e-12)


def test_group_schedule_validation():
    with pytest.raises(ValueError, match="ranks and weights"):
        group_max_schedule(0.1, (), ())
    with pytest.raises(ValueError, match="weights must be positive"):
        group_max_schedule(0.1, (2,), (0.0,))
    with pytest.raises(ValueError, match="k must not exceed"):
        gk_schedule(3, 0.1, (2, 2), (1.0, 1.0))


def test_group_corrected_first_entry_is_mixture_quantile():
    from stepslope.quantiles import ChiMixture, mixture_quantile

    ranks = (2, 4)
    weights = (math.sqrt(2.0), 2.0)
    got = group_corrected_schedule("gk", 500, ranks, weights, 0.1, k=1)
    mix = ChiMixture(tuple((1.0 / w, l) for w, l in zip(weights, ranks)))
    want = mixture_quantile(mix, 1.0 - 1 * 0.1 / (2 * 2))
    assert got.values[0] == pytest.approx(want, abs=1e-9)


def test_group_corrected_recursion_reference():
    from stepslope.quantiles import ChiMixture, mixture_quantile

    ranks = (3, 3, 3)
    weights = (math.sqrt(3.0),) * 3
    n = 400
    alpha, gamma = 0.1, 0.2
    got = group_corrected_schedule("gf", n, ranks, weights, alpha, gamma=gamma).values

    def tail(i):
        allowed = math.floor(gamma * i) + 1
        return allowed * alpha / (2.0 * (3 + allowed - i))

    ref = [
        mixture_quantile(
            ChiMixture(tuple((1.0 / w, l) for w, l in zip(weights, ranks))),
            1.0 - tail(1),
        )
    ]
    for i in range(2, 4):
        used = [l * (i - 1) for l in ranks]
        sumsq = sum(v * v for v in ref)
        scales = [
            math.sqrt((n - u) / n + w * w * sumsq / (n - u - 1))
            for u, w in zip(used, weights)
        ]
        cand = mixture_quantile(
            ChiMixture(
                tuple((s / w, l) for s, w, l in zip(scales, weights, ranks))
            ),
            1.0 - tail(i),
        )
        if cand > ref[-1]:
            ref.extend([ref[-1]] * (4 - i))
            break
        ref.append(cand)
    assert np.allclose(got, np.array(ref), atol=1e-10)


def test_group_corrected_dof_exhaustion_warns_and_truncates():
    ranks = (10, 10)
    weights = (1.0, 1.0)
    with pytest.warns(UserWarning, match="degrees of freedom exhausted"):
        got = group_corrected_schedule("gk", 11, ranks, weights, 0.1, k=1).values
    assert got[1] == got[0]


def test_group_corrected_variant_validation():
    with pytest.raises(ValueError, match="variant"):
        group_corrected_schedule("xx", 100, (2,), (1.0,), 0.1, k=1)
    with pytest.raises(ValueError, match="gamma does not apply"):
        group_corrected_schedule("gk", 100, (2, 2), (1.0, 1.0), 0.1, k=1, gamma=0.1)
    with pytest.raises(ValueError, match="k does not apply"):
        group_corrected_schedule("gf", 100, (2, 2), (1.0, 1.0), 0.1, k=1, gamma=0.1)


def test_group_corrected_schedule_refuses_an_overflowing_weight():
    # 1/1e-320 is an inf mixture scale, on which the quantile never returned
    with pytest.raises(ValueError, match="component scale must be positive and finite"):
        group_corrected_schedule("gk", 100, (5, 5), (1e-320, 1.0), 0.1, k=1)


def test_group_corrected_schedule_returns_on_a_small_weight():
    # a 1e5 scale put the mixture quantile past any 1e-11 bracket
    vals = group_corrected_schedule("gk", 100, (5, 5), (1e-5, 1.0), 0.1, k=1).values
    assert np.all(np.isfinite(vals)) and vals[0] > 1e5


def test_build_schedule_dispatch_and_field_checks():
    req = dict(m=100, k=5, alpha=0.1)
    got = build_schedule("kFWER", **req)
    assert np.array_equal(got.values, kfwer_schedule(100, 5, 0.1).values)
    with pytest.raises(ValueError, match="requires parameter"):
        build_schedule("kFWER", m=100, alpha=0.1)
    with pytest.raises(ValueError, match="does not accept parameter"):
        build_schedule("BH", m=100, q=0.1, k=5)
    with pytest.raises(ValueError, match="does not accept parameter 'foo'"):
        build_schedule("kFWER", foo=1, **req)
    with pytest.raises(ValueError, match="unknown schedule rule"):
        build_schedule("nope", **req)
    # None stands for an unset option, so it is neither foreign nor required
    unset = build_schedule("kFWER", q=None, sigma=None, **req)
    assert np.array_equal(unset.values, got.values)
    grp = build_schedule(
        "group-FDP", alpha=0.1, gamma=0.2, ranks=(2, 3), weights=(1.0, 1.5)
    )
    assert np.array_equal(grp.values, gf_schedule(0.1, 0.2, (2, 3), (1.0, 1.5)).values)


def test_csv_round_trip_bit_exact(tmp_path):
    sched = fdp_schedule(77, 0.1, 0.15, sigma=1.3)
    path = tmp_path / "sched.csv"
    schedule_to_csv(sched, path)
    back = schedule_values_from_csv(path)
    assert np.array_equal(back, sched.values)


def test_json_round_trip_bit_exact(tmp_path):
    sched = kfwer_schedule(33, 4, 0.2, sigma=0.7)
    path = tmp_path / "sched.json"
    schedule_to_json(sched, path)
    back = schedule_from_json(path)
    assert np.array_equal(back.values, sched.values)
    assert back.rule == sched.rule
    assert back.params == sched.params


def test_csv_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n")
    with pytest.raises(ValueError, match="header"):
        schedule_values_from_csv(path)
    path.write_text("index,value\n2,1.0\n")
    with pytest.raises(ValueError, match="indices"):
        schedule_values_from_csv(path)
