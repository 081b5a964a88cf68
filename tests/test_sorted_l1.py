"""Sorted-L1 norm, its prox, and the dual feasibility measure."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stepslope import solver, sorted_l1
from stepslope.sorted_l1 import dual_infeasibility, prox_sorted_l1, sorted_l1_norm

from oracles import _dual_infeasibility, prox_enum, prox_full_pav, sorted_l1_objective


def _rand_instance(rng, m):
    v = rng.normal(0.0, 3.0, size=m)
    lam = np.sort(rng.uniform(0.0, 2.5, size=m))[::-1]
    return v, lam


def test_norm_is_sorted_dot_product():
    v = np.array([-1.0, 4.0, -3.0, 0.5])
    lam = np.array([2.0, 1.0, 0.5, 0.1])
    expected = 2.0 * 4.0 + 1.0 * 3.0 + 0.5 * 1.0 + 0.1 * 0.5
    assert sorted_l1_norm(v, lam) == pytest.approx(expected, abs=1e-14)


def test_norm_permutation_and_sign_invariant():
    rng = np.random.default_rng(7)
    v, lam = _rand_instance(rng, 8)
    base = sorted_l1_norm(v, lam)
    assert sorted_l1_norm(-v, lam) == pytest.approx(base, abs=1e-12)
    assert sorted_l1_norm(v[rng.permutation(8)], lam) == pytest.approx(base, abs=1e-12)


@given(
    hnp.arrays(np.float64, 6, elements=st.floats(-10, 10)),
    hnp.arrays(np.float64, 6, elements=st.floats(-10, 10)),
)
@settings(max_examples=150, deadline=None)
def test_norm_triangle_inequality(a, b):
    lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.0])
    lhs = sorted_l1_norm(a + b, lam)
    rhs = sorted_l1_norm(a, lam) + sorted_l1_norm(b, lam)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_prox_matches_enumeration_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        v, lam = _rand_instance(rng, m)
        got = prox_sorted_l1(v, lam)
        want = prox_enum(v, lam)
        assert np.max(np.abs(got - want)) < 1e-9


def test_prox_beats_oracle_candidates_on_objective():
    rng = np.random.default_rng(99)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        v, lam = _rand_instance(rng, m)
        b = prox_sorted_l1(v, lam)
        f_star = sorted_l1_objective(b, v, lam)
        for _ in range(20):
            cand = b + rng.normal(0.0, 0.05, size=m)
            assert f_star <= sorted_l1_objective(cand, v, lam) + 1e-12


@pytest.mark.parametrize("w", [[2.0, np.nan, 1.0], [np.inf, 1.0, 1.0]], ids=["nan", "inf"])
def test_prox_refuses_non_finite_weights(w):
    # a NaN weight gave a NaN entry and an infinite one an all-zero point
    with pytest.raises(ValueError, match="non-negative, non-increasing and finite"):
        prox_sorted_l1(np.array([3.0, 1.0, 2.0]), np.array(w))


def test_prox_zero_lambda_is_identity():
    v = np.array([3.0, -1.0, 0.0, 2.5])
    out = prox_sorted_l1(v, np.zeros(4))
    assert np.array_equal(out, v)


def test_prox_produces_exact_zeros():
    v = np.array([0.4, -0.2, 0.1])
    lam = np.array([1.0, 0.9, 0.8])
    out = prox_sorted_l1(v, lam)
    assert np.array_equal(out, np.zeros(3))


def test_prox_soft_thresholding_when_lambda_constant():
    v = np.array([4.0, -2.0, 1.0, -0.5])
    lam = np.full(4, 1.5)
    out = prox_sorted_l1(v, lam)
    want = np.sign(v) * np.maximum(np.abs(v) - 1.5, 0.0)
    assert np.allclose(out, want, atol=1e-14)


def test_prox_known_tie_averaging_case():
    # one decreasing pair whose difference is smaller than the lambda gap
    # pools into a single block before thresholding
    v = np.array([1.0, 1.0])
    lam = np.array([0.6, 0.2])
    out = prox_sorted_l1(v, lam)
    assert np.allclose(out, [0.6, 0.6], atol=1e-14)


@given(
    hnp.arrays(np.float64, 5, elements=st.floats(-20, 20)),
    hnp.arrays(np.float64, 5, elements=st.floats(-20, 20)),
)
@settings(max_examples=200, deadline=None)
def test_prox_nonexpansive(u, v):
    lam = np.array([2.5, 2.0, 1.0, 0.5, 0.25])
    du = prox_sorted_l1(u, lam) - prox_sorted_l1(v, lam)
    assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-9


@given(hnp.arrays(np.float64, 5, elements=st.floats(-20, 20)))
@settings(max_examples=150, deadline=None)
def test_prox_sign_and_scale_equivariant(v):
    lam = np.array([2.0, 1.5, 1.0, 0.5, 0.0])
    assert np.allclose(prox_sorted_l1(-v, lam), -prox_sorted_l1(v, lam), atol=1e-12)
    c = 3.0
    assert np.allclose(
        prox_sorted_l1(c * v, c * lam), c * prox_sorted_l1(v, lam), atol=1e-9
    )


@given(hnp.arrays(np.float64, 6, elements=st.floats(-15, 15)))
@settings(max_examples=150, deadline=None)
def test_prox_magnitudes_ordered_like_input(v):
    # the prox preserves the magnitude ordering of its input
    lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    out = prox_sorted_l1(v, lam)
    order = np.argsort(-np.abs(v), kind="stable")
    mags = np.abs(out)[order]
    assert np.all(np.diff(mags) <= 1e-12)


def test_prox_zero_iff_dual_feasible():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        v, lam = _rand_instance(rng, m)
        is_zero = not np.any(prox_sorted_l1(v, lam))
        assert is_zero == (dual_infeasibility(v, lam) <= 1e-12)


_GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, -2.0])


@given(
    st.integers(0, 40).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID, st.floats(-20, 20))),
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID.map(abs), st.floats(0, 10))),
    ))
)
@settings(max_examples=400, deadline=None)
def test_prox_bitwise_equals_full_loop(pair):
    # grid values make ties, |v| == w and zero weights common
    v, w = pair
    w = np.sort(w)[::-1]
    assert prox_sorted_l1(v, w).tobytes() == prox_full_pav(v, w).tobytes()


def test_prox_bitwise_equals_full_loop_on_seeded_inputs():
    rng = np.random.default_rng(12)
    for trial in range(600):
        m = int(rng.integers(1, 400))
        w = np.sort(rng.uniform(0.0, 2.0, size=m))[::-1]
        kind = trial % 4
        if kind == 0:  # dense, any scale
            v = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        elif kind == 1:  # a few large entries in small noise
            v = 0.1 * rng.normal(size=m)
            v[rng.choice(m, size=min(m, 12), replace=False)] += 5.0
        elif kind == 2:  # entries sitting exactly on their weights
            v = w * rng.choice([-1.0, 1.0], size=m)
            v[: m // 3] += 1.0
        else:  # a constant weight: soft thresholding
            w = np.full(m, w[0])
            v = rng.normal(size=m)
        assert prox_sorted_l1(v, w).tobytes() == prox_full_pav(v, w).tobytes(), trial


@pytest.mark.parametrize(
    "v,w",
    [
        ([3.0, -3.0, 3.0, 1.0], [2.0, 1.5, 1.0, 0.5]),  # tied magnitudes
        ([2.0, -1.5, 1.0], [2.0, 1.5, 1.0]),  # |v| == w everywhere: all zero
        ([5.0, 1.0, -0.5], [1.0, 1.0, 0.5]),  # |v| == w past the support
        ([0.3, -0.2, 0.1], [1.0, 1.0, 1.0]),  # all below the weights
        ([1.0, -2.0, 0.0], [0.0, 0.0, 0.0]),  # zero weights: the identity
        ([4.0, 1.0, 0.5], [1.0, 0.0, 0.0]),  # trailing zero weights
        ([-0.7], [0.2]),
        ([0.1], [0.2]),
        ([], []),
    ],
)
def test_prox_bitwise_equals_full_loop_on_edge_cases(v, w):
    v, w = np.array(v, dtype=float), np.array(w, dtype=float)
    assert prox_sorted_l1(v, w).tobytes() == prox_full_pav(v, w).tobytes()


def _count_loop_entries(monkeypatch):
    visited = []
    loop = sorted_l1._pav_extend

    def spy(values, means, counts):
        visited.append(len(values))
        return loop(values, means, counts)

    monkeypatch.setattr(sorted_l1, "_pav_extend", spy)
    return visited


def test_prox_loop_stops_at_the_prefix_on_a_sparse_input(monkeypatch):
    visited = _count_loop_entries(monkeypatch)
    rng = np.random.default_rng(3)
    m = 1600
    v = 0.2 * rng.normal(size=m)
    v[rng.choice(m, size=12, replace=False)] = 6.0 * rng.choice([-1.0, 1.0], size=12)
    w = np.linspace(2.5, 1.5, m)
    out = prox_sorted_l1(v, w)
    assert np.count_nonzero(out) == 12
    assert sum(visited) <= 12
    assert out.tobytes() == prox_full_pav(v, w).tobytes()


def test_prox_runs_the_loop_over_a_suffix_that_fails_the_margin(monkeypatch):
    # the entry right after the support sits exactly on its weight, so the
    # suffix's largest running mean is 0 and the suffix loop must run
    visited = _count_loop_entries(monkeypatch)
    v = np.array([5.0, 4.0, 1.0, 0.25, -0.5])
    w = np.array([1.0, 1.0, 1.0, 0.5, 0.5])
    out = prox_sorted_l1(v, w)
    assert visited == [2, 3]
    assert out.tobytes() == prox_full_pav(v, w).tobytes()
    assert list(out) == [4.0, 3.0, 0.0, 0.0, 0.0]


def test_dual_infeasibility_values():
    lam = np.array([2.0, 1.0])
    # cumulative |g| minus cumulative lambda, maximized over prefixes
    assert dual_infeasibility(np.array([2.0, 1.0]), lam) == pytest.approx(0.0, abs=1e-14)
    assert dual_infeasibility(np.array([2.5, 1.0]), lam) == pytest.approx(0.5, abs=1e-14)
    assert dual_infeasibility(np.array([1.0, -2.5]), lam) == pytest.approx(0.5, abs=1e-14)
    assert dual_infeasibility(np.array([0.5, 0.1]), lam) <= 0.0


@given(hnp.arrays(np.float64, 5, elements=st.floats(-20, 20)))
@settings(max_examples=100, deadline=None)
def test_dual_infeasibility_scales_linearly(g):
    lam = np.array([2.0, 1.5, 1.0, 0.5, 0.25])
    base = dual_infeasibility(g, lam)
    assert dual_infeasibility(2.0 * g, 2.0 * lam) == pytest.approx(
        2.0 * base, abs=1e-9
    )


_STEPS = st.sampled_from([1.0, 0.37, 2.5])


@given(
    st.integers(1, 40).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID, st.floats(-20, 20))),
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID.map(abs), st.floats(0, 10))),
    )),
    _STEPS,
)
@settings(max_examples=400, deadline=None)
def test_prox_kernel_returns_the_sorted_magnitudes_and_the_norm(pair, step):
    # grid values make ties, exact zeros and |v| == step * w common; the
    # solver's feature prox scales the weights by the step and reads the
    # penalty off the kernel's sorted |b|
    v, w = pair
    w = np.sort(w)[::-1]
    b, mags = sorted_l1._prox_kernel(v, step * w)
    assert b.tobytes() == prox_sorted_l1(v, step * w).tobytes()
    assert mags.tobytes() == np.sort(np.abs(b))[::-1].tobytes()
    got, penalty = solver._sorted_l1_prox(w)(v, step)
    assert got.tobytes() == b.tobytes()
    assert np.float64(penalty).tobytes() == np.float64(sorted_l1_norm(b, w)).tobytes()


@given(
    st.integers(0, 40).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID, st.floats(-20, 20))),
        hnp.arrays(np.float64, m, elements=st.one_of(_GRID.map(abs), st.floats(0, 10))),
    ))
)
@settings(max_examples=300, deadline=None)
def test_dual_infeasibility_equals_the_oracle_bitwise(pair):
    # the grid's ties and zeros, feasible and infeasible gradients; an empty
    # gradient, which the oracle cannot take, is feasible
    g, w = pair
    w = np.sort(w)[::-1]
    got = dual_infeasibility(g, w)
    if g.size == 0:
        assert got == 0.0
    else:
        assert np.float64(got).tobytes() == np.float64(_dual_infeasibility(g, w)).tobytes()
