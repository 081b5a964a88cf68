"""Quantile routines against slow independent oracles."""
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepslope import quantiles, simlab
from stepslope.errors import NumericalError
from stepslope.quantiles import (
    ChiMixture,
    chi_cdf,
    chi_quantile,
    mixture_quantile,
    normal_cdf,
    normal_quantile,
)

from oracles import (
    chi_cdf_mp,
    chi_quantile_bisect,
    chi_upper_quantile_mp,
    mixture_cdf_mp,
    mixture_quantile_bisect,
    normal_quantile_bisect,
)

P_GRID = (1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999, 1 - 1e-6)


def test_normal_quantile_matches_bisection_oracle():
    for p in P_GRID:
        assert normal_quantile(p) == pytest.approx(normal_quantile_bisect(p), abs=1e-10)


def test_normal_quantile_frozen_values():
    # oracle bisection at tol 1e-13
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400318, abs=1e-10)
    assert normal_quantile(0.95) == pytest.approx(1.6448536269514946, abs=1e-10)
    assert normal_quantile(1.0 - 5e-5) == pytest.approx(3.890591886412871, abs=1e-10)
    assert normal_quantile(0.5) == 0.0


def test_normal_quantile_raises_when_newton_does_not_settle(monkeypatch):
    # six steps from the A&S start always settle; from x = 0 they cannot
    # reach the upper-tail root near 7.03, and the cap is no silent return
    monkeypatch.setattr(quantiles, "_normal_tail_initial", lambda q: 0.0)
    with pytest.raises(NumericalError, match=r"normal quantile at p=1e-12 did not converge"):
        normal_quantile(1e-12)


def test_normal_cdf_round_trip():
    for p in P_GRID:
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_quantile_symmetry():
    for p in (0.01, 0.2, 0.45):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_normal_quantile_rejects_boundary(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_normal_quantile_monotone(p):
    q = min(1 - 1e-9, p + 1e-4)
    assert normal_quantile(p) <= normal_quantile(q) + 1e-12


def test_chi_quantile_matches_mpmath_oracle():
    for dof in (1, 2, 3, 5, 10, 50):
        for p in (0.01, 0.1):
            assert chi_quantile(p, dof) == pytest.approx(
                chi_quantile_bisect(p, dof), abs=1e-9
            )


# upper tails from 0.5 down to 1e-9
TAILS = (0.5, 0.3, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)


def _assert_tail_accurate(p, dof, rel):
    # the tail chi_quantile inverts at p >= 1/2 is 1 - p, an exact subtraction
    want = chi_upper_quantile_mp(1.0 - p, dof)
    got = chi_quantile(p, dof)
    assert abs(got - want) <= rel * want, (p, dof, got, want)


@pytest.mark.parametrize("dof,rel", [(d, 1e-15) for d in (1, 2, 3, 4, 5, 6, 7, 50)]
                         + [(1000, 1e-14)])
def test_chi_quantile_matches_the_upper_tail_oracle(dof, rel):
    for tail in TAILS:
        _assert_tail_accurate(1.0 - tail, dof, rel)


def _schedule_levels(preset):
    """Every distinct (p, dof) a preset's schedules pass to chi_quantile."""
    seen = set()
    real = quantiles.chi_quantile

    def recording(p, dof):
        seen.add((p, dof))
        return real(p, dof)

    text = resources.files("stepslope").joinpath("presets", f"{preset}.json").read_text()
    with pytest.MonkeyPatch.context() as mp:
        # schedules calls it by its own name, mixture_quantile by the module's
        mp.setattr("stepslope.schedules.chi_quantile", recording)
        mp.setattr(quantiles, "chi_quantile", recording)
        for d in json.loads(text)["experiments"]:
            simlab.resolve_schedule(simlab.ExperimentConfig.from_dict(d))
    return sorted(seen)


@pytest.mark.parametrize("preset", ["table7", "fig4", "table9"])
def test_chi_quantile_is_tail_accurate_at_the_preset_levels(preset):
    levels = _schedule_levels(preset)
    # the smallest and largest tails and 60 spread between them, per dof
    for dof in sorted({d for _, d in levels}):
        ps = [p for p, d in levels if d == dof]
        for i in sorted(set(np.linspace(0, len(ps) - 1, 62).round().astype(int).tolist())):
            _assert_tail_accurate(ps[i], dof, 1e-15)


def test_chi_quantile_frozen_values():
    # oracle bisection at tol 1e-12
    assert chi_quantile(0.95, 5) == pytest.approx(3.3272357436039783, abs=1e-9)
    assert chi_quantile(0.999, 4) == pytest.approx(4.297304614860423, abs=1e-9)
    # chi_1 at P(|Z| <= 1) has quantile exactly 1
    assert chi_quantile(0.6826894921370859, 1) == pytest.approx(1.0, abs=1e-8)
    # chi_2 CDF is 1 - exp(-x^2/2), so p = 1 - e^{-2} inverts to 2
    assert chi_quantile(1.0 - np.exp(-2.0), 2) == pytest.approx(2.0, abs=1e-10)


def test_chi_cdf_matches_mpmath():
    for dof in (1, 2, 4, 7):
        for x in (0.1, 0.5, 1.0, 2.5, 5.0):
            assert chi_cdf(x, dof) == pytest.approx(chi_cdf_mp(x, dof), abs=1e-12)


@pytest.mark.parametrize("dof", [1, 2, 5, 50])
def test_chi_lower_tail_is_relative_accurate(dof):
    # below the median both routines work on the CDF itself, not on 1 - Q
    for p in (1e-12, 1e-6, 1e-3, 0.3):
        x = chi_quantile(p, dof)
        assert chi_cdf_mp(x, dof) == pytest.approx(p, rel=1e-13)
        assert chi_cdf(x, dof) == pytest.approx(p, rel=1e-13)


def test_chi_cdf_zero_below_origin():
    assert chi_cdf(0.0, 3) == 0.0
    assert chi_cdf(-1.0, 3) == 0.0


@pytest.mark.parametrize("dof", [1, 2, 7])
def test_chi_cdf_at_the_ends_of_the_float_range(dof):
    # x^2/2 underflows to 0 or overflows to inf; neither may reach a log
    assert chi_cdf(1e-170, dof) == 0.0
    assert chi_cdf(1e200, dof) == 1.0
    assert chi_cdf(math.inf, dof) == 1.0


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_chi_quantile_rejects_bad_dof(bad):
    with pytest.raises(ValueError):
        chi_quantile(0.5, bad)


@given(
    st.floats(min_value=0.01, max_value=0.98),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_chi_quantile_monotone_in_p_and_dof(p, dof):
    assert chi_quantile(p, dof) <= chi_quantile(p + 0.01, dof) + 1e-12
    assert chi_quantile(p, dof) <= chi_quantile(p, dof + 1) + 1e-12


def test_mixture_of_identical_components_is_plain_chi():
    mix = ChiMixture(((2.0, 3), (2.0, 3), (2.0, 3)))
    for x in (0.5, 1.0, 4.0, 9.0):
        assert mix.cdf(x) == pytest.approx(chi_cdf(x / 2.0, 3), abs=1e-14)
    assert mixture_quantile(mix, 0.9) == pytest.approx(
        2.0 * chi_quantile(0.9, 3), abs=1e-9
    )


def test_mixture_quantile_matches_grid_oracle():
    comps = ((1.0, 1), (1.0, 4))
    assert mixture_quantile(ChiMixture(comps), 0.9) == pytest.approx(
        2.4834334238744598, abs=1e-8
    )
    assert mixture_quantile(ChiMixture(comps), 0.9) == pytest.approx(
        mixture_quantile_bisect(list(comps), 0.9), abs=1e-6
    )
    comps2 = ((0.5, 2), (1.5, 3), (2.0, 5))
    got = mixture_quantile(ChiMixture(comps2), 0.75)
    assert got == pytest.approx(mixture_quantile_bisect(list(comps2), 0.75), abs=1e-6)


def test_mixture_quantile_inverts_cdf():
    mix = ChiMixture(((0.7, 2), (1.3, 6)))
    for p in (0.05, 0.3, 0.8, 0.99):
        x = mixture_quantile(mix, p)
        assert mix.cdf(x) == pytest.approx(p, abs=1e-9)
        assert mixture_cdf_mp(x, [(0.7, 2), (1.3, 6)]) == pytest.approx(p, abs=1e-9)


def test_mixture_cdf_monotone():
    mix = ChiMixture(((1.0, 1), (2.0, 4), (0.5, 2)))
    xs = np.linspace(0.0, 12.0, 200)
    vals = np.array([mix.cdf(x) for x in xs])
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0
    assert vals[-1] > 0.99


def test_mixture_rejects_bad_components():
    with pytest.raises(ValueError):
        ChiMixture(())
    with pytest.raises(ValueError):
        ChiMixture(((0.0, 2),))
    with pytest.raises(ValueError):
        ChiMixture(((1.0, 0),))
    with pytest.raises(ValueError):
        mixture_quantile(ChiMixture(((1.0, 2),)), 1.0)


def test_mixture_refuses_an_infinite_scale():
    with pytest.raises(ValueError, match="component scale must be positive and finite"):
        ChiMixture(((math.inf, 2),))


@pytest.mark.parametrize("scale", [1e5, 1e300], ids=repr)
def test_mixture_quantile_returns_past_a_1e_11_bracket(scale):
    # the bisection ran forever once no float lay inside a 1e-11 bracket
    want = scale * chi_quantile(0.9, 3)
    assert mixture_quantile(ChiMixture(((scale, 3),)), 0.9) == pytest.approx(want, rel=1e-12)
