"""The shared argument checks: one rule each, spelled in one module."""
import math
from pathlib import Path

import numpy as np
import pytest

from stepslope.errors import check_count, check_index, check_level, check_scale
from stepslope.schedules import group_corrected_schedule, kfwer_schedule
from stepslope.simlab import ExperimentConfig, run_experiment
from stepslope.solver import solve_slope
from stepslope.sorted_l1 import _check_order

SRC = Path(__file__).resolve().parent.parent / "src" / "stepslope"
HUGE = 10**400  # an int past the float range: float() of it overflows


@pytest.mark.parametrize(
    "check,good,want",
    [
        (check_count, 3, 3),
        (check_count, 4.0, 4),
        (check_count, np.int64(7), 7),
        (check_index, 0, 0),
        (check_index, 2.0, 2),
        (check_level, np.float32(0.5), 0.5),
        (check_level, 0.1, 0.1),
        (check_scale, 2, 2.0),
        (check_scale, 1e-300, 1e-300),
    ],
)
def test_checkers_return_the_normalized_value(check, good, want):
    got = check("x", good)
    assert got == want and type(got) is type(want)


REFUSED = (
    [(check_count, v) for v in (0, -1, 2.5, math.inf, -math.inf, math.nan)]
    + [(check_index, v) for v in (-1, 0.5, math.inf, -math.inf, math.nan)]
    + [(check_level, v) for v in (0.0, 1.0, -0.5, math.inf, math.nan, HUGE, -HUGE)]
    + [(check_scale, v) for v in (0.0, -1.0, math.inf, -math.inf, math.nan, HUGE, -HUGE)]
    + [(check_count, v) for v in (None, "3", True, [3])]
    + [(check_index, v) for v in (None, True, False)]
    + [(check_level, v) for v in (None, "0.5")]
    + [(check_scale, v) for v in (None, "1", True, 1j)]
)


def _case_id(check, value):
    # the checker by name, so a case can be selected; HUGE's repr is 401 digits
    if type(value) is int and abs(value) == HUGE:
        return f"{check.__name__}-{'-' if value < 0 else ''}HUGE"
    return f"{check.__name__}-{value!r}"


@pytest.mark.parametrize("check,bad", REFUSED, ids=[_case_id(c, v) for c, v in REFUSED])
def test_checkers_refuse_with_a_value_error_naming_the_argument(check, bad):
    # never an OverflowError, for an infinity or an int past the float range,
    # nor a TypeError; a bool or a string is not taken for the number it casts to
    with pytest.raises(ValueError, match=r"^the_arg must "):
        check("the_arg", bad)


@pytest.mark.parametrize(
    "call,name",
    [(lambda: kfwer_schedule(10, None, 0.1), "k"),
     (lambda: kfwer_schedule(5, True, 0.1), "k"),
     (lambda: group_corrected_schedule("gk", 100, (5, 5), (1.0, 1.0), 0.1), "k"),
     (lambda: solve_slope(None, np.ones(3), np.ones(3), max_iter=True), "max_iter"),
     (lambda: solve_slope(None, np.ones(3), np.ones(3), sigma="1"), "sigma"),
     (lambda: run_experiment(ExperimentConfig("orthogonal-identity", "k-slope", 10, 10, 1, k=1,
                                              replications=1), threads=True), "threads")],
    ids=["kfwer-k-none", "kfwer-k-true", "gk-k-omitted", "max-iter-true", "sigma-string",
         "threads-true"],
)
def test_public_calls_refuse_a_non_number_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


def test_scale_names_finiteness_only_when_the_value_is_infinite():
    with pytest.raises(ValueError, match=r"^s must be positive and finite, got inf$"):
        check_scale("s", math.inf)
    with pytest.raises(ValueError, match=r"^s must be positive, got nan$"):
        check_scale("s", math.nan)


@pytest.mark.parametrize(
    "w",
    [[2.0, math.nan, 1.0], [math.nan], [math.inf, 1.0], [math.inf], [1.0, -math.inf],
     [1.0, 2.0], [1.0, -0.5]],
    ids=repr,
)
def test_check_order_refuses_nan_inf_negative_and_rising_weights(w):
    with pytest.raises(ValueError, match="non-negative, non-increasing and finite"):
        _check_order(np.array(w))


def _phrase(check, bad):
    """The checker's message between the argument's name and its value."""
    with pytest.raises(ValueError) as info:
        check("x", bad)
    msg = str(info.value)
    return msg[len("x "):msg.index(", got ") + len(", got")]


@pytest.mark.parametrize(
    "phrase,home",
    [(_phrase(check_count, 0), "errors.py"),
     (_phrase(check_index, -1), "errors.py"),
     (_phrase(check_level, 1.0), "errors.py"),
     (_phrase(check_scale, 0.0), "errors.py"),
     (_phrase(check_scale, math.inf), "errors.py"),
     ("non-negative, non-increasing and finite", "sorted_l1.py")],
)
def test_each_rule_is_spelled_in_one_module(phrase, home):
    # a hand-written copy of a rule would repeat its message
    spelled = sorted(p.name for p in SRC.glob("*.py") if phrase in p.read_text())
    assert spelled == [home], phrase
