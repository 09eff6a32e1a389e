import logging
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from nc_forge.errors import DomainError
from nc_forge.smoothness import RHO_CUTOFF, _DickmanSeries, dickman_rho

from oracles import dickman_oracle

# Frozen oracle outputs (step-halved trapezoid of the integral equation,
# stable to 1e-9; the u=2 value agrees with the closed form 1 - ln 2).
RHO_ORACLE = {
    2.0: 0.30685281944005469,
    2.5: 0.13031956183225066,
    3.0: 0.048608388291128866,
    4.0: 0.004910925647759985,
}

# Van de Lune and Wattel, Math. Comp. 23 (1969).
RHO_PUBLISHED = {
    6.0: 1.9649696e-5,
    7.0: 8.7456700e-7,
    8.0: 3.2320693e-8,
    9.0: 1.0162483e-9,
    10.0: 2.7701718e-11,
}


def test_identically_one_up_to_one():
    for u in (0.0, 0.25, 0.5, 1.0):
        assert dickman_rho(u) == 1.0


def test_closed_form_on_second_interval():
    for u in (1.25, 1.5, 1.75, 2.0):
        assert abs(dickman_rho(u) - (1.0 - math.log(u))) <= 1e-9


def test_oracle_reproduces_closed_form():
    assert abs(dickman_oracle(2.0) - (1.0 - math.log(2.0))) <= 1e-9


def test_matches_frozen_oracle_values():
    for u, want in RHO_ORACLE.items():
        assert abs(dickman_rho(u) - want) <= 1e-9


def test_matches_live_oracle():
    assert abs(dickman_rho(3.0) - dickman_oracle(3.0)) <= 1e-9


def test_matches_published_values():
    for u, want in RHO_PUBLISHED.items():
        assert abs(dickman_rho(u) - want) <= 1e-7 * want


def test_integral_equation_holds_to_relative_accuracy():
    # u rho(u) = integral of rho over [u-1, u]; quad on eighths of the interval and at
    # the integer where rho' has its kink.  Far below 1e-15, where an absolute error
    # would swamp the value, the relative error must stay small too.
    for u in (2.5, 3.0, 10.3, 20.0, 50.7, 100.1):
        nodes = sorted({u - 1 + j / 8 for j in range(9)} | {float(math.floor(u))})
        integral = mpmath.quad(dickman_rho, nodes)
        lhs = u * dickman_rho(u)
        assert abs(lhs - integral) <= 1e-7 * lhs, u


def test_value_at_three():
    assert abs(dickman_rho(3.0) - 0.0486084) <= 1e-4


def test_bounded_by_reciprocal_gamma():
    for u in range(2, 11):
        assert dickman_rho(float(u)) <= 1.0 / math.gamma(u + 1) + 1e-9


def test_cutoff_is_where_reciprocal_gamma_is_below_half_the_smallest_double():
    """rho(u) <= 1/Gamma(u + 1) (Tenenbaum, III.5), and past the cutoff that bound is below
    2^-1075 by a factor above e^2, so 0.0 is the double nearest rho(u) there."""
    assert math.lgamma(RHO_CUTOFF + 1) > 1075 * math.log(2) + 2
    for u in (k / 4 for k in range(0, 521)):  # up to 130
        assert dickman_rho(u) <= math.exp(-math.lgamma(u + 1)) * (1 + 1e-12), u
    series = _DickmanSeries()
    assert series.eval(RHO_CUTOFF) == series.eval(RHO_CUTOFF - 0.5) == 0.0


def test_strictly_decreasing_past_one():
    grid = [1.0 + 0.25 * k for k in range(1, 477)]  # up to 120, where rho is near 1e-280
    values = [dickman_rho(u) for u in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_nonnegative_to_twenty():
    for k in range(0, 81):
        assert dickman_rho(k * 0.25) >= 0.0


def test_continuity_at_interval_joints():
    for u in (2.0, 3.0, 5.0):
        eps = 1e-7
        assert abs(dickman_rho(u - eps) - dickman_rho(u + eps)) < 1e-6


def test_series_extension_does_not_depend_on_call_pattern():
    at_once = _DickmanSeries()
    at_once.extend_to(40)
    by_interval = _DickmanSeries()
    for k in range(1, 41):
        by_interval.extend_to(k)
    by_interval.extend_to(20)  # asking for fewer intervals keeps the coefficients
    assert len(at_once.coeffs) == len(by_interval.coeffs) == 40
    assert at_once.coeffs == by_interval.coeffs
    us = [1.0 + k / 7 for k in range(1, 274)]  # (1, 40]
    assert [at_once.eval(u) for u in us] == [by_interval.eval(u) for u in us]


def test_rejects_negative():
    with pytest.raises(DomainError):
        dickman_rho(-0.1)


def test_underflow_beyond_cutoff_is_logged(caplog):
    with caplog.at_level(logging.WARNING, logger="nc_forge.smoothness"):
        assert dickman_rho(501.0) == 0.0
    assert any("underflow" in rec.message for rec in caplog.records)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
def test_unit_interval_bounds_and_monotone(u):
    v = dickman_rho(u)
    assert 0.0 < v <= 1.0
    assert dickman_rho(u + 0.5) <= v
