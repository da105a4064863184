"""Dickman rho against frozen high-precision oracles and its own defining
delay differential equation."""

import math
import random

import numpy as np
import pytest

from friabilis import dickman
from friabilis.dickman import RhoTable, default_table, dickman_rho, psi_dickman_estimate
from friabilis.errors import ConfigError, DomainError

# frozen oracle values: 30-digit corrected-trapezoid march at h = 1/400 and
# 1/800 with Richardson extrapolation; rho(3) cross-checked against the
# closed form 1 - ln 3 + integral_2^3 ln(t-1)/t dt evaluated by quadrature
RHO_3 = 0.048608388291131567
RHO_5 = 3.5472470045603973e-4
RHO_10 = 2.7701718377259590e-11
RHO_20 = 2.4617828287649870e-29


def test_flat_segment():
    assert dickman_rho(0.0) == 1.0
    assert dickman_rho(0.5) == 1.0
    assert dickman_rho(1.0) == 1.0
    assert dickman_rho(-3.0) == 0.0


def test_log_segment():
    for u in np.linspace(1.0, 2.0, 211):
        assert dickman_rho(float(u)) == pytest.approx(1 - math.log(u), abs=1e-12)


@pytest.mark.parametrize(
    "u,expect,tol",
    [(3.0, RHO_3, 1e-13), (5.0, RHO_5, 1e-14), (10.0, RHO_10, 5e-16), (20.0, RHO_20, 1e-16)],
)
def test_oracle_points(u, expect, tol):
    # absolute tolerances sit at the float64 noise floor of the march
    assert dickman_rho(u) == pytest.approx(expect, abs=tol)


def test_oracle_points_relative_where_representable():
    assert dickman_rho(3.0) == pytest.approx(RHO_3, rel=1e-10)
    assert dickman_rho(5.0) == pytest.approx(RHO_5, rel=1e-10)


def test_halving_stability():
    a = RhoTable.build(h=1e-3, u_max=12.0)
    b = RhoTable.build(h=5e-4, u_max=12.0)
    assert abs(a.interpolate(10.0) - b.interpolate(10.0)) < 1e-9


def test_monotone_decreasing_above_noise_floor():
    us = np.linspace(1.0, 30.0, 1200)
    vals = [dickman_rho(float(u)) for u in us]
    for lo, hi, vlo, vhi in zip(us, us[1:], vals, vals[1:]):
        if vhi > 1e-14:
            assert vhi <= vlo + 1e-15, (lo, hi)


def test_delay_equation_on_interior():
    # u rho'(u) = -rho(u-1), via a central difference on the table
    h = 1e-5
    for u in (2.5, 3.5, 4.25, 7.0):
        lhs = u * (dickman_rho(u + h) - dickman_rho(u - h)) / (2 * h)
        assert lhs == pytest.approx(-dickman_rho(u - 1), rel=1e-5)


def test_table_range_guard():
    for u in (1e9, math.nan):
        with pytest.raises(DomainError):
            dickman_rho(u)
    table = default_table()
    assert table.u_max >= 50.0


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_grown_default_table_is_the_built_one(monkeypatch, order):
    # the default table grows by unit blocks as lookups reach further; each
    # block reads only earlier ones, so every value is the full table's
    full = RhoTable.build()
    us = [49.99999]
    for k in range(1, 51):
        us += [float(k), math.nextafter(k, 0.0), math.nextafter(k, math.inf)]
        us += [k + 0.25, k + 0.5, k + 0.999]
    us = [u for u in us if u <= full.u_max]
    if order == "descending":
        us.sort(reverse=True)
    elif order == "shuffled":
        random.Random(20).shuffle(us)
    else:
        us.sort()
    monkeypatch.setattr(dickman, "_default_table", None)
    if order == "ascending":
        dickman_rho(2.0)
        assert default_table(2.0).u_max == 4.0  # u = 2 reads blocks 2 and 3 only
    for u in us:
        assert dickman_rho(u) == dickman_rho(u, full), u
    assert np.array_equal(default_table().values, full.values)

def test_nonnegative_clamp_in_deep_tail():
    # past u ~ 35 the true value sits under the float64 absolute noise
    # floor; the clamp keeps the output a probability-like quantity
    for u in np.linspace(40.0, 50.0, 23):
        assert dickman_rho(float(u)) >= 0.0


def test_build_snaps_h():
    t = RhoTable.build(h=0.26, u_max=4.0)
    assert t.h == pytest.approx(0.25)  # snapped to 1/m
    with pytest.raises(ConfigError):
        RhoTable.build(h=0.4, u_max=4.0)  # 1/h rounds below the minimum m


def test_psi_dickman_estimate():
    # x * rho(u); at y >= x this is x * rho(<=1) = x
    assert psi_dickman_estimate(10**4, 10**4) == pytest.approx(10**4)
    est = psi_dickman_estimate(10**6, 100)
    assert est == pytest.approx(10**6 * dickman_rho(3.0), rel=1e-12)
    with pytest.raises(DomainError):
        psi_dickman_estimate(0.5, 10)
    with pytest.raises(DomainError):
        psi_dickman_estimate(100, 1)
