"""Cylinder functions against scipy.special and classical identities.

Two producers are covered: ``bessel.bessel_j_seq`` (``J_0..J_N`` on long
real vectors, behind the quasi-static sum of the test oracles) and the
production per-frequency tables ``multipole._cyl_tables`` (J, J', H1, H1'
at real arguments).
"""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblebands import bessel as bs
from bubblebands.multipole import _cyl_tables, _parity_signs

# Reference values, Abramowitz & Stegun style, frozen to 10 decimals.
FROZEN = [
    ("J", 0, 1.0, 0.7651976866),
    ("J", 3, 2.0, 0.1289432495),
    ("Y", 0, 1.0, 0.0882569642),
    ("Y", 1, 2.0, -0.1070324315),
]


def _y_table(n, x):
    """``Y_0 .. Y_n`` at real ``x`` as the imaginary part of the H1 table."""
    return _cyl_tables(n, x)[2].imag


@pytest.mark.parametrize("kind, n, x, value", FROZEN)
def test_frozen_reference_values(kind, n, x, value):
    seq = bs.bessel_j_seq(n, x) if kind == "J" else _y_table(n, x)
    assert seq[n] == pytest.approx(value, abs=1e-9)


def test_frozen_hankel_value():
    _, _, h, _ = _cyl_tables(1, 2.0)
    assert h[1] == pytest.approx(0.5767248078 - 0.1070324315j, abs=1e-9)


def test_j_matches_scipy_dense_grid():
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.05, 13.5, 300.0], rng.uniform(0.05, 300.0, 400)])
    J = bs.bessel_j_seq(18, xs)
    ref = sp.jv(np.arange(19)[:, None], xs[None, :])
    np.testing.assert_allclose(J, ref, rtol=0.0, atol=1e-12)


def test_y_matches_scipy_dense_grid():
    rng = np.random.default_rng(8)
    xs = np.concatenate([[0.05, 12.9, 13.5, 14.1, 300.0],
                         rng.uniform(0.05, 300.0, 300),
                         rng.uniform(10.0, 17.0, 200)])
    Y = np.array([_y_table(18, x) for x in xs]).T
    ref = sp.yv(np.arange(19)[:, None], xs[None, :])
    # mixed tolerance: absolute for |Y| <= 1, relative beyond
    err = np.abs(Y - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() < 1e-10


def test_cyl_tables_match_scipy_on_real_grid():
    rng = np.random.default_rng(9)
    xs = np.concatenate([[0.05, 1.0, 13.5, 300.0],
                         rng.uniform(0.05, 300.0, 150)])
    orders = np.arange(16)
    for x in xs:
        j, jp, h, hp = _cyl_tables(15, x)
        for got, ref in ((j, sp.jv(orders, x)), (jp, sp.jvp(orders, x)),
                         (h, sp.hankel1(orders, x)),
                         (hp, sp.h1vp(orders, x))):
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() < 1e-12, x


def test_wronskian_constant_across_orders():
    # J_n H1_n' - J_n' H1_n = 2i / (pi z) for every order
    for z in (0.05, 0.7, 5.0, 13.2, 13.8, 80.0, 300.0):
        j, jp, h, hp = _cyl_tables(16, z)
        w = j * hp - jp * h
        residual = np.abs(w * (np.pi * z / 2j) - 1.0)
        assert residual.max() <= 1e-10, z


def test_zero_argument_j_limit():
    np.testing.assert_array_equal(bs.bessel_j_seq(5, 0.0),
                                  [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        bs.bessel_j_seq(3, -1.0)
    with pytest.raises(ValueError):
        bs.bessel_j_seq(-1, 1.0)
    with pytest.raises(ValueError):
        _cyl_tables(3, 0.0)
    with pytest.raises(ValueError):
        _cyl_tables(3, -2.0)
    with pytest.raises(ValueError):
        _cyl_tables(3, 2.0 + 0.5j)


def test_high_order_y_overflow_is_loud():
    # Y_n(x) ~ -((n-1)!/pi) (2/x)^n blows past float range for tiny x;
    # the overflowed tail must not be finite, never a silently wrong number.
    y = _y_table(60, 1e-4)
    assert not np.isfinite(y[-1])
    ref = sp.yv(np.arange(41), 1e-4)
    np.testing.assert_allclose(y[:41], ref, rtol=1e-9)


def test_negative_order_hankel_reflection():
    # the assembly reflects negative orders as (-1)^n H1_|n|
    _, _, h, _ = _cyl_tables(5, 1.3)
    for n in (1, 2, 5):
        want = sp.hankel1(-n, 1.3)
        assert _parity_signs(np.array([-n]))[0] * h[n] == \
            pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind, n, x", [
    ("J", 0, 2.0), ("J", 5, 3.0), ("J", 1, 0.3),
    ("H1", 0, 1.1), ("H1", 3, 1.5), ("H1", 7, 4.2),
])
def test_derivatives_match_scipy(kind, n, x):
    _, jp, _, hp = _cyl_tables(n, x)
    if kind == "J":
        assert jp[n] == pytest.approx(sp.jvp(n, x), abs=1e-12)
    else:
        ref = sp.jvp(n, x) + 1j * sp.yvp(n, x)
        assert hp[n] == pytest.approx(ref, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=2, max_value=30))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence_residual(x, nmax):
    J = bs.bessel_j_seq(nmax, x)
    for n in range(1, nmax):
        res = J[n - 1] + J[n + 1] - (2.0 * n / x) * J[n]
        assert abs(res) <= 1e-10 * max(1.0, abs(J[n]))


@given(st.floats(min_value=0.0, max_value=300.0),
       st.integers(min_value=0, max_value=25))
@settings(max_examples=60, deadline=None)
def test_j_bounded_by_one(x, n):
    assert abs(bs.bessel_j_seq(n, x)[n]) <= 1.0 + 1e-12
