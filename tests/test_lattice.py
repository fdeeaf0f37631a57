"""Ewald-accelerated lattice sums: exact identities, oracle agreement, guards."""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubblebands import lattice as lat
from oracles import brute_lattice_sum, central_series, empty_lattice_margin


# ---------------------------------------------------------------------------
# Bloch-vector plumbing and resonance margins
# ---------------------------------------------------------------------------

def test_bloch_vector_validation():
    np.testing.assert_allclose(lat.as_bloch((0.1, -0.2)), [0.1, -0.2])
    np.testing.assert_allclose(lat.as_bloch(lat.M_POINT), [np.pi, np.pi])
    with pytest.raises(ValueError):
        lat.as_bloch((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        lat.as_bloch((4.0, 0.0))
    with pytest.raises(ValueError):
        lat.as_bloch((np.nan, 0.0))


def test_margin_arithmetic_examples():
    # resonance sitting exactly on k
    assert empty_lattice_margin(np.pi, lat.X_POINT) == pytest.approx(0.0, abs=1e-12)
    # nearest reciprocal point at the corner Bloch vector is |(pi, pi)|
    assert empty_lattice_margin(0.1, lat.M_POINT) == pytest.approx(
        np.pi * np.sqrt(2.0) - 0.1, abs=1e-12
    )


def test_margin_picks_global_minimum_over_reciprocal_points():
    # several |q| candidates cluster near k = 6.3 for alpha = (0.01, 0);
    # the winner is |q| = 2 pi + 0.01, giving 6.3 - 6.2931853... = 0.0068147
    assert empty_lattice_margin(6.3, (0.01, 0.0)) == pytest.approx(
        6.3 - (2.0 * np.pi + 0.01), abs=1e-10
    )


# ---------------------------------------------------------------------------
# exact identities of the sums themselves
# ---------------------------------------------------------------------------

def test_static_real_part_identity():
    # Re Q_0 = -1 for every admissible (k, alpha): the real parts of the
    # outgoing cylinder waves interlock with the incident one via the
    # lattice-average of J_0, which vanishes off resonance.
    for k, al in ((1.9, (0.4, -1.1)), (0.6, (2.0, -0.5)), (2.8, (np.pi, 0.3))):
        table = lat.lattice_sum_table(2, k, al)
        assert table.value(0).real == pytest.approx(-1.0, abs=1e-10)


def test_odd_orders_vanish_at_corner_bloch_vectors():
    for alpha in (lat.X_POINT, np.array([0.0, np.pi]), lat.M_POINT):
        table = lat.lattice_sum_table(6, 1.3, alpha)
        for n in (-5, -3, -1, 1, 3, 5):
            assert abs(table.value(n)) <= table.est_error


def test_odd_orders_within_default_tolerance_at_corner():
    table = lat.lattice_sum_table(6, 0.9, lat.M_POINT)
    assert max(abs(table.value(n)) for n in (-5, -3, -1, 1, 3, 5)) <= 1e-8


def test_alpha_reflection_parity():
    alpha = np.array([0.7, -1.9])
    plus = lat.lattice_sum_table(4, 1.45, alpha)
    minus = lat.lattice_sum_table(4, 1.45, -alpha)
    for n in range(-4, 5):
        assert plus.value(n) * (-1.0) ** n == pytest.approx(
            minus.value(n), abs=2e-8
        )


@settings(max_examples=60, deadline=None)
@given(
    ax=st.floats(-np.pi, np.pi),
    ay=st.floats(-np.pi, np.pi),
    k=st.floats(0.25, 3.0),
)
def test_parity_and_static_identity_property(ax, ay, k):
    alpha = np.array([ax, ay])
    assume(empty_lattice_margin(k, alpha) > 0.2)
    plus = lat.lattice_sum_table(3, k, alpha)
    minus = lat.lattice_sum_table(3, k, -alpha)
    assert plus.value(0).real == pytest.approx(-1.0, abs=1e-9)
    for n in range(-3, 4):
        assert plus.value(n) * (-1.0) ** n == pytest.approx(
            minus.value(n), abs=2e-8
        )


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle
# ---------------------------------------------------------------------------

def test_matches_brute_oracle_at_reference_point():
    value = lat.lattice_sum_table(0, 1.0, (np.pi, 0.0)).value(0)
    brute = brute_lattice_sum(0, 1.0, (np.pi, 0.0), shell_count=400)
    assert abs(value - brute.value) < 1e-6


def test_table_matches_brute_oracle_entrywise():
    alpha = (np.pi / 2, np.pi / 3)
    table = lat.lattice_sum_table(4, 1.0, alpha)
    for n in range(-4, 5):
        brute = brute_lattice_sum(n, 1.0, alpha)
        err = abs(table.value(n) - brute.value)
        assert err < 1e-6
        assert err <= brute.dispersion + table.est_error


# ---------------------------------------------------------------------------
# table consistency and caching
# ---------------------------------------------------------------------------

def test_table_matches_elementwise_calls():
    # each order read from the order-4 table equals the same order read from
    # the smallest table holding it
    table = lat.lattice_sum_table(4, 1.7, (0.3, 2.1))
    for n in range(-4, 5):
        single = lat.lattice_sum_table(abs(n), 1.7, (0.3, 2.1)).value(n)
        assert abs(table.value(n) - single) <= 1e-12


def test_table_order_bounds_and_repeatability():
    table = lat.lattice_sum_table(3, 2.2, (1.0, 0.5))
    with pytest.raises(IndexError):
        table.value(4)
    again = lat.lattice_sum_table(3, 2.2, (1.0, 0.5))
    np.testing.assert_array_equal(table.values, again.values)


def test_default_tolerance_has_wide_headroom():
    table = lat.lattice_sum_table(4, 2.7, (0.9, -2.0))
    assert table.est_error <= 1e-10


# ---------------------------------------------------------------------------
# guards and failure modes
# ---------------------------------------------------------------------------

def _assert_guard_rejected(table):
    assert table.in_guard is True
    assert np.all(np.isnan(table.values))


def test_near_resonance_guard_marks_the_table(monkeypatch):
    _assert_guard_rejected(lat.lattice_sum_table(2, np.pi - 0.01, lat.X_POINT))
    # wider guard catches points the production guard accepts
    with monkeypatch.context() as patch:
        patch.setattr(lat, "_GUARD", 0.5)
        _assert_guard_rejected(
            lat.lattice_sum_table(2, np.pi - 0.2, lat.X_POINT)
        )
    # same wavenumber passes at the production guard
    table = lat.lattice_sum_table(2, np.pi - 0.2, lat.X_POINT)
    assert table.in_guard is False and table.converged is True
    assert np.all(np.isfinite(table.values))


def _counted_engine_tables(monkeypatch) -> list:
    """Patch ``LatticeSumEngine.table`` to record the engine of each call."""
    calls = []
    real = lat.LatticeSumEngine.table

    def counted(self, k):
        calls.append(self)
        return real(self, k)

    monkeypatch.setattr(lat.LatticeSumEngine, "table", counted)
    return calls


def test_wavenumber_past_the_radial_series_is_unconverged(monkeypatch):
    # The radial series of the spatial part stops at _J_CAP terms; at k = 13
    # its tail exceeds the tolerance, and no window can shrink it.
    calls = _counted_engine_tables(monkeypatch)
    table = lat.lattice_sum_table(2, 13.0, (0.6, 0.6))
    assert len(calls) == 1
    assert table.converged is False and table.in_guard is False
    assert np.all(np.isnan(table.values))


def test_one_window_converges_wherever_the_sums_can(monkeypatch):
    # At X and M the orders that vanish by symmetry are roundoff of huge
    # terms at small k; their tails sit at the roundoff floor, which the
    # tail test accepts, so one call on one engine converges in every row.
    calls = _counted_engine_tables(monkeypatch)
    for alpha in (lat.X_POINT, lat.M_POINT):
        calls.clear()
        table = lat.lattice_sum_table(14, np.linspace(0.002, 0.8, 400), alpha)
        assert table.converged.all() and len(calls) == 1
    monkeypatch.undo()
    # Every real k up to 12 converges on the default window; at k = 13 the
    # radial series misses, on a window widened by 3 as well.
    ks = np.linspace(0.002, 12.0, 1201)[1:]
    for alpha in [(np.pi / 6, 0.0), lat.X_POINT, lat.M_POINT,
                  (np.pi, np.pi / 2), (0.3, 2.1)]:
        for order in (6, 14):
            assert lat.LatticeSumEngine(alpha, order).table(ks).converged.all()
            wide = lat.LatticeSumEngine(alpha, order, window=lat._WINDOW + 3)
            assert wide.table(13.0).converged is False


def test_central_term_matches_its_series():
    # Ei(z) = log z + gamma + sum_{j>=1} z^j / (j j!): the closed form
    # reproduces the series to 1e-15 relative per unit of |z|, the condition
    # number of Ei at large z (both routes round z the same way), at real k
    # and at complex k up to |Im k| = 1, also next to Ei's branch cut.
    rng = np.random.default_rng(11)
    ks = np.concatenate([
        np.linspace(0.002, 12.0, 600),
        rng.uniform(0.002, 12.0, 600) + 1j * rng.uniform(-1.0, 1.0, 600),
        0.01 + 1j * np.linspace(-0.99, 0.99, 23),
        np.linspace(0.002, 0.3, 20) + 0.99j,
        np.linspace(0.002, 0.3, 20) - 0.99j,
    ]).astype(complex)
    series = central_series(ks)
    closed = lat._central_term(ks)
    z = np.abs((0.5 * ks / lat._ETA) ** 2)
    rel = np.abs(closed - series) / np.abs(series)
    assert np.max(rel / np.maximum(1.0, z)) <= 1e-15


def test_wavenumber_domain_checks():
    with pytest.raises(ValueError):
        lat.lattice_sum_table(2, -1.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        lat.lattice_sum_table(2, 1.0 + 2.0j, (0.5, 0.5))


def test_slightly_complex_wavenumber_is_continuous():
    base = lat.lattice_sum_table(2, 1.3, (0.8, -0.4))
    shifted = lat.lattice_sum_table(2, 1.3 + 1e-7j, (0.8, -0.4))
    for n in range(-2, 3):
        assert abs(base.value(n) - shifted.value(n)) < 1e-4
    assert shifted.values[2].imag != 0.0  # genuinely complex evaluation


# ---------------------------------------------------------------------------
# k -> 0 limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha", [lat.M_POINT, (np.pi / 8, 0.0), (1.3, -0.7), (0.01, 0.0)]
)
def test_zero_k_limits_are_window_independent(alpha):
    # The default windows truncate the limits far below roundoff: windows
    # widened by 3 move each L_n by less than 1e-13 of its own size or of
    # its nearest-shell size (|n| - 1)!, whichever is larger (the odd
    # orders at the corner points are exact zeros).
    order = 24
    default = lat.LatticeSumEngine(alpha, order).zero_k_limits()
    widened = lat.LatticeSumEngine(
        alpha, order, window=lat._WINDOW + 3
    ).zero_k_limits()
    orders = np.abs(np.arange(-order, order + 1))
    scale = np.maximum(np.abs(widened), sp.factorial(np.maximum(orders - 1, 0)))
    assert np.max(np.abs(default - widened) / scale) < 1e-13


def test_zero_k_limits_match_small_wavenumber_tables():
    # L_n is the k -> 0 limit of (k/2)^|n| Q_n, and of Q_0 + (2i/pi) log(k/2)
    # at n = 0; the finite-k values approach it like k^2.  Re L_0 = -1 is
    # the static identity Re Q_0 = -1.
    alpha, order, k = (0.9, -2.0), 6, 1e-4
    limits = lat.lattice_sum_limits(order, alpha)
    table = lat.lattice_sum_table(order, k, alpha)
    orders = np.abs(np.arange(-order, order + 1))
    scaled = (k / 2.0) ** orders * table.values
    scaled[order] += (2j / np.pi) * np.log(k / 2.0)
    np.testing.assert_allclose(scaled, limits, rtol=1e-6, atol=1e-6)
    assert limits[order].real == pytest.approx(-1.0, abs=1e-12)


def test_zero_k_limits_need_a_nonzero_bloch_vector():
    with pytest.raises(ValueError):
        lat.lattice_sum_limits(4, lat.GAMMA_POINT)


# ---------------------------------------------------------------------------
# engine cache
# ---------------------------------------------------------------------------

def test_engine_cache_stays_bounded():
    for ax in np.linspace(0.1, 3.0, 50):
        lat.lattice_sum_table(2, 0.2, (ax, 0.4))
    assert lat._engine_for.cache_info().currsize <= lat._ENGINE_CACHE_SIZE


def test_engine_cache_reuses_within_a_point():
    alpha = (0.77, -1.9)
    lat.lattice_sum_table(6, 1.1, alpha)
    before = lat._engine_for.cache_info()
    for k in (1.2, 1.3, 1.4 + 1e-3j):
        lat.lattice_sum_table(6, k, alpha)
    after = lat._engine_for.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 3


def test_revisited_bloch_vector_matches_a_fresh_engine():
    alpha = (1.25, 0.35)
    lat.lattice_sum_table(4, 0.3, alpha)
    for ax in np.linspace(0.1, 3.0, 20):   # evict the engine
        lat.lattice_sum_table(4, 0.3, (ax, -0.6))
    revisited = lat.lattice_sum_table(4, 0.3, alpha)
    fresh = lat.LatticeSumEngine(alpha, 4).table(0.3)
    assert revisited.values.tobytes() == fresh.values.tobytes()
    assert revisited.est_error == fresh.est_error


# ---------------------------------------------------------------------------
# resonance margins by a sorted search
# ---------------------------------------------------------------------------

def test_nearest_margins_by_search_equal_empty_lattice_margin():
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(-np.pi, np.pi, 2), rng.uniform(0.0, 6.0, 3))
             for _ in range(100)]
    # k on an empty-lattice line, and in the zone near 0 at the zone centre
    for alpha in (lat.X_POINT, lat.M_POINT, (0.3, 2.1)):
        cases.append((alpha, lat.resonance_norms(alpha, 6.0)[:12]))
    cases.append((lat.GAMMA_POINT, np.array([0.0, 1e-4, 0.01, 0.049, 0.05])))
    for alpha, ks in cases:
        margins = lat.nearest_margins(lat.resonance_norms(alpha, 6.0), ks)
        assert margins.tolist() == [empty_lattice_margin(k, alpha) for k in ks]


# ---------------------------------------------------------------------------
# batched tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [6, 14])
@pytest.mark.parametrize("alpha", [lat.M_POINT, (np.pi, 0.7 * np.pi), (0.3, 2.1)])
def test_batched_table_matches_per_wavenumber_calls(order, alpha):
    # Real k across the scan range plus k 0.004 inside the guard of every
    # empty-lattice line below 5; at M, order 14, the low-k tables converge
    # on the default windows, their odd orders at the roundoff floor.  The
    # cached engine's table is the engine's own.  A batch of complex k (off
    # the real axis, as Muller's iterates are) is compared with single
    # complex calls.
    guard = [q - 0.004 for q in lat.resonance_norms(alpha, 5.0) if 0.1 < q < 5.0]
    ks = np.unique(np.concatenate([np.linspace(0.02, 0.5, 9),
                                   np.linspace(0.6, 5.0, 23), guard]))
    engine = lat.LatticeSumEngine(alpha, order)
    default = engine.table(ks)
    cached = lat.lattice_sum_table(order, ks, alpha)
    assert default.in_guard.sum() >= 1 and default.converged.all()
    assert cached.values.tobytes() == default.values.tobytes()
    complex_ks = np.array([0.3 + 0.05j, 1.3 + 0.2j, 2.2 - 0.1j, 4.1 + 0.3j])
    for points, batch, single in (
        (ks, default, engine.table),
        (complex_ks, lat.lattice_sum_table(order, complex_ks, alpha),
         lambda k: lat.lattice_sum_table(order, k, alpha)),
    ):
        for i, k in enumerate(points):
            table = single(k)
            assert table.in_guard is bool(batch.in_guard[i])
            assert table.converged is bool(batch.converged[i])
            if table.in_guard or not table.converged:
                assert np.all(np.isnan(table.values))
                assert np.all(np.isnan(batch.values[i]))
                continue
            scale = np.maximum(1.0, np.abs(table.values))
            assert np.max(np.abs(batch.values[i] - table.values) / scale) <= 1e-13
            assert batch.est_error[i] == pytest.approx(table.est_error, rel=1e-13)


# ---------------------------------------------------------------------------
# the scan's Chebyshev fit of the pole-free sums
# ---------------------------------------------------------------------------

FIT_ALPHAS = [lat.GAMMA_POINT, (np.pi / 30, 0.0), lat.X_POINT, lat.M_POINT, (0.3, 2.1)]


def _scan_wavenumbers(alpha, omega_max):
    """The band scan's grid of ``[0, omega_max]`` at unit host speed, k = omega."""
    from bubblebands import bands
    from bubblebands.multipole import BlochProblem, DiskCrystal, MaterialParams

    unit = MaterialParams(rho=1.0, kappa=1.0, rho_b=1.0, kappa_b=1.0)
    problem = BlochProblem(alpha, unit, DiskCrystal(radius=0.25), 3)
    return bands._scan_grid(problem, (0.0, omega_max))[0]


@pytest.mark.parametrize("order", [6, 14])
@pytest.mark.parametrize("alpha", FIT_ALPHAS)
def test_fitted_table_matches_the_engine_on_the_scan_grid(order, alpha):
    # The fit of the grid's range, as the scan builds it, against direct
    # tables at every grid wavenumber: the same guard rows, NaN there, and
    # every order within the direct table's error elsewhere.  That error
    # is est_error plus the roundoff of the radial powers (k/2)^(2j-s),
    # which the table forms as exp((2j - s) log(k/2)) and its floor leaves
    # out: a relative error of about s |log(k/2)| eps, 64 eps at order 14
    # and k = 0.02 against a floor of 32 eps (the fit itself is smooth).
    ks = _scan_wavenumbers(alpha, 5.2)
    fit = lat.lattice_sum_fit(order, alpha, ks[0], ks[-1])
    assert fit is not None
    fitted = fit.table(ks)
    direct = lat.lattice_sum_table(order, ks, alpha)
    assert np.array_equal(fitted.in_guard, direct.in_guard)
    assert np.array_equal(np.isnan(fitted.values), np.isnan(direct.values))
    assert direct.converged.all()
    out = ~direct.in_guard
    miss = np.max(np.abs(fitted.values[out] - direct.values[out]), axis=1)
    powers = (np.finfo(float).eps * order * np.abs(np.log(0.5 * ks[out]))
              * np.max(np.abs(direct.values[out]), axis=1))
    assert np.all(miss <= direct.est_error[out] + powers)


def test_fit_is_refused_where_the_sums_fail_the_tail_test():
    # Past k ~ 12.1 the radial series misses the tail test, so a range that
    # reaches k = 13 gets no fit; a real range below it does.  The fit is
    # never evaluated off the real axis.
    assert lat.lattice_sum_fit(6, (0.3, 2.1), 11.0, 13.0) is None
    fit = lat.lattice_sum_fit(6, (0.3, 2.1), 0.5, 5.0)
    assert fit is not None
    with pytest.raises(ValueError):
        fit.table(np.array([1.0 + 0.1j]))


def test_batched_table_validates_wavenumbers():
    engine = lat.LatticeSumEngine((0.5, 0.5), 2)
    with pytest.raises(ValueError):
        engine.table(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        engine.table(np.ones((2, 2)))
