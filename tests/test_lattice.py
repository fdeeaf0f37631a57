"""Ewald-accelerated lattice sums: exact identities, oracle agreement, failures."""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubblebands import lattice as lat
from oracles import (
    brute_lattice_sum,
    central_series,
    empty_lattice_count,
    empty_lattice_margin,
)


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
# failure modes
# ---------------------------------------------------------------------------

def test_near_resonance_guard_marks_the_table(monkeypatch):
    # Only a wavenumber exactly on a resonance is marked: its spectral weight
    # is infinite, and the roundoff floor with it, so it is the finiteness
    # check that marks it.  Next to the line the sums are large but
    # accurate, and pass.
    on_line = lat.lattice_sum_table(2, np.pi, lat.X_POINT)
    assert on_line.converged is False
    assert np.all(np.isnan(on_line.values))
    for gap in (0.2, 0.01, 1e-6):
        table = lat.lattice_sum_table(2, np.pi - gap, lat.X_POINT)
        assert table.converged is True
        assert np.all(np.isfinite(table.values))
        # Re Q_0 = -1 holds up to the pole's own size
        assert table.value(0).real == pytest.approx(
            -1.0, abs=1e-9 * max(1.0, np.max(np.abs(table.values))))


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
    assert table.converged is False
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
    # number of Ei at large z (both routes round z the same way).
    ks = np.linspace(0.002, 12.0, 600)
    series = central_series(ks)
    closed = lat._central_term(ks)
    z = np.abs((0.5 * ks / lat._ETA) ** 2)
    rel = np.abs(closed - series) / np.abs(series)
    assert np.max(rel / np.maximum(1.0, z)) <= 1e-15


def test_wavenumber_domain_checks():
    # The sums are evaluated on the real axis only.
    for bad in (-1.0, 0.0, 1.0 + 2.0j, 1.0 + 1e-9j, np.array([1.0, 2.0 + 0j])):
        with pytest.raises(ValueError):
            lat.lattice_sum_table(2, bad, (0.5, 0.5))


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
    for k in (1.2, 1.3, 1.4):
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
# resonance counts by a sorted search
# ---------------------------------------------------------------------------

def test_nearest_margins_by_search_equal_empty_lattice_margin():
    # The sorted |p| of an engine's window once gave the distance to the
    # nearest resonance; they now give the number of resonances below k,
    # which equals the oracle's full enumeration, on the lines too.  Tables
    # at the same k, on the lines included, raise no warning.
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(-np.pi, np.pi, 2), rng.uniform(0.01, 6.0, 3))
             for _ in range(100)]
    for alpha in (lat.X_POINT, lat.M_POINT, (0.3, 2.1)):
        cases.append((alpha, lat.LatticeSumEngine(alpha, 2)._norms[:12]))
    cases.append((lat.GAMMA_POINT, np.array([1e-4, 0.01, 0.049, 0.05])))
    for alpha, ks in cases:
        counts = lat.empty_lattice_count(2, alpha, ks)
        assert counts.tolist() == [empty_lattice_count(k, alpha) for k in ks]
        lat.LatticeSumEngine(alpha, 2).table(ks)


@pytest.mark.parametrize("alpha", [
    lat.GAMMA_POINT, lat.X_POINT, lat.M_POINT, (np.pi / 3, 0.0), (1.0, 0.0),
    *np.random.default_rng(3).uniform(-np.pi, np.pi, (4, 2)),
])
def test_engine_margins_equal_the_full_empty_lattice_minimum_below_34(alpha):
    # Every reciprocal point outside the window (|nu|_inf >= 6) has
    # |p| >= 11 pi ~ 34.6, and the engine forms |p| as the oracle does, so
    # on 0 < k <= 34 its sorted |p| count the resonances below k as the full
    # empty lattice does, on the lines and next to them too.
    norms = lat.LatticeSumEngine(alpha, 1)._norms
    lines = norms[(norms > 0.0) & (norms <= 34.0)]
    ks = np.concatenate([np.linspace(0.025, 34.0, 1360), lines, lines + 0.003,
                         np.maximum(lines - 0.05, 0.01)])
    counts = lat.empty_lattice_count(1, alpha, ks)
    assert counts.tolist() == [empty_lattice_count(k, alpha) for k in ks]


# ---------------------------------------------------------------------------
# batched tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [6, 14])
@pytest.mark.parametrize("alpha", [lat.M_POINT, (np.pi, 0.7 * np.pi), (0.3, 2.1)])
def test_batched_table_matches_per_wavenumber_calls(order, alpha):
    # Real k across the band range plus k 0.004 below every empty-lattice
    # line under 5; at M, order 14, the low-k tables converge on the default
    # windows, their odd orders at the roundoff floor.  The cached engine's
    # table is the engine's own.
    engine = lat.LatticeSumEngine(alpha, order)
    near = [q - 0.004 for q in engine._norms if 0.1 < q < 5.0]
    ks = np.unique(np.concatenate([np.linspace(0.02, 0.5, 9),
                                   np.linspace(0.6, 5.0, 23), near]))
    batch = engine.table(ks)
    cached = lat.lattice_sum_table(order, ks, alpha)
    assert batch.converged.all()
    assert cached.values.tobytes() == batch.values.tobytes()
    for i, k in enumerate(ks):
        table = engine.table(k)
        assert table.converged is bool(batch.converged[i])
        scale = np.maximum(1.0, np.abs(table.values))
        assert np.max(np.abs(batch.values[i] - table.values) / scale) <= 1e-13
        assert batch.est_error[i] == pytest.approx(table.est_error, rel=1e-13)


# ---------------------------------------------------------------------------
# the tables a band count reads
# ---------------------------------------------------------------------------

FIT_ALPHAS = [lat.GAMMA_POINT, (np.pi / 30, 0.0), lat.X_POINT, lat.M_POINT, (0.3, 2.1)]


@pytest.mark.parametrize("order", [6, 14])
@pytest.mark.parametrize("alpha", FIT_ALPHAS)
def test_fitted_table_matches_the_engine_on_the_scan_grid(order, alpha):
    # A band search counts a batch of 24 uniform frequencies and then
    # batches of multisection points.  (It replaced a scan that read a
    # Chebyshev fit of these sums.)  Each wavenumber of such a batch gets
    # bitwise the table it gets alone, so a count does not depend on the
    # batch it is made in; every table of the range converges, at Gamma
    # down to the k -> 0 resonance too.
    grid = np.linspace(0.0, 5.2, 25)[1:]
    ks = np.concatenate([grid, grid[3] + (grid[4] - grid[3]) * np.arange(1, 9) / 9,
                         [1e-3, 0.0166]])
    batch = lat.lattice_sum_table(order, ks, alpha)
    assert batch.converged.all()
    for i, k in enumerate(ks):
        single = lat.lattice_sum_table(order, k, alpha)
        assert single.values.tobytes() == batch.values[i].tobytes()


def test_fit_is_refused_where_the_sums_fail_the_tail_test():
    # Past k ~ 12.1 the radial series misses the tail test, so the band
    # count reads NaN tables there and counts nothing (it replaced a fit
    # that was refused there); below it every table converges.
    from bubblebands.multipole import (BlochProblem, DiskCrystal, MaterialParams,
                                       batch_counts)

    unit = MaterialParams(rho=1.0, kappa=1.0, rho_b=1.0, kappa_b=1.0)
    ks = np.array([0.5, 5.0, 11.0, 12.0, 12.5, 13.0])
    table = lat.lattice_sum_table(6, ks, (0.3, 2.1))
    assert table.converged.tolist() == [True] * 4 + [False] * 2
    problem = BlochProblem((0.3, 2.1), unit, DiskCrystal(radius=0.25), 3)
    (count,) = batch_counts([(problem, ks)])
    assert np.all(count.bands[:4] >= 0)
    assert count.bands[4:].tolist() == [-1, -1]


def test_fit_bordering_every_reciprocal_point_is_refused():
    # At (1, 0) and k = 48, past every |p| of the window (once the case of a
    # fit that bordered them all), the tables fail the tail test, with NaN
    # values and no warning, and the resonance count stops at the window's
    # 121 points.
    engine = lat.LatticeSumEngine((1.0, 0.0), 6)
    assert engine._norms.max() < 48.0
    table = engine.table(np.array([44.0, 48.0]))
    assert not table.converged.any() and np.all(np.isnan(table.values))
    assert lat.empty_lattice_count(6, (1.0, 0.0), [48.0]).tolist() == [121]


def test_batched_table_validates_wavenumbers():
    engine = lat.LatticeSumEngine((0.5, 0.5), 2)
    with pytest.raises(ValueError):
        engine.table(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        engine.table(np.ones((2, 2)))
