"""Tests for disk capacities, resonance estimates and the dilute check."""

import numpy as np
import pytest

from bubblebands import capacity as cap
from bubblebands.lattice import M_POINT, X_POINT
from bubblebands.multipole import DiskCrystal, MaterialParams

import oracles

DILUTE_MAT = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)


# ---------------------------------------------------------------------------
# free-space disk capacity
# ---------------------------------------------------------------------------

def test_disk_capacity_frozen_values():
    assert cap.capacity_disk(np.exp(-1.0)) == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert cap.capacity_disk(0.05) == pytest.approx(2.0974, abs=1e-4)
    assert cap.capacity_disk(0.25) == pytest.approx(4.5324, abs=1e-4)


def test_disk_capacity_matches_boundary_quadrature():
    # The logarithmic-kernel single layer applied to the uniform density on
    # a circle of radius R equals R ln R on the boundary; inverting that
    # relation reproduces the closed-form capacity.  Exercises the singular
    # (log) quadrature weights end to end.
    rule = oracles.QuadratureRule.with_node_count(64)
    for radius in (0.05, 0.25, 0.45):
        smooth = np.sum(rule.weights) * radius * np.log(radius) / (2.0 * np.pi)
        log_part = np.sum(rule.log_weights) * radius / (4.0 * np.pi)
        layer_value = smooth + log_part
        # Equilibrium density normalised to unit total charge is 1/(2 pi R).
        capacity_from_quadrature = -2.0 * np.pi * radius / layer_value
        assert capacity_from_quadrature == pytest.approx(
            cap.capacity_disk(radius), rel=1e-12
        )


def test_disk_capacity_domain_errors():
    for bad in (0.0, -0.1, 1.0, 1.2, np.e):
        with pytest.raises(ValueError):
            cap.capacity_disk(bad)


# ---------------------------------------------------------------------------
# quasi-periodic capacity
# ---------------------------------------------------------------------------

def test_quasi_capacity_frozen_regression_and_determinism():
    first = cap.capacity_quasi(M_POINT, 0.05, 3)
    assert first.cap == pytest.approx(2.6418303663, abs=2e-5)
    assert first.residual <= 1e-10
    again = cap.capacity_quasi(M_POINT, 0.05, 3)
    assert again.cap == first.cap


def test_quasi_capacity_records_inputs():
    result = cap.capacity_quasi((1.3, -0.7), 0.05, 2)
    assert tuple(result.alpha) == (1.3, -0.7)
    assert result.radius == 0.05
    assert result.order_max == 2


def test_quasi_capacity_symmetric_under_momentum_reversal():
    plus = cap.capacity_quasi((1.3, -0.7), 0.05, 3)
    minus = cap.capacity_quasi((-1.3, 0.7), 0.05, 3)
    assert abs(plus.cap - minus.cap) < 1e-10


def test_quasi_capacity_positive_at_corner_points():
    for alpha in (X_POINT, M_POINT):
        for radius in (0.05, 0.25):
            result = cap.capacity_quasi(alpha, radius, 3)
            assert result.cap > 0.0
            assert result.residual <= 1e-10


def test_quasi_capacity_ratio_approaches_free_value_for_small_disks():
    ratios = [
        cap.capacity_quasi(M_POINT, r, 3).cap / cap.capacity_disk(r)
        for r in (0.05, 0.02, 0.01)
    ]
    deviations = [abs(r - 1.0) for r in ratios]
    assert all(r > 1.0 for r in ratios)
    assert deviations[0] > deviations[1] > deviations[2]


def test_quasi_capacity_raw_truncation_monotone_extrapolation_stable():
    # Capacities from the plane-wave quasi-static matrix at one cutoff
    # decrease monotonically with a clean 1/cutoff signature (they move at
    # the 1e-3 level).  A three-rung Neville ladder (c, 2c, 4c) in 1/cutoff
    # converges to the k -> 0 capacity, its error shrinking several-fold
    # under each doubling of the base c.
    raws = {}
    for cutoff in (30, 60, 120, 240, 480):
        matrix = oracles.quasistatic_matrix(np.asarray(M_POINT), 0.05, 3, cutoff)
        rhs = np.zeros(7, dtype=complex)
        rhs[3] = 1.0
        solution = np.linalg.solve(matrix, rhs)
        raws[cutoff] = (-2.0 * np.pi * 0.05 * solution[3]).real
    drops = [raws[c] - raws[2 * c] for c in (60, 120, 240)]
    assert all(d > 0.0 for d in drops)
    for i in range(2):
        assert 1.9 < drops[i] / drops[i + 1] < 2.1
    exact = cap.capacity_quasi(M_POINT, 0.05, 3).cap
    errors = []
    for base in (30, 60, 120):
        ladder = (base, 2 * base, 4 * base)
        errors.append(abs(
            oracles.neville_to_zero(ladder, [raws[c] for c in ladder]) - exact
        ))
    assert errors[0] > 5.0 * errors[1] > 25.0 * errors[2]
    assert errors[2] < 2e-6


def test_capacity_result_rejects_nonpositive():
    with pytest.raises(ValueError):
        cap.CapacityResult(
            cap=-1.0,
            alpha=np.array([1.0, 1.0]),
            radius=0.05,
            order_max=3,
            residual=0.0,
        )


# ---------------------------------------------------------------------------
# resonance frequencies
# ---------------------------------------------------------------------------

def test_minnaert_frequency_sphere_identity():
    a, contrast, speed = 0.35, 0.02, 3.0
    value = cap.minnaert_frequency(
        contrast, speed, 4.0 * np.pi * a, 4.0 * np.pi * a**3 / 3.0
    )
    assert value == pytest.approx(speed * np.sqrt(3.0 * contrast) / a, rel=1e-12)


def test_minnaert_frequency_frozen_lattice_values():
    dilute = cap.minnaert_frequency(
        2e-4, 1.0, cap.capacity_disk(0.05), np.pi * 0.05**2
    )
    assert dilute == pytest.approx(0.23110454801075, rel=1e-9)
    dense = cap.minnaert_frequency(
        1e-3, 1.0, cap.capacity_disk(0.25), np.pi * 0.25**2
    )
    assert dense == pytest.approx(0.15193130241732, rel=1e-9)


def test_minnaert_frequency_rejects_nonpositive():
    good = (2e-4, 1.0, 2.0974, np.pi * 0.0025)
    for i in range(4):
        bad = list(good)
        bad[i] = 0.0
        with pytest.raises(ValueError):
            cap.minnaert_frequency(*bad)


def test_approx_resonance_is_scaled_free_resonance():
    crystal = DiskCrystal(radius=0.05)
    value = cap.approx_resonance(M_POINT, DILUTE_MAT, crystal, 3)
    free = cap.minnaert_frequency(
        DILUTE_MAT.delta, DILUTE_MAT.v_b, cap.capacity_disk(0.05), crystal.area
    )
    ratio = cap.capacity_quasi(M_POINT, 0.05, 3).cap / cap.capacity_disk(0.05)
    assert value == pytest.approx(free * np.sqrt(ratio), rel=1e-12)


def test_approx_resonance_vanishes_toward_zone_centre():
    crystal = DiskCrystal(radius=0.05)
    at_corner = cap.approx_resonance(M_POINT, DILUTE_MAT, crystal, 3)
    near_centre = cap.approx_resonance((0.02, 0.0), DILUTE_MAT, crystal, 3)
    assert near_centre < 0.25 * at_corner


# ---------------------------------------------------------------------------
# dilute-regime consistency
# ---------------------------------------------------------------------------

def _deficit_coefficient(alpha, radius, order_max=3):
    """beta = (cap_alpha - cap_free) / cap_free**2, which the small-radius
    expansion predicts to be independent of the radius."""
    free = cap.capacity_disk(radius)
    return (cap.capacity_quasi(alpha, radius, order_max).cap - free) / free**2


def test_dilute_deficit_nearly_radius_independent_at_corner():
    betas = [_deficit_coefficient(M_POINT, r) for r in (0.05, 0.02, 0.01)]
    spread = (max(betas) - min(betas)) / abs(np.mean(betas))
    assert spread <= 0.20


def test_dilute_report_symmetric_under_momentum_reversal():
    for radius in (0.05, 0.02):
        forward = _deficit_coefficient((1.7, 0.6), radius)
        backward = _deficit_coefficient((-1.7, -0.6), radius)
        assert abs(forward - backward) < 1e-8


def test_dilute_correction_strengthens_toward_zone_centre():
    # Along the corner-to-centre line the signed deficit coefficient
    # decreases strictly (crossing zero on the way), and its magnitude grows
    # again once inside the deficit regime.
    ts = (1.0, 0.65, 0.5, 0.35)
    betas = [_deficit_coefficient((np.pi * t, np.pi * t), 0.02) for t in ts]
    assert all(betas[i] > betas[i + 1] for i in range(len(ts) - 1))
    assert abs(betas[3]) > abs(betas[2])
