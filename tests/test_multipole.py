"""Tests for the single-layer multipole blocks and the characteristic matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblebands import multipole as mp
from bubblebands.lattice import (
    M_POINT,
    LatticeSumTable,
    lattice_sum_limits,
    lattice_sum_table,
)

import oracles


def zero_sum_table(k: float, alpha, order_max: int) -> LatticeSumTable:
    """Table of identically zero lattice sums: the single-bubble limit."""
    return LatticeSumTable(
        k=complex(k),
        alpha=np.asarray(alpha, dtype=float),
        order_max=order_max,
        values=np.zeros(2 * order_max + 1, dtype=complex),
        est_error=0.0,
    )


# ---------------------------------------------------------------------------
# parameter value objects
# ---------------------------------------------------------------------------

def test_material_params_derived_quantities():
    mat = mp.MaterialParams(rho=2.0, kappa=8.0, rho_b=0.5, kappa_b=2.0)
    assert mat.delta == pytest.approx(0.25, rel=1e-15)
    assert mat.v == pytest.approx(2.0, rel=1e-15)
    assert mat.v_b == pytest.approx(2.0, rel=1e-15)


def test_material_params_rejects_nonpositive():
    good = dict(rho=1.0, kappa=1.0, rho_b=1.0, kappa_b=1.0)
    for name in good:
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                mp.MaterialParams(**{**good, name: bad})


def test_disk_crystal_geometry():
    crystal = mp.DiskCrystal(radius=0.25)
    assert crystal.area == pytest.approx(np.pi * 0.0625, rel=1e-15)
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(ValueError):
            mp.DiskCrystal(radius=bad)


# ---------------------------------------------------------------------------
# free-space diagonal blocks
# ---------------------------------------------------------------------------

def test_inner_diagonal_frozen_value():
    s, _ = oracles.inner_block_diag(0, 1.0, 1.0)
    assert s == pytest.approx(0.106082198153078 - 0.919744445473464j, abs=1e-12)


def test_inner_diagonal_matches_boundary_quadrature():
    rule = oracles.QuadratureRule.with_node_count(256)
    for n, k, radius in [(0, 1.0, 1.0), (2, 1.3, 0.3), (5, 0.7, 0.25)]:
        s, _ = oracles.inner_block_diag(n, k, radius)
        assert abs(oracles.nystrom_free_space(n, k, radius, rule) - s) < 1e-6


def test_inner_diagonal_order_reflection():
    for n, k, radius in [(3, 1.1, 0.3), (4, 0.6, 0.45), (1, 2.5, 0.1)]:
        assert oracles.inner_block_diag(n, k, radius) == oracles.inner_block_diag(-n, k, radius)


def test_inner_diagonal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracles.inner_block_diag(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        oracles.inner_block_diag(0, 0.0, 0.3)
    with pytest.raises(ValueError):
        oracles.inner_block_diag(0, -2.0, 0.3)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    k=st.floats(min_value=0.1, max_value=20.0),
    radius=st.floats(min_value=0.02, max_value=0.49),
)
def test_normal_derivative_jump_is_one(n, k, radius):
    # Exterior minus interior one-sided derivative of the single layer is
    # exactly the density: the defining jump relation.
    alpha = (0.4, 0.7)
    table = zero_sum_table(k, alpha, 0)
    _, ds_out = oracles.outer_block_entries(n, n, k, alpha, radius, table)
    _, ds_in = oracles.inner_block_diag(n, k, radius)
    assert abs((ds_out - ds_in) - 1.0) < 1e-10


def test_jump_identity_tight_at_moderate_arguments():
    for n in range(9):
        table = zero_sum_table(1.0, (0.4, 0.7), 0)
        _, ds_out = oracles.outer_block_entries(n, n, 1.0, (0.4, 0.7), 0.3, table)
        _, ds_in = oracles.inner_block_diag(n, 1.0, 0.3)
        assert abs((ds_out - ds_in) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# quasi-periodic blocks
# ---------------------------------------------------------------------------

def test_free_space_reduction_with_zero_lattice_sums():
    table = zero_sum_table(1.3, (0.4, 0.7), 8)
    for n in range(-4, 5):
        s, _ = oracles.outer_block_entries(n, n, 1.3, (0.4, 0.7), 0.3, table)
        inner_s, _ = oracles.inner_block_diag(n, 1.3, 0.3)
        assert s == inner_s
    for m, n in [(0, 1), (2, -2), (-3, 4)]:
        s, ds = oracles.outer_block_entries(m, n, 1.3, (0.4, 0.7), 0.3, table)
        assert s == 0.0 and ds == 0.0


def test_odd_transfer_couplings_vanish_at_corner_point():
    # At alpha = (pi, pi) the odd-order lattice sums vanish, so every
    # off-diagonal entry with odd n - m loses its lattice contribution.
    table = lattice_sum_table(6, 0.9, M_POINT)
    for m, n in [(0, 1), (1, 2), (-2, 1), (3, 0), (-1, 2)]:
        s, ds = oracles.outer_block_entries(m, n, 0.9, M_POINT, 0.25, table)
        assert abs(s) < 1e-8
        assert abs(ds) < 1e-8


def test_lattice_order_and_table_mismatch_errors():
    table = lattice_sum_table(2, 1.0, (0.5, 0.5))
    with pytest.raises(mp.MissingLatticeOrderError):
        oracles.outer_block_entries(-2, 1, 1.0, (0.5, 0.5), 0.1, table)
    with pytest.raises(ValueError):
        oracles.outer_block_entries(0, 1, 1.1, (0.5, 0.5), 0.1, table)
    with pytest.raises(ValueError):
        oracles.outer_block_entries(0, 1, 1.0, (0.5, 0.6), 0.1, table)


# ---------------------------------------------------------------------------
# assembled characteristic matrix
# ---------------------------------------------------------------------------

GENERIC_MAT = mp.MaterialParams(rho=3.0, kappa=2.0, rho_b=0.6, kappa_b=1.1)


def generic_problem(truncation, alpha=(0.9, -0.4), material=GENERIC_MAT):
    return mp.BlochProblem(alpha, material, mp.DiskCrystal(radius=0.3), truncation)


def test_assembled_matrix_shape_and_metadata():
    cm, scale = mp.assemble_characteristic_matrix(1.1, generic_problem(3))
    assert cm.shape == (7, 7)
    assert scale.shape == (7,)
    stack, scales = generic_problem(3).entries(np.array([0.4, 1.1, 2.3]))
    assert stack.shape == (3, 7, 7)
    assert scales.shape == (3, 7)


def test_bloch_problem_rejects_bad_alpha_and_truncation():
    crystal = mp.DiskCrystal(radius=0.3)
    with pytest.raises(ValueError):
        mp.BlochProblem((0.9, -0.4), GENERIC_MAT, crystal, -1)
    for bad_alpha in ((0.9,), (0.9, -0.4, 0.1), (4.0, 0.0), (np.nan, 0.0)):
        with pytest.raises(ValueError):
            mp.BlochProblem(bad_alpha, GENERIC_MAT, crystal, 2)


def test_bloch_problem_alpha_is_a_read_only_copy():
    alpha = np.array([0.9, -0.4])
    problem = generic_problem(2, alpha)
    alpha[0] = 0.1
    assert np.array_equal(problem.alpha, [0.9, -0.4])
    assert problem.alpha.dtype == float
    with pytest.raises(ValueError):
        problem.alpha[1] = 0.2


def _entrywise_blocks(omega, alpha, radius, trunc, material):
    """Inner diagonals ``a, b`` and blocks ``S, dS`` from the per-entry oracles."""
    k = omega / material.v
    k_b = omega / material.v_b
    table = lattice_sum_table(2 * trunc, k, alpha)
    orders = range(-trunc, trunc + 1)
    a, b = np.array([oracles.inner_block_diag(m, k_b, radius) for m in orders]).T
    blocks = np.array([[oracles.outer_block_entries(m, n, k, alpha, radius, table)
                        for n in orders] for m in orders])
    return a, b, blocks[..., 0], blocks[..., 1]


def test_assembly_matches_entrywise_construction():
    # Row m of T is b_m S[m, :] - delta a_m dS[m, :]; its scale is
    # hypot(|a_m| f_m, |b_m| p_m) with the max-norms p_m, f_m of the block
    # system's pressure and flux rows.
    omega, alpha, radius, trunc = 1.1, (0.9, -0.4), 0.3, 2
    cm, scale = mp.assemble_characteristic_matrix(omega, generic_problem(trunc, alpha))
    a, b, s, ds = _entrywise_blocks(omega, alpha, radius, trunc, GENERIC_MAT)
    delta = GENERIC_MAT.delta
    np.testing.assert_allclose(
        cm, b[:, None] * s - delta * a[:, None] * ds, rtol=1e-12, atol=1e-14
    )
    pressure = np.maximum(np.abs(a), np.abs(s).max(axis=1))
    flux = np.maximum(np.abs(b), delta * np.abs(ds).max(axis=1))
    np.testing.assert_allclose(
        scale, np.hypot(np.abs(a) * flux, np.abs(b) * pressure), rtol=1e-12
    )


def test_density_contrast_scales_flux_lattice_block_only():
    # Doubling both bubble density and bubble stiffness keeps the interior
    # sound speed (hence the wavenumbers) fixed and doubles the density
    # contrast, so T = b S - delta a dS changes by exactly -delta a dS.
    mat1 = mp.MaterialParams(rho=3.0, kappa=2.0, rho_b=0.6, kappa_b=1.1)
    mat2 = mp.MaterialParams(rho=3.0, kappa=2.0, rho_b=1.2, kappa_b=2.2)
    cm1, _ = mp.assemble_characteristic_matrix(1.1, generic_problem(2, material=mat1))
    cm2, _ = mp.assemble_characteristic_matrix(1.1, generic_problem(2, material=mat2))
    a, _, _, ds = _entrywise_blocks(1.1, (0.9, -0.4), 0.3, 2, mat1)
    np.testing.assert_allclose(
        cm2 - cm1, -mat1.delta * a[:, None] * ds,
        rtol=1e-12, atol=1e-14 * np.max(np.abs(cm2)),
    )


SLOW_BUBBLE_MAT = mp.MaterialParams(rho=1.0, kappa=1.0, rho_b=1.0, kappa_b=0.01)


@pytest.mark.parametrize("material, alpha, omega, truncation", [
    (GENERIC_MAT, (0.9, -0.4), 1.1, 0),
    (GENERIC_MAT, (0.9, -0.4), 1.1, 2),
    (GENERIC_MAT, (0.9, -0.4), 1.1 + 0.05j, 3),
    (GENERIC_MAT, M_POINT, 0.7 - 0.02j, 7),
    (GENERIC_MAT, (0.9, -0.4), 4.0, 7),
    # k_b R = 3.0, past the first zero 2.405 of J_0: R divides by no J_n.
    (SLOW_BUBBLE_MAT, (0.9, -0.4), 1.0, 3),
    (SLOW_BUBBLE_MAT, (0.9, -0.4), 1.0 + 0.01j, 2),
])
def test_determinant_equals_that_of_the_block_system(material, alpha, omega,
                                                     truncation):
    problem = generic_problem(truncation, alpha, material)
    cm, _ = mp.assemble_characteristic_matrix(omega, problem)
    block = oracles.block_characteristic_matrix(omega, problem)
    assert block.shape == (2 * cm.shape[0],) * 2
    sign, log_mag = np.linalg.slogdet(cm)
    block_sign, block_log_mag = np.linalg.slogdet(block)
    assert abs(log_mag - block_log_mag) < 1e-10 * max(1.0, abs(block_log_mag))
    assert abs(sign - block_sign) < 1e-10


def test_high_contrast_regression_smallest_singular_value():
    # High-contrast bubble crystal at a subwavelength frequency: the block
    # system is near-singular but not singular (value pinned as a
    # regression), and T, which has its determinant, is nonsingular too.
    mat = mp.MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)
    problem = mp.BlochProblem((np.pi, np.pi), mat, mp.DiskCrystal(radius=0.05), 7)
    block = oracles.block_characteristic_matrix(0.2, problem)
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    assert smallest == pytest.approx(7.303292999938e-05, rel=1e-6)
    cm, _ = mp.assemble_characteristic_matrix(0.2, problem)
    sign, log_mag = np.linalg.slogdet(cm)
    block_sign, block_log_mag = np.linalg.slogdet(block)
    assert abs(log_mag - block_log_mag) < 1e-10 * abs(block_log_mag)
    assert abs(sign - block_sign) < 1e-10
    smallest = np.linalg.svd(cm, compute_uv=False)[-1]
    assert np.isfinite(smallest) and smallest > 0.0


def test_momentum_reversal_leaves_singular_spectrum_invariant():
    cm_pos, scale_pos = mp.assemble_characteristic_matrix(1.1, generic_problem(3))
    cm_neg, scale_neg = mp.assemble_characteristic_matrix(
        1.1, generic_problem(3, (-0.9, 0.4)))
    sv_pos = np.linalg.svd(cm_pos, compute_uv=False)
    sv_neg = np.linalg.svd(cm_neg, compute_uv=False)
    assert np.max(np.abs(sv_pos - sv_neg)) < 1e-8 * sv_pos[0]
    np.testing.assert_allclose(np.sort(scale_neg), np.sort(scale_pos), rtol=1e-8)


def test_assembly_continuous_into_complex_frequency():
    base, base_scale = mp.assemble_characteristic_matrix(1.1, generic_problem(2))
    shifted, shifted_scale = mp.assemble_characteristic_matrix(
        1.1 + 1e-8j, generic_problem(2))
    assert np.max(np.abs(shifted - base)) < 1e-6 * np.max(np.abs(base))
    assert np.any(shifted.imag != base.imag)
    assert np.max(np.abs(shifted_scale - base_scale)) < 1e-6 * np.max(base_scale)


def test_assemble_rejects_bad_frequency():
    for bad_omega in (0.0, -1.0, -0.5 + 0.1j):
        with pytest.raises(ValueError):
            mp.assemble_characteristic_matrix(bad_omega, generic_problem(2))


# ---------------------------------------------------------------------------
# quasi-static matrix
# ---------------------------------------------------------------------------

def test_quasistatic_matrix_hermitian_negative_definite():
    m = oracles.quasistatic_matrix(np.array([0.9, -2.0]), 0.05, 3, 40)
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    eigenvalues = np.linalg.eigvalsh(m)
    assert np.all(eigenvalues < 0.0)


def test_quasistatic_entry_truncation_decays_like_inverse_cutoff():
    # Raw entries carry a 1/cutoff truncation tail; successive doubling
    # differences shrink by a factor ~2, and the two-point extrapolants of
    # adjacent ladder rungs agree far beyond the raw values.
    vals = {
        c: oracles.quasistatic_matrix(np.array([np.pi, np.pi]), 0.05, 0, c)[0, 0]
        for c in (60, 120, 240)
    }
    d1 = abs(vals[60] - vals[120])
    d2 = abs(vals[120] - vals[240])
    assert 1.9 < d1 / d2 < 2.15
    drift = abs((2 * vals[120] - vals[60]) - (2 * vals[240] - vals[120]))
    assert drift < 1e-5
    assert drift < 0.05 * d2


def test_quasistatic_matrix_validation():
    with pytest.raises(mp.ZeroAlphaError):
        oracles.quasistatic_matrix(np.array([0.0, 0.0]), 0.05, 2, 40)
    with pytest.raises(ValueError):
        oracles.quasistatic_matrix(np.array([0.5, 0.5]), 0.05, 2, 19)
    with pytest.raises(ValueError):
        oracles.quasistatic_matrix(np.array([0.5, 0.5]), 0.05, -1, 40)
    with pytest.raises(ValueError):
        oracles.quasistatic_matrix(np.array([0.5, 0.5]), -0.05, 2, 40)


# ---------------------------------------------------------------------------
# k -> 0 limit of the quasi-periodic layer
# ---------------------------------------------------------------------------

LIMIT_CASES = [((np.pi / 8, 0.0), 0.05, 3), (tuple(M_POINT), 0.05, 3),
               ((1.3, -0.7), 0.25, 5)]


@pytest.mark.parametrize("alpha, radius, order", LIMIT_CASES)
def test_outer_block_limit_matches_small_wavenumber_blocks(alpha, radius, order):
    # The finite-k block approaches the limit like k^2: each decade of k
    # shrinks the difference about 100-fold.  Unit materials make omega = k.
    unit = mp.MaterialParams(1.0, 1.0, 1.0, 1.0)
    s0 = mp.outer_block_limit(lattice_sum_limits(2 * order, alpha), radius, order)
    gaps = []
    for k in (1e-3, 1e-4):
        table = lattice_sum_table(2 * order, k, alpha)
        factors = mp.cylinder_factors(k, unit, radius, order)
        s_k, _ = mp._outer_block_matrices(k, radius, table, order, factors)
        gaps.append(np.max(np.abs(s_k - s0)) / np.max(np.abs(s0)))
    assert gaps[0] < 1e-5
    assert gaps[1] < gaps[0] / 50.0


@pytest.mark.parametrize("alpha, radius, order", LIMIT_CASES)
def test_outer_block_limit_hermitian_negative_definite(alpha, radius, order):
    s0 = mp.outer_block_limit(lattice_sum_limits(2 * order, alpha), radius, order)
    assert np.max(np.abs(s0 - s0.conj().T)) < 1e-14 * np.max(np.abs(s0))
    assert np.all(np.linalg.eigvalsh(s0) < 0.0)


@pytest.mark.parametrize("alpha, radius, order", [
    ((np.pi, np.pi), 0.05, 3), ((1.1, 0.4), 0.1, 2), ((np.pi / 8, 0.0), 0.05, 3),
])
def test_outer_block_limit_matches_plane_wave_ladder(alpha, radius, order):
    # The plane-wave quasi-static matrix approaches the exact k -> 0 block
    # like 1/cutoff; a Neville ladder in 1/cutoff over three doublings
    # removes that tail, so every entry of the two constructions compares.
    s0 = mp.outer_block_limit(lattice_sum_limits(2 * order, alpha), radius, order)
    cutoffs = (60, 120, 240)
    ladder = oracles.neville_to_zero(
        cutoffs,
        [oracles.quasistatic_matrix(alpha, radius, order, c) for c in cutoffs],
    )
    assert np.max(np.abs(ladder - s0)) < 1e-5 * np.max(np.abs(s0))


def test_outer_block_limit_validation():
    limits = lattice_sum_limits(4, (0.5, 0.5))
    with pytest.raises(mp.MissingLatticeOrderError):
        mp.outer_block_limit(limits, 0.05, 3)
    with pytest.raises(ValueError):
        mp.outer_block_limit(limits, -0.05, 2)
