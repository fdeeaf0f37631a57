"""The test oracles, checked against analytic forms and each other."""

import numpy as np
import pytest
import scipy.special as sp

from bubblebands import bessel as bs
from bubblebands import lattice as lat

import oracles as ref
from conftest import draw_admissible_points


# ---------------------------------------------------------------------------
# quadrature rule
# ---------------------------------------------------------------------------

def test_rule_weights():
    rule = ref.QuadratureRule.with_node_count(128)
    assert rule.weights.sum() == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert rule.log_weights.sum() == pytest.approx(0.0, abs=1e-10)
    assert rule.doubled().node_count == 256


@pytest.mark.parametrize("bad", [32, 63, 65, 127])
def test_rule_rejects_small_or_odd_node_counts(bad):
    with pytest.raises(ValueError):
        ref.QuadratureRule.with_node_count(bad)


def test_rule_log_weights_integrate_cosines_exactly():
    # the product weights must reproduce integral cos(m u) ln(4 sin^2(u/2)) du
    # = -2 pi / m for modes below the rule's bandwidth
    rule = ref.QuadratureRule.with_node_count(64)
    for m in (1, 2, 7, 20):
        val = np.sum(rule.log_weights * np.cos(m * rule.nodes))
        assert val == pytest.approx(-2.0 * np.pi / m, abs=1e-10)


# ---------------------------------------------------------------------------
# free-space Nystrom quadrature
# ---------------------------------------------------------------------------

def test_free_space_quadrature_matches_analytic_diagonal():
    rule = ref.QuadratureRule.with_node_count(256)
    value = ref.nystrom_free_space(0, 1.0, 0.3, rule)
    analytic = (-0.5j * np.pi * 0.3) * bs.bessel_j_seq(0, 0.3)[0] * sp.hankel1(0, 0.3)
    assert abs(value - analytic) < 1e-6


def test_free_space_quadrature_self_convergence():
    rule = ref.QuadratureRule.with_node_count(256)
    a = ref.nystrom_free_space(1, 1.0, 0.3, rule)
    b = ref.nystrom_free_space(1, 1.0, 0.3, rule.doubled())
    assert abs(a - b) <= 1e-9


def test_free_space_quadrature_order_orthogonality():
    # apply the full kernel matrix to e^{i n theta} and project on other
    # orders; rotation invariance of the disk must annihilate them
    rule = ref.QuadratureRule.with_node_count(128)
    theta = rule.nodes
    diff = theta[:, None] - theta[None, :]
    smooth, log_part = ref._kernel_split(1.0, 0.3, diff)
    # product weights depend only on the node offset
    offset_weights = np.empty_like(diff)
    for j in range(rule.node_count):
        offset_weights[j] = np.roll(rule.log_weights, j)
    kernel = rule.weights[None, :] * smooth + offset_weights * log_part
    image = kernel @ np.exp(1j * 2 * theta)
    for m in (-2, -1, 0, 1, 3):
        proj = np.vdot(np.exp(1j * m * theta), image) / rule.node_count
        assert abs(proj) <= 1e-8


def test_free_space_quadrature_warns_when_underresolved():
    rule = ref.QuadratureRule.with_node_count(64)
    with pytest.warns(UserWarning, match="not self-converged"):
        ref.nystrom_free_space(0, 40.0, 0.9, rule)


def test_free_space_quadrature_rejects_bad_arguments():
    rule = ref.QuadratureRule.with_node_count(64)
    with pytest.raises(ValueError):
        ref.nystrom_free_space(0, -1.0, 0.3, rule)
    with pytest.raises(ValueError):
        ref.nystrom_free_space(0, 1.0, 0.0, rule)


# ---------------------------------------------------------------------------
# plane-wave spectral reference
# ---------------------------------------------------------------------------

def test_spectral_entry_hermitian_at_zero_wavenumber():
    for (m, n) in ((0, 1), (1, -2), (-1, 2)):
        a = ref.spectral_reference_entry(m, n, 0.0, (1.1, 0.4), 0.05, 30)
        b = ref.spectral_reference_entry(n, m, 0.0, (1.1, 0.4), 0.05, 30)
        assert abs(a - np.conj(b)) <= 1e-10


def test_spectral_entry_guards():
    with pytest.raises(ValueError):
        ref.spectral_reference_entry(0, 0, np.pi, lat.X_POINT, 0.05, 30)
    with pytest.raises(ValueError):
        ref.spectral_reference_entry(0, 0, 0.0, (0.0, 0.0), 0.05, 30)


def test_spectral_entry_matches_quasistatic_matrix_same_cutoff():
    cutoff = 40
    matrix = ref.quasistatic_matrix((np.pi, np.pi), 0.05, 1, cutoff)
    for mi, m in enumerate((-1, 0, 1)):
        for ni, n in enumerate((-1, 0, 1)):
            entry = ref.spectral_reference_entry(m, n, 0.0, (np.pi, np.pi), 0.05, cutoff)
            assert abs(entry - matrix[mi, ni]) <= 1e-8


@pytest.mark.parametrize("k", [0.1, 1.0])
def test_spectral_entry_matches_quasiperiodic_blocks(k):
    # the raw truncated sum carries a 1/cutoff tail, so evaluate it on a
    # doubling ladder and extrapolate the tail away before comparing
    alpha = (np.pi / 2, np.pi / 3)
    table = lat.lattice_sum_table(1, k, alpha)
    exact, _ = ref.outer_block_entries(0, 0, k, alpha, 0.05, table)
    coarse = ref.spectral_reference_entry(0, 0, k, alpha, 0.05, 100)
    fine = ref.spectral_reference_entry(0, 0, k, alpha, 0.05, 200)
    assert abs(2.0 * fine - coarse - exact) <= 1e-5


# ---------------------------------------------------------------------------
# brute-force lattice sums
# ---------------------------------------------------------------------------

def test_brute_shell_floor_enforced():
    with pytest.raises(ValueError):
        ref.brute_lattice_sum(0, 1.0, (0.5, 0.5), shell_count=50)


def test_brute_odd_order_vanishes_at_corner():
    result = ref.brute_lattice_sum(1, 1.1, (np.pi, np.pi), shell_count=200)
    assert abs(result.value) <= result.dispersion


def test_brute_dispersion_shrinks_with_doubled_shells():
    coarse = ref.brute_lattice_sum(1, 1.7, (0.9, -2.0), shell_count=300)
    fine = ref.brute_lattice_sum(1, 1.7, (0.9, -2.0), shell_count=600)
    assert fine.dispersion < coarse.dispersion


def test_brute_matches_fast_sums_at_random_admissible_points():
    for n, k, alpha in draw_admissible_points(seed=914, count=10):
        table = lat.lattice_sum_table(max(abs(n), 1), k, alpha)
        brute = ref.brute_lattice_sum(n, k, alpha)
        err = abs(table.value(n) - brute.value)
        assert err < 1e-6
        assert err <= brute.dispersion + table.est_error
