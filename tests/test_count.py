"""The band count: Hermitian matrices, monotonicity and agreement with finite elements.

``multipole.batch_counts`` gives the number of bands below a real
frequency from the inertia of ``H`` and ``S`` at that frequency.  The
reference counts and bands below come from a finite-element solve of the
Bloch cell problem (P1 elements, quasi-periodic boundary conditions,
``scipy.sparse.linalg.eigsh``), which uses no lattice sum: the non-dilute
crystal on meshes of up to 53,271 nodes, the slow host on 46,298.
"""

import math

import numpy as np
import pytest

from bubblebands.bands import bands_at
from bubblebands.multipole import (BlochProblem, DiskCrystal, MaterialParams,
                                   _hermitian_pair, batch_counts)

DILUTE = (MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0),
          DiskCrystal(radius=0.05))
NONDILUTE = (MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0),
             DiskCrystal(radius=0.25))
# Host speed 0.01 and density ratio 1e-4: every band hugs an empty-lattice line.
SLOW_HOST = (MaterialParams(rho=10000.0, kappa=1.0, rho_b=1.0, kappa_b=1.0),
             DiskCrystal(radius=0.05))
GAMMA, X, M = (0.0, 0.0), (np.pi, 0.0), (np.pi, np.pi)
SEEDED_ALPHA = tuple(np.random.default_rng(25).uniform(-np.pi, np.pi, 2))


def _problem(alpha, crystal, truncation):
    material, disk = crystal
    return BlochProblem(alpha, material, disk, truncation)


def _count(problem, omegas):
    """The band count of ``problem`` at the 1-D array ``omegas``."""
    return batch_counts([(problem, np.asarray(omegas, dtype=float))])[0]


def _relative_asymmetry(stack):
    """``||M - M^H|| / ||M||`` per matrix of a stack (Frobenius norms)."""
    gap = np.linalg.norm(stack - np.conj(np.swapaxes(stack, -1, -2)), axis=(-2, -1))
    return gap / np.linalg.norm(stack, axis=(-2, -1))


@pytest.mark.parametrize("alpha", [(0.01, 0.0), X, M, SEEDED_ALPHA])
def test_s_and_h_are_hermitian(alpha):
    # Five frequencies per Bloch vector, 20 pairs in all, on the non-dilute
    # crystal: both matrices are Hermitian to roundoff before they are
    # symmetrised for the count.
    omegas = np.array([0.3, 1.3, 2.5, 3.7, 4.9])
    s_mat, h_mat = _hermitian_pair([(_problem(alpha, NONDILUTE, 3), omegas)])
    assert np.all(_relative_asymmetry(s_mat) <= 1e-12)
    assert np.all(_relative_asymmetry(h_mat) <= 1e-12)


@pytest.mark.parametrize("alpha", [GAMMA, X, M, SEEDED_ALPHA])
@pytest.mark.parametrize("crystal, truncation, omega_max", [
    (DILUTE, 7, 5.0), (NONDILUTE, 3, 5.2), (SLOW_HOST, 4, 0.12)])
def test_count_never_decreases(crystal, truncation, omega_max, alpha):
    omegas = np.linspace(omega_max / 1000, omega_max, 1000)
    count = _count(_problem(alpha, crystal, truncation), omegas)
    assert np.all(count.bands >= 0)
    assert np.all(np.diff(count.bands) >= 0)
    assert count.bands[-1] >= 2


@pytest.mark.parametrize("alpha, crystal, truncation, omegas, expected", [
    (GAMMA, NONDILUTE, 7, [8.0], [7]),
    (X, NONDILUTE, 7, [8.0], [7]),
    (M, NONDILUTE, 7, [8.0], [6]),
    (M, DILUTE, 7, [4.52], [4]),
    (M, SLOW_HOST, 4, [0.0442, 0.0447, 0.046, 0.1, 0.103], [0, 2, 4, 10, 12]),
    ((np.pi / 3, 0.0), SLOW_HOST, 4, [0.0106, 0.06, 0.064, 0.07, 0.075],
     [1, 2, 3, 4, 5]),
])
def test_count_equals_the_finite_element_count(alpha, crystal, truncation, omegas,
                                               expected):
    count = _count(_problem(alpha, crystal, truncation), omegas)
    assert count.bands.tolist() == expected


def test_count_at_the_zone_centre_includes_the_zero_band():
    count = _count(_problem(GAMMA, DILUTE, 7), [1e-3])
    assert count.bands.tolist() == [1]


def test_frequency_past_the_lattice_sum_domain_gets_no_count():
    # k = 12.0 lies inside the lattice sums' domain, k = 12.5 past it.
    count = _count(_problem(SEEDED_ALPHA, DILUTE, 3), [12.0, 12.5])
    assert count.bands.tolist()[1] == -1 and count.poles.tolist()[1] == -1
    assert count.bands[0] >= 0
    assert np.all(np.isnan(count.eigenvalues[1]))


def test_a_double_band_is_reported_twice():
    omegas, _ = bands_at(M, *NONDILUTE, 7, 7.0, band_count=4)
    assert omegas == pytest.approx((0.203900, 4.859682, 6.209554, 6.209554),
                                   abs=1e-6)
    assert omegas[2] == omegas[3]


@pytest.mark.parametrize("alpha, band_count, expected", [
    # finite elements: 4.066664, 7.2656, 7.3515 (x2), 7.7158 (x2)
    (GAMMA, 7, (0.0, 4.066659, 7.265578, 7.351310, 7.351310, 7.715194, 7.715194)),
    # finite elements: 7.362287 and 7.363804, a close pair of single bands
    (X, 7, (0.170986, 4.409909, 6.214558, 7.362066, 7.363587, 7.725750, 7.952729)),
    # finite elements: 6.2099 (x2), 7.3794 (x2)
    (M, 6, (0.203900, 4.859682, 6.209554, 6.209554, 7.379177, 7.379177)),
])
def test_nondilute_bands_below_eight_with_their_multiplicities(alpha, band_count,
                                                               expected):
    omegas, _ = bands_at(alpha, *NONDILUTE, 7, 8.0, band_count=band_count)
    assert omegas == pytest.approx(expected, abs=1e-6)
    assert _count(_problem(alpha, NONDILUTE, 7), [8.0]).bands[0] == band_count


def test_slow_host_corner_bands_at_four_harmonics():
    # Finite elements: 0.044434, 0.044438, 0.045109 (x2), 0.099357 (x3),
    # 0.099420, 0.099445, 0.099471, 0.102055 (x2); the multipole roots near
    # the line 0.099346 and above lie 1.1-1.4e-5 below them at every order.
    omegas, _ = bands_at(M, *SLOW_HOST, 4, 0.103, band_count=12)
    assert omegas == pytest.approx(
        (0.044433, 0.044437, 0.045107, 0.045107, 0.099346, 0.099347, 0.099347,
         0.099410, 0.099434, 0.099459, 0.102041, 0.102041), abs=1e-6)


@pytest.mark.parametrize("crystal, truncation, resolution, omega_max", [
    (DILUTE, 7, 3, 5.0), (NONDILUTE, 3, 6, 5.2)])
def test_count_jumps_at_every_reported_band(crystal, truncation, resolution,
                                            omega_max):
    # On the two sweeps of the benchmark, just below reported band j the
    # count is j - 1 (the zero band counts at the zone centre) and just
    # above it is at least j.
    from bubblebands.bands import band_structure

    structure = band_structure(*crystal, truncation, resolution=resolution,
                               band_count=2, omega_max=omega_max)
    assert not structure.failures
    for point in structure.points:
        problem = _problem(point.alpha, crystal, truncation)
        for band, omega in enumerate(point.omegas, start=1):
            if omega == 0.0:
                continue
            around = _count(problem, [omega * (1 - 1e-7), omega * (1 + 1e-7)])
            assert around.bands[0] == band - 1 and around.bands[1] >= band


# The lowest empty-lattice line k = |alpha| of five Bloch vectors on the
# non-dilute crystal (v = 1, so omega = k); the line of (pi, pi/2) is double.
LINE_ALPHAS = [(0.1 / math.sqrt(2.0), 0.1 / math.sqrt(2.0)), (0.01, 0.0),
               (np.pi / 5, 0.0), (0.3, 2.1), (np.pi, np.pi / 2)]


@pytest.mark.parametrize("truncation", [3, 5, 7])
@pytest.mark.parametrize("alpha", LINE_ALPHAS)
def test_count_next_to_a_line_is_right_or_refused(alpha, truncation):
    # Within about 1e-10 relative of a line (at k = 0.01; less at larger k)
    # the 1/(k^2 - |p|^2) term swamps S and H, and their inertia is
    # roundoff.  29 offsets from 1e-16 to 1e-4 on each side, 870 probes
    # over the parametrization: each gets the count 1e-3 away on the same
    # side, or no count (-1).  Before such frequencies were refused, the
    # count was wrong at 119 of these probes, and negative at 14 of them;
    # now 360 are refused, all within 5e-9 relative of their line.
    problem = _problem(alpha, NONDILUTE, truncation)
    line = float(np.hypot(*alpha))
    offsets = np.logspace(-16, -4, 29)
    for side in (-1.0, 1.0):
        reference = _count(problem, [line * (1.0 + side * 1e-3)]).bands[0]
        count = _count(problem, line * (1.0 + side * offsets)).bands
        assert reference >= 0
        assert np.all((count == reference) | (count == -1))
        assert np.all(count[offsets >= 1e-8] == reference)


def test_a_ceiling_on_a_line_finds_the_band_below_it():
    # omega_max = 0.1 lies on the line |p| = |alpha| = 0.1, where the count
    # once read 0 and the search reported "found 0 of 1 bands".  Near the
    # root the crossing eigenvalue of H moves by about 1e-14 over 3e-10
    # relative in omega, which is roundoff, so the root holds to about 1e-10.
    alpha = (0.1 / math.sqrt(2.0)) * np.array([1.0, 1.0])
    omegas, _ = bands_at(alpha, *NONDILUTE, 5, omega_max=0.1, band_count=1)
    assert omegas == pytest.approx((0.008683045779288306,), rel=1e-9)
