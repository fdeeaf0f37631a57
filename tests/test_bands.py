"""Root search and band-structure sweep: the count search, the polish, the path.

Several tests keep the names they had when the search scanned a frequency
grid and refined its minima with Muller's method.  Each now checks the part
of the count search that took that role; its comment says which.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblebands import bands, lattice, multipole
from bubblebands.bands import (
    BandNotFoundError,
    BandPoint,
    BandStructure,
    RootDiagnostics,
    band_structure,
    bands_at,
    retruncated_root,
)
from bubblebands.multipole import (
    BandCount,
    BlochProblem,
    DiskCrystal,
    MaterialParams,
    assemble_characteristic_matrix,
    batch_counts,
    batch_h_eigenvalues,
)

DILUTE_MAT = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)
NONDILUTE_MAT = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)
DILUTE_CRYSTAL = DiskCrystal(radius=0.05)
M_ALPHA = (np.pi, np.pi)

# First band of the dilute crystal at the zone corner; the count search
# finds it to within 2e-12 at truncations 5, 7 and 9 (1.2e-11 at 3).
DILUTE_M_BAND1 = 0.259140642470186
# Second band of the same crystal at the zone centre (upper gap edge).
DILUTE_GAMMA_BAND2 = 1.903817916843799


def _count(problem, omegas):
    """The band count of ``problem`` at the 1-D array ``omegas``."""
    return batch_counts([(problem, np.asarray(omegas, dtype=float))])[0]


# ---------------------------------------------------------------------------
# the acceptance check: singular values of the equilibrated matrix
# ---------------------------------------------------------------------------

def _indicator(matrix, row_scale):
    """Smallest singular value of the equilibrated matrix, as acceptance reads it."""
    pair = (np.array(matrix, dtype=complex)[None], np.asarray(row_scale)[None])
    return bands._singular_values(pair)[0, -1]


def test_indicator_identity_matrix_is_one():
    assert _indicator(np.eye(12), np.ones(12)) == pytest.approx(1.0)


def test_indicator_zero_row_is_zero():
    m = np.eye(6, dtype=complex)
    m[3] = 0.0
    assert _indicator(m, np.ones(6)) == 0.0


def test_indicator_row_scaling_invariance():
    # Rows scaled by the factors given as their scale equilibrate back.
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    factors = np.ones(8)
    factors[2] = 1e150
    factors[5] = 1e-140
    scaled = m * factors[:, None]
    a = _indicator(m, np.ones(8))
    b = _indicator(scaled, factors)
    assert b == pytest.approx(a, rel=1e-10)


def test_indicator_of_a_nonfinite_matrix_is_an_inf_row():
    stack = np.stack([np.eye(4, dtype=complex)] * 3)
    stack[1, 1, 2] = np.nan
    values = bands._singular_values((stack, np.ones((3, 4))))
    assert np.all(np.isinf(values[1]))
    assert np.array_equal(values[[0, 2]], np.ones((2, 4)))


# The least eigenvalue of the Gram matrix of each equilibrated matrix is an
# independent route to the smallest singular value squared: the reference
# for the SVD indicator in the tests below.

def _least_gram_eigenvalues(pair):
    stack, row_scale = pair
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    values = np.full(stack.shape[0], math.inf)
    part = stack[finite] / row_scale[finite][..., None]
    if part.size:
        values[finite] = np.linalg.eigvalsh(part.conj().swapaxes(-1, -2) @ part)[:, 0]
    return values


def _gram_roundoff(size, sigma_max):
    """Absolute bound on |lambda_min(E^H E) - sigma_min(E)**2| for ``E`` of ``size``."""
    return 64 * size * np.finfo(float).eps * sigma_max**2


NONDILUTE_CRYSTAL = DiskCrystal(radius=0.25)
GRAM_CRYSTALS = [(DILUTE_MAT, DILUTE_CRYSTAL), (NONDILUTE_MAT, NONDILUTE_CRYSTAL)]
GRAM_ALPHAS = [(0.0, 0.0), (np.pi, 0.0), M_ALPHA, (0.3, 2.1)]


def _random_stack(seed, count, size):
    """A random stack with its rows' max-norms as the row scales."""
    rng = np.random.default_rng(seed)
    stack = (rng.normal(size=(count, size, size))
             + 1j * rng.normal(size=(count, size, size)))
    stack *= 10.0 ** rng.uniform(-30, 30, size=(count, size, 1))  # row scales
    stack[1, 4] = 2.0 * stack[1, 7]  # exactly rank-deficient once equilibrated
    return stack, np.max(np.abs(stack), axis=-1)


def _assert_gram_matches_svd(pair):
    size = pair[0].shape[-1]
    spectra = bands._singular_values(pair)
    values = _least_gram_eigenvalues(pair)
    for value, spectrum in zip(values, spectra):
        assert abs(value - spectrum[-1] ** 2) <= _gram_roundoff(size, spectrum[0])
    return spectra


@pytest.mark.parametrize("alpha", GRAM_ALPHAS)
@pytest.mark.parametrize("material, crystal", GRAM_CRYSTALS)
def test_gram_eigenvalue_is_the_squared_smallest_singular_value(material, crystal,
                                                                 alpha):
    omegas = np.array([0.26, 0.9, 1.9, 3.3, 4.5])
    problem = BlochProblem(alpha, material, crystal, 3)
    pair = assemble_characteristic_matrix(omegas, problem)
    assert np.all(np.isfinite(pair[0]))
    _assert_gram_matches_svd(pair)


def test_gram_eigenvalue_of_random_stacks_with_a_rank_deficient_matrix():
    for seed, size in ((0, 14), (1, 30)):
        spectra = _assert_gram_matches_svd(_random_stack(seed, 6, size))
        # sigma_max <= size once every entry is at most 1 in modulus
        assert spectra[1, -1] ** 2 <= _gram_roundoff(size, 1.0 * size)
        assert np.all(spectra[[0, 2, 3, 4, 5], -1] ** 2
                      > _gram_roundoff(size, 1.0 * size))


def test_gram_eigenvalue_marks_only_nonfinite_matrices():
    stack, scale = _random_stack(2, 5, 14)
    clean = bands._singular_values((stack, scale))
    stack[1, 3, 5] = np.nan
    stack[3, 0, 0] = np.inf
    values = bands._singular_values((stack, scale))
    assert np.all(np.isinf(values[[1, 3]]))
    assert np.array_equal(values[[0, 2, 4]], clean[[0, 2, 4]])


@pytest.mark.parametrize("alpha", GRAM_ALPHAS)
def test_gram_eigenvalue_in_a_stack_equals_its_batch_of_one(alpha):
    omegas = np.array([0.26, 0.9, 1.9, 3.3, 4.5])
    problem = BlochProblem(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3)
    pairs = [assemble_characteristic_matrix(omegas, problem),
             _random_stack(3, 5, 30)]
    for stack, scale in pairs:
        values = bands._singular_values((stack, scale))
        for k, value in enumerate(values):
            single = bands._singular_values((stack[k : k + 1], scale[k : k + 1]))
            assert np.array_equal(single[0], value)


# ---------------------------------------------------------------------------
# the polish: Brent's method on generic functions, the polish's failures
# and the acceptance veto (the ``test_muller_*`` names are those of
# Muller's method, which Brent's replaced)
# ---------------------------------------------------------------------------

def _brent(f, a, b, fa, fb):
    """Drive one Brent search of ``bands._brent_steps`` with ``f``."""
    steps = bands._brent_steps(a, b, fa, fb)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def test_muller_finds_sqrt_two():
    root, evaluations = _brent(lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), rel=4e-16)
    assert 1 <= evaluations <= 12


def test_muller_finds_nearest_root_of_quadratic():
    # Brent keeps to its bracket: of the roots 0.3 and -5 it finds 0.3.
    f = lambda x: (x - 0.3) * (x + 5.0)
    root, _ = _brent(f, 0.0, 1.0, f(0.0), f(1.0))
    assert root == pytest.approx(0.3, abs=1e-15)


def test_muller_requires_distinct_starts():
    # A bracket of zero width is its own root: no evaluation is made.
    def never(x):
        raise AssertionError("evaluated")

    assert _brent(never, 1.5, 1.5, 1.0, -1.0) == (1.5, 0)


def test_muller_flat_function_raises_not_converged(monkeypatch):
    # A polish evaluation that gets no eigenvalues of H (a NaN row) ends the
    # search with BandNotFoundError rather than a wrong root.
    def no_count_inside(batch):
        return [np.full((omegas.size, 2 * problem.truncation + 1), np.nan)
                for problem, omegas in batch]

    monkeypatch.setattr(bands, "batch_h_eigenvalues", no_count_inside)
    with pytest.raises(BandNotFoundError, match="no count at omega"):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.3, band_count=1)


def test_muller_iteration_budget_exhaustion_carries_best_iterate():
    # A step function leaves Brent only bisection; a root 500 orders of
    # magnitude below the bracket width needs more bisections than the
    # evaluation budget, and the error names the last iterate.
    def step(x):
        return math.copysign(1.0, x - 1e-200)

    with pytest.raises(BandNotFoundError, match="did not converge near omega="):
        _brent(step, 0.0, 1e300, -1.0, 1.0)
    root, evaluations = _brent(step, 0.0, 1.0, -1.0, 1.0)
    assert root == pytest.approx(1e-200, abs=1e-15) and evaluations <= 100


def test_muller_acceptance_veto_raises_rejected(monkeypatch):
    # A polished root whose SVD indicator misses the tolerance is not
    # reported: the search fails and says so.
    monkeypatch.setattr(bands, "_INDICATOR_TOL", 0.0)
    with pytest.raises(BandNotFoundError, match="fails the indicator"):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.3, band_count=1)


# ---------------------------------------------------------------------------
# counting and multisection (the ``test_scan_*`` names are those of the
# frequency scan, which the count replaced)
# ---------------------------------------------------------------------------

def _answered(steps, answer=None):
    """Run one step of a search alone; return its result.

    Each request ``(batch, problem, omegas)`` is answered by
    ``batch([(problem, omegas)])[0]``, or by ``answer(problem, omegas)``.
    """
    try:
        request = next(steps)
        while True:
            batch, problem, omegas = request
            request = steps.send(answer(problem, omegas) if answer
                                 else batch([(problem, omegas)])[0])
    except StopIteration as stop:
        return stop.value


def _counts(alpha, material, crystal, truncation, omega_range):
    """The counts of a search's first batch over ``omega_range``."""
    counts = bands._Counts(BlochProblem(alpha, material, crystal, truncation))
    lo, hi = omega_range
    _answered(counts.add(np.linspace(lo, hi, bands._GRID + 1)[1:]))
    return counts


def test_scan_empty_range_yields_no_brackets():
    counts = _counts(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.2, 0.25))
    assert counts.bands.tolist() == [0] * bands._GRID
    assert counts.failed.size == 0


def test_scan_dilute_corner_has_exactly_one_subwavelength_bracket():
    counts = _counts(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 0.3))
    assert counts.bands[-1] == 1
    lo, hi = counts._span(*counts.bracket(1))
    assert lo < DILUTE_M_BAND1 <= hi


def test_scan_brackets_iterate_in_ascending_order():
    counts = _counts(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 5.0))
    assert counts.bands[-1] >= 2  # resonance band plus the folded bands above
    brackets = _answered(counts.isolate(range(1, counts.bands[-1] + 1)))
    spans = [counts._span(*b) for b in brackets]
    assert all(lo < hi for lo, hi in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("alpha, omega_range, root", [
    ((0.0, 0.0), (3.9, 4.2), 4.065824186457238),
    (M_ALPHA, (0.0, 0.4), 0.20388894318544015),
])
def test_scan_brackets_a_root_where_one_row_vanishes(alpha, omega_range, root):
    # At these two roots of the acceptance-4 crystal T's monopole row
    # vanishes on its own while the other rows stay near unit size.  The
    # count does not read T's rows: it jumps across each root all the same,
    # and the bracket of the band holds it.
    counts = _counts(alpha, NONDILUTE_MAT, NONDILUTE_CRYSTAL, 3, omega_range)
    problem = counts.problem
    around = _count(problem, [root * (1 - 1e-9), root * (1 + 1e-9)])
    band = around.bands[1]
    assert around.bands[0] == band - 1
    lo, hi = counts._span(*counts.bracket(band))
    assert lo < root <= hi


def test_scan_half_steps_the_zone_centre_low_frequency_resonance():
    # At alpha = 0 the k -> 0 empty-lattice resonance sits at omega -> 0.
    # The count needs no special steps there: it counts the zero band from
    # the lowest frequencies on, and nothing else below band 2.
    problem = BlochProblem((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3)
    count = _count(problem, [1e-4, 1e-3, 0.01, 0.06, 0.2, 1.9])
    assert count.bands.tolist() == [1] * 6
    assert count.poles[:5].tolist() == [0] * 5


def test_scan_step_halving_preserves_the_refined_root(monkeypatch):
    # The root does not depend on the grid the search starts from: half the
    # grid and half the sections per batch polish to the same root.
    (fine,), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.3, band_count=1)
    monkeypatch.setattr(bands, "_GRID", bands._GRID // 2)
    monkeypatch.setattr(bands, "_SECTIONS", bands._SECTIONS // 2)
    (coarse,), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.3, band_count=1)
    assert coarse == pytest.approx(fine, rel=1e-13)
    assert coarse == pytest.approx(DILUTE_M_BAND1, abs=1e-9)


def _first_batches(monkeypatch):
    """Record the frequencies of every count batch a search makes."""
    batches = []
    real = bands.batch_counts

    def recorded(batch):
        batches.extend(np.array(omegas) for _, omegas in batch)
        return real(batch)

    monkeypatch.setattr(bands, "batch_counts", recorded)
    return batches


@pytest.mark.parametrize("alpha", [(0.0, 0.0), (np.pi / 15, 0.0), (np.pi, 0.0),
                                   M_ALPHA, (np.pi, 0.7 * np.pi)])
def test_scan_grid_ends_without_a_roundoff_step(monkeypatch, alpha):
    # The first batch of a search is uniform and ends exactly at the top of
    # its range, omega_max.
    batches = _first_batches(monkeypatch)
    for material, omega_max in ((DILUTE_MAT, 5.0), (NONDILUTE_MAT, 5.2)):
        batches.clear()
        bands_at(alpha, material, DILUTE_CRYSTAL, 3, omega_max,
                 band_count=1 if np.any(alpha) else 2)
        grid = batches[0]
        assert grid.size == bands._GRID and grid[-1] == omega_max
        assert np.allclose(np.diff(grid), omega_max / bands._GRID, rtol=1e-12)


def test_scan_evaluates_the_grid_in_batches(monkeypatch):
    # One lattice-sum engine per search.  The first table call holds the
    # whole first grid, each multisection call eight frequencies per open
    # bracket, each polish step one frequency per open search, and each
    # indicator one frequency: tens of table calls, where a call per
    # frequency would make hundreds.
    calls = []
    steps = []
    real_table = lattice.LatticeSumEngine.table
    real_eigenvalues = bands.batch_h_eigenvalues

    def counted(self, k):
        calls.append((self, np.size(k)))
        return real_table(self, k)

    def stepped(batch):
        steps.append(sum(omegas.size for _, omegas in batch))
        return real_eigenvalues(batch)

    monkeypatch.setattr(lattice.LatticeSumEngine, "table", counted)
    monkeypatch.setattr(bands, "batch_h_eigenvalues", stepped)
    _, diagnostics = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7, 5.0)
    # Search j is open for its first iterations[j] steps.
    iterations = [d.iterations for d in diagnostics]
    assert steps == [sum(count > step for count in iterations)
                     for step in range(max(iterations))]
    assert steps[0] == 2
    sizes = [size for _, size in calls]
    assert sizes[0] == bands._GRID
    assert all(size <= 2 or size % bands._SECTIONS == 0 for size in sizes[1:])
    assert any(size > 2 for size in sizes[1:])
    assert len(calls) < 100
    assert len({engine for engine, _ in calls}) == 1


def test_h_eigenvalues_of_a_batch_equal_those_of_single_frequencies():
    # The polish evaluates H at one frequency per open search in one batch;
    # each frequency gets the bits it gets alone, and those of the count.
    # omega = pi at X is on the line |alpha| = pi and gets a NaN row.
    for alpha in [(np.pi, 0.0), M_ALPHA, (0.3, 2.1)]:
        problem = BlochProblem(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 7)
        omegas = np.array([0.26, 1.9, np.pi, 3.3, 4.5])
        batch = batch_h_eigenvalues([(problem, omegas)])[0]
        assert np.array_equal(batch, _count(problem, omegas).eigenvalues,
                              equal_nan=True)
        assert np.all(np.isnan(batch[2])) == (alpha == (np.pi, 0.0))
        for i in range(omegas.size):
            single = batch_h_eigenvalues([(problem, omegas[i : i + 1])])[0]
            assert np.array_equal(single[0], batch[i], equal_nan=True)


def test_a_point_whose_band_one_fails_reports_band_one(monkeypatch):
    # Band 2's search gets no eigenvalues: alone, that is the point's
    # failure.  With band 1 also failing the indicator, both searches ran
    # together, but the point reports the first failure in band order, as
    # a search that polished one band at a time would, and checks the
    # indicator of no later band.
    real_eigenvalues = bands.batch_h_eigenvalues

    def no_band_two(batch):
        values = real_eigenvalues(batch)
        for (_, omegas), rows in zip(batch, values):
            rows[omegas > 1.0] = np.nan
        return values

    assemblies = []
    real_assemble = bands.assemble_characteristic_matrix

    def assemble(omega, problem):
        assemblies.append(omega)
        return real_assemble(omega, problem)

    monkeypatch.setattr(bands, "batch_h_eigenvalues", no_band_two)
    monkeypatch.setattr(bands, "assemble_characteristic_matrix", assemble)
    with pytest.raises(BandNotFoundError, match="no count at omega"):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 5.0)
    assemblies.clear()
    monkeypatch.setattr(bands, "_INDICATOR_TOL", 0.0)
    with pytest.raises(BandNotFoundError, match="of band 1 fails the indicator"):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 5.0)
    assert assemblies == [pytest.approx(DILUTE_M_BAND1, rel=1e-9)]


def test_scan_batch_marks_only_its_failed_frequencies():
    # At X, omega = pi puts k exactly on the empty-lattice line |alpha| = pi,
    # and at 13.0 (k = 13) the radial series of the lattice sums leaves a
    # tail above the tolerance.  Both get no count and NaN matrices; the
    # others count as they do alone.
    problem = BlochProblem((np.pi, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3)
    omegas = np.array([0.5, 1.0, np.pi, 3.0, 13.0])
    count = _count(problem, omegas)
    assert count.bands[[2, 4]].tolist() == [-1, -1]
    assert count.poles[[2, 4]].tolist() == [-1, -1]
    assert np.all(np.isnan(count.eigenvalues[[2, 4]]))
    for i in (0, 1, 3):
        single = _count(problem, omegas[i : i + 1])
        assert single.bands[0] == count.bands[i] >= 0
        assert single.poles[0] == count.poles[i]
    stack, scale = assemble_characteristic_matrix(omegas, problem)
    for i in (2, 4):
        single, single_scale = assemble_characteristic_matrix(omegas[i], problem)
        assert np.all(np.isnan(single)) and np.all(np.isnan(single_scale))
        assert np.array_equal(single, stack[i], equal_nan=True)
    for i in (0, 1, 3):
        single, single_scale = assemble_characteristic_matrix(omegas[i], problem)
        assert np.all(np.isfinite(single))
        assert np.array_equal(single, stack[i])
        assert np.array_equal(single_scale, scale[i])
    assert np.all(np.isinf(bands._singular_values((stack, scale))[[2, 4]]))


class _TabulatedProblem:
    """A stand-in problem whose count is a step function of the frequency."""

    truncation = 0

    def __init__(self, steps):
        self.steps = np.asarray(steps)

    def counts(self, omegas):
        bands_below = np.searchsorted(self.steps, omegas)
        return BandCount(bands_below, np.zeros_like(bands_below),
                         np.where(bands_below % 2, -1.0, 1.0)[:, None])


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(1, 29), max_size=12),
       cut=st.integers(0, 30), seed=st.integers(0, 2**16))
def test_bracket_rule_in_pieces_matches_the_per_point_loop(steps, cut, seed):
    # Bands at steps / 30 (repeats make multiple bands), counted at 0.01 ..
    # 0.30 in two batches, in any order.  The bracket of each band must be
    # the one a loop over all the frequencies at once gives: the first
    # frequency with at least that many bands below it, and the one before.
    problem = _TabulatedProblem(sorted(s / 30.0 for s in steps))
    omegas = 0.01 * np.arange(1, 31)
    shuffled = np.random.default_rng(seed).permutation(omegas)
    counts = bands._Counts(problem)
    for part in (shuffled[:cut], shuffled[cut:]):
        _answered(counts.add(part), lambda problem, omegas: problem.counts(omegas))
    assert counts.omegas.tolist() == omegas.tolist()
    totals = problem.counts(omegas).bands
    assert counts.bands.tolist() == totals.tolist()
    for band in range(1, totals[-1] + 1):
        hi = next(i for i, total in enumerate(totals) if total >= band)
        assert counts.bracket(band) == (hi - 1, hi)


BRACKET_ALPHAS = [(0.0, 0.0), (np.pi / 5, 0.0), (np.pi, 0.0), (np.pi, 0.5 * np.pi),
                  M_ALPHA, (0.5 * np.pi, 0.5 * np.pi), (0.3, 2.1),
                  (2.0 * np.pi / 3, np.pi / 3)]
BRACKET_CASES = (
    [("dilute", alpha, 3) for alpha in BRACKET_ALPHAS]
    + [("nondilute", alpha, 3) for alpha in BRACKET_ALPHAS]
    + [("dilute", (0.0, 0.0), 7), ("dilute", M_ALPHA, 7)]
)


@pytest.mark.parametrize("name, alpha, truncation", BRACKET_CASES)
def test_gram_profile_brackets_equal_the_svd_profile_brackets(name, alpha,
                                                               truncation):
    # Every band the count finds below omega_max polishes to a root of T
    # that the SVD indicator accepts, so the count's brackets are brackets
    # of the SVD profile's roots.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    counts = _counts(alpha, material, crystal, truncation, (0.0, omega_max))
    wanted = range(2 if not np.any(alpha) else 1, counts.bands[-1] + 1)
    assert len(wanted) >= 1
    brackets = _answered(counts.isolate(wanted))
    polished = _answered(counts.polish(brackets))
    assert len(polished) == len(brackets)
    for (lo, hi), (root, diagnostics) in zip(brackets, polished):
        assert diagnostics is not None
        assert counts.omegas[lo] < root <= counts.omegas[hi]


# The two sweep workloads of the benchmark (``bands-dilute`` and
# ``bands-nondilute``): crystal, truncation and path resolution.
SWEEP_WORKLOADS = {"dilute": (7, 3), "nondilute": (3, 6)}
FITTED_SCAN_CASES = BRACKET_CASES + [
    (name, tuple(alpha), truncation)
    for name, (truncation, resolution) in SWEEP_WORKLOADS.items()
    for _, alpha in bands._path_samples(resolution)[:-1]
]


@pytest.mark.parametrize("name, alpha, truncation", FITTED_SCAN_CASES)
def test_fitted_scan_brackets_equal_the_direct_brackets(name, alpha, truncation):
    # The search counts in batches (once it scanned with fitted lattice
    # sums); every count and pole count of the first batch must be the one
    # the frequency gets alone, so no bracket depends on the batches.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    problem = BlochProblem(alpha, material, crystal, truncation)
    omegas = np.linspace(0.0, omega_max, bands._GRID + 1)[1:]
    batch = _count(problem, omegas)
    assert np.all(batch.bands >= 0)
    for i, omega in enumerate(omegas):
        single = _count(problem, omegas[i : i + 1])
        assert (single.bands[0], single.poles[0]) == (batch.bands[i], batch.poles[i])


@pytest.mark.parametrize("name, alpha, truncation", FITTED_SCAN_CASES)
def test_lockstep_polish_equals_polishing_one_bracket_at_a_time(name, alpha,
                                                                truncation):
    # Every band below omega_max, polished together, gets bitwise the root
    # and the evaluation count that a Brent search of its own gets on the
    # count's eigenvalues at one frequency at a time.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    counts = _counts(alpha, material, crystal, truncation, (0.0, omega_max))
    problem = counts.problem
    brackets = _answered(counts.isolate(range(2 if not np.any(alpha) else 1,
                                              counts.bands[-1] + 1)))
    polished = _answered(counts.polish(brackets))
    assert len(polished) == len(brackets)
    for (lo, hi), (root, diagnostics) in zip(brackets, polished):
        index = int(np.sum(counts.eigenvalues[lo] < 0.0))

        def eigenvalue(omega):
            return float(_count(problem, [omega]).eigenvalues[0, index])

        alone = _brent(
            eigenvalue, *counts.omegas[[lo, hi]].tolist(),
            *counts.eigenvalues[[lo, hi], index].tolist())
        assert diagnostics is not None
        assert (root, diagnostics.iterations) == alone


def test_scan_past_the_lattice_sum_domain_uses_direct_tables():
    # A ceiling at k = 13 leaves the frequencies past k ~ 12.1 without a
    # count.  The bands below are found as with a ceiling below 12.1; asking
    # for more than the count holds names the failed range.
    alpha = (0.3, 2.1)
    low, _ = bands_at(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3, 12.0)
    high, _ = bands_at(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3, 13.0)
    assert high == pytest.approx(low, rel=1e-12)
    counts = _counts(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 13.0))
    assert counts.failed.size and counts.failed.min() > 12.0
    with pytest.raises(BandNotFoundError,
                       match=r"bands below omega=13.0; the count is \d+ at "
                             r"omega=\d+\.\d+; the lattice sums failed at omega in "
                             r"\[12\.\d+, 13\]"):
        bands_at(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3, 13.0,
                 band_count=counts.bands[-1] + 1)


def test_sweep_table_factors_equal_the_direct_factors():
    # The count reads the cylinder factors of a whole batch; each factor is
    # bitwise the one its frequency gets alone.
    omegas = np.concatenate([np.linspace(0.01, 5.0, 40), [4.123456789]])
    stacked = multipole.cylinder_factors(omegas, DILUTE_MAT, 0.05, 7)
    for i, omega in enumerate(omegas):
        single = multipole.cylinder_factors(omega, DILUTE_MAT, 0.05, 7)
        for got, want in zip(stacked, single):
            assert got.dtype == want.dtype
            assert got[i].tobytes() == want.tobytes()


def test_cylinder_tables_compute_only_the_rows_a_batch_asks_for(monkeypatch):
    # A search computes cylinder factors only at the frequencies it counts,
    # polishes or checks, within its range: a sweep nothing above omega_max.
    computed = []
    real_factors = multipole.cylinder_factors

    def factors(omegas, *args):
        computed.extend(np.atleast_1d(omegas).tolist())
        return real_factors(omegas, *args)

    monkeypatch.setattr(multipole, "cylinder_factors", factors)
    band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=3, omega_max=5.0)
    assert computed and max(computed) <= 5.0


# ---------------------------------------------------------------------------
# bands_at / retruncated_root
# ---------------------------------------------------------------------------

def test_first_two_bands_at_corner_matches_frozen_values():
    # Band 2 lies 8.5e-4 above the fourfold empty-lattice line pi sqrt(2);
    # a finite-element solve of the cell problem gives 4.44373.
    (w1, w2), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 5.0)
    assert w1 == pytest.approx(DILUTE_M_BAND1, abs=1e-9)
    assert w2 == pytest.approx(4.443730, abs=1e-6)
    assert w1 < w2


def test_first_two_bands_zone_centre_first_band_is_exactly_zero():
    (w1, w2), _ = bands_at((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3, 2.2)
    assert w1 == 0.0
    assert w2 == pytest.approx(DILUTE_GAMMA_BAND2, abs=1e-8)


def test_first_two_bands_raises_when_ceiling_is_too_low():
    with pytest.raises(BandNotFoundError,
                       match=r"^found 0 of 2 bands below omega=0.1; the count is 0"):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.1)


def test_zone_centre_single_band_assembles_no_matrix(monkeypatch):
    # Band 1 at the zone centre is the analytic zero: nothing is counted and
    # no matrix is built.
    calls = []
    real_counts = bands.batch_counts
    real_assemble = bands.assemble_characteristic_matrix

    def counted(batch):
        calls.append(batch)
        return real_counts(batch)

    def assemble(omega, problem):
        calls.append(omega)
        return real_assemble(omega, problem)

    monkeypatch.setattr(bands, "batch_counts", counted)
    monkeypatch.setattr(bands, "assemble_characteristic_matrix", assemble)
    omegas, _ = bands_at((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.4,
                         band_count=1)
    assert omegas == (0.0,)
    assert len(calls) == 0


SLOW_HOST_MAT = MaterialParams(rho=10000.0, kappa=1.0, rho_b=1.0, kappa_b=1.0)


def test_muller_iterate_beyond_the_lattice_sum_domain_is_unconverged():
    # Host speed v = 0.01 puts every band next to an empty-lattice line.  At
    # (pi/3, 0) bands 1 and 2 lie 8.2e-5 and 3.9e-4 above the lines 0.010472
    # and 0.052360; a finite-element solve gives 0.010554 and 0.052751.
    omegas, _ = bands_at((np.pi / 3, 0.0), SLOW_HOST_MAT, DILUTE_CRYSTAL, 3, 0.3)
    assert omegas == pytest.approx((0.010554, 0.052749), abs=1e-6)


def test_slow_host_scan_past_every_reciprocal_point_of_the_window():
    # At v = 0.01 a ceiling of 0.45 reaches k = 45, past every |p| of the
    # window and past the lattice-sum domain; the frequencies above
    # k ~ 12.1 get no count, and the bands below are those of a lower
    # ceiling.  Band 1 sits 7.9e-5 above the line omega = |alpha| v = 0.01.
    alpha = (1.0, 0.0)
    found, _ = bands_at(alpha, SLOW_HOST_MAT, DILUTE_CRYSTAL, 3, 0.45)
    lower, _ = bands_at(alpha, SLOW_HOST_MAT, DILUTE_CRYSTAL, 3, 0.3)
    assert found == pytest.approx((0.0100786, 0.0532235), abs=1e-7)
    assert found == pytest.approx(lower, rel=1e-9)


STREAM_CRYSTALS = {
    "dilute": (DILUTE_MAT, DILUTE_CRYSTAL, 5.0),
    "nondilute": (NONDILUTE_MAT, NONDILUTE_CRYSTAL, 5.2),
}
STREAM_ALPHAS = [(0.0, 0.0), (np.pi / 5, 0.0), (np.pi, 0.0), (np.pi, 0.5 * np.pi),
                 M_ALPHA, (0.5 * np.pi, 0.5 * np.pi)]


@pytest.fixture(scope="module")
def every_accepted_root():
    """Every band below ``omega_max``, by crystal and Bloch vector.

    The reference for a search for the lowest bands: ``bands_at`` asked for
    all the bands the count finds below ``omega_max``.
    """
    roots = {}
    for name, (material, crystal, omega_max) in STREAM_CRYSTALS.items():
        for alpha in STREAM_ALPHAS:
            problem = BlochProblem(alpha, material, crystal, 3)
            total = int(_count(problem, [omega_max]).bands[0])
            omegas, diagnostics = bands_at(alpha, material, crystal, 3, omega_max,
                                           total)
            roots[name, alpha] = list(zip(omegas, diagnostics))
    return roots


@pytest.mark.parametrize("band_count", [1, 2])
@pytest.mark.parametrize("name", sorted(STREAM_CRYSTALS))
def test_streamed_search_equals_refining_every_bracket(every_accepted_root, name,
                                                       band_count):
    # A search for the lowest bands refines only their brackets; it finds
    # bitwise the roots of a search for every band below omega_max.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    for alpha in STREAM_ALPHAS:
        expected = every_accepted_root[name, alpha][:band_count]
        assert len(expected) == band_count
        omegas, diagnostics = bands_at(alpha, material, crystal, 3, omega_max,
                                       band_count)
        assert omegas == tuple(r[0] for r in expected)
        assert diagnostics == tuple(r[1] for r in expected)


def test_zone_centre_search_stops_within_a_chunk_of_band_two(monkeypatch):
    # At Gamma on the dilute crystal band 2 lies at 1.9038, far below
    # omega_max = 5: after its first grid the search counts only inside
    # band 2's first bracket, never above it.
    alpha = np.zeros(2)
    batches = _first_batches(monkeypatch)
    (w1, w2), _ = bands_at(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 7, 5.0)
    assert w1 == 0.0
    assert w2 == pytest.approx(DILUTE_GAMMA_BAND2, abs=1e-8)
    grid = batches[0]
    hi = grid[np.searchsorted(grid, DILUTE_GAMMA_BAND2)]
    lo = hi - grid[0]
    later = np.concatenate(batches[1:])
    assert later.size and np.all((later > lo) & (later < hi))


def test_refined_corner_root_lies_inside_its_scan_bracket():
    counts = _counts(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 0.3))
    (bracket,) = _answered(counts.isolate([1]))
    ((root, diagnostics),) = _answered(counts.polish([bracket]))
    lo, hi = counts._span(*bracket)
    assert lo < root <= hi
    assert hi - lo < bands._BRACKET_WIDTH * (1.0 + hi)
    assert root == pytest.approx(DILUTE_M_BAND1, abs=1e-9)
    assert diagnostics.iterations >= 1


@pytest.mark.parametrize("alpha", [(np.pi, 0.0), M_ALPHA])
@pytest.mark.parametrize("name", sorted(STREAM_CRYSTALS))
def test_acceptance_indicator_is_the_svd_indicator(name, alpha):
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    omegas, diagnostics = bands_at(alpha, material, crystal, 3, omega_max)
    assert len(omegas) == 2
    for omega, diag in zip(omegas, diagnostics):
        matrix, row_scale = assemble_characteristic_matrix(
            omega, BlochProblem(alpha, material, crystal, 3))
        assert diag.indicator == _indicator(matrix, row_scale)


def test_retruncated_root_is_stable_for_the_dilute_crystal():
    w5 = retruncated_root(DILUTE_M_BAND1, M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3)
    assert abs(w5 - DILUTE_M_BAND1) <= 1e-9 * (1.0 + DILUTE_M_BAND1)


def test_retruncated_root_isolates_a_band_next_to_a_pole():
    # Band 2 of the dilute crystal at M lies within 5.4e-6 of a pole of H at
    # N = 9, inside the certified bracket; the count isolates it.
    (_, w2), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7, 5.0)
    moved = retruncated_root(w2, M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7)
    assert abs(moved - w2) <= 1e-6 * (1.0 + w2)
    with pytest.raises(BandNotFoundError, match="no single band"):
        retruncated_root(4.0, M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7)


def test_band_one_tracks_the_predicted_branch():
    # Band 1 below 1.4 times the capacity estimate, as `compare` searches
    # it at contrast 1000.
    mat = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)
    tiny = DiskCrystal(radius=0.0125)
    (root,), _ = bands_at(M_ALPHA, mat, tiny, 3, 1.4 * 1.843937, band_count=1)
    assert root == pytest.approx(1.781941897, abs=1e-6)


# ---------------------------------------------------------------------------
# path sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def small_sweep():
    """First band of the dilute crystal on a coarse closed path."""
    return band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=6,
                          band_count=1, omega_max=0.4)


def test_sweep_covers_the_closed_path(small_sweep):
    assert len(small_sweep.points) == 3 * 6 + 1
    assert small_sweep.failures == ()
    s_values = [p.s for p in small_sweep.points]
    assert s_values == sorted(s_values)
    assert s_values[0] == 0.0 and s_values[-1] == 1.0


def test_sweep_endpoints_are_the_zone_centre_with_zero_frequency(small_sweep):
    first, last = small_sweep.points[0], small_sweep.points[-1]
    for point in (first, last):
        assert np.allclose(point.alpha, 0.0)
        assert point.omegas[0] == 0.0


def test_sweep_first_band_maximum_sits_at_the_corner(small_sweep):
    assert np.allclose(small_sweep.argmax_alpha, [np.pi, np.pi])
    star_s = small_sweep.points[
        int(np.argmax([p.omegas[0] for p in small_sweep.points]))
    ].s
    assert star_s == pytest.approx(2.0 / 3.0)
    assert small_sweep.omega_star == max(p.omegas[0] for p in small_sweep.points)


def test_sweep_first_band_decays_towards_the_zone_centre(small_sweep):
    # acoustic branch: omega_1 -> 0 monotonically on both edges touching Gamma
    outgoing = [p.omegas[0] for p in small_sweep.points[:5]]
    assert all(b > a for a, b in zip(outgoing, outgoing[1:]))
    incoming = [p.omegas[0] for p in small_sweep.points[-5:]]
    assert all(b < a for a, b in zip(incoming, incoming[1:]))


def test_sweep_accepted_roots_meet_the_indicator_tolerance(small_sweep):
    for point in small_sweep.points:
        for omega, diag in zip(point.omegas, point.diagnostics):
            if omega == 0.0:
                continue
            assert diag.indicator <= 1e-6
            assert diag.iterations >= 1


def test_sweep_rerun_is_bitwise_deterministic(small_sweep):
    again = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=6,
                           band_count=1, omega_max=0.4)
    assert [p.omegas for p in again.points] == [p.omegas for p in small_sweep.points]
    assert again.omega_star == small_sweep.omega_star


@pytest.mark.parametrize("resolution", [3, 5])
def test_sweep_solves_the_closing_corner_once(monkeypatch, resolution):
    # Each search returns values unique to its call, so the closing corner
    # shows whether it was solved again or carries the opening result.  A
    # search is a generator; these ask for no evaluation.
    calls = []

    def numbered(alpha, *args):
        calls.append(np.array(alpha))
        n = len(calls)
        return (0.1 * n, 0.1 * n + 1.0), (RootDiagnostics(1e-9 * n, n),
                                           RootDiagnostics(2e-9 * n, n))
        yield

    monkeypatch.setattr(bands, "_band_search", numbered)
    structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3,
                               resolution=resolution)
    assert len(calls) == 3 * resolution
    first, last = structure.points[0], structure.points[-1]
    assert (first.s, last.s) == (0.0, 1.0)
    assert np.array_equal(last.alpha, [0.0, 0.0])
    assert last.omegas == first.omegas == (0.1, 1.1)
    assert last.diagnostics == first.diagnostics

    def fails_at_centre(alpha, *args):
        if not np.any(alpha):
            calls.append(np.array(alpha))
            raise BandNotFoundError(f"no band at call {len(calls)}")
        return (yield from numbered(alpha, *args))

    calls.clear()
    monkeypatch.setattr(bands, "_band_search", fails_at_centre)
    structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3,
                               resolution=resolution)
    assert structure.failures == ((0.0, (0.0, 0.0), "no band at call 1"),
                                  (1.0, (0.0, 0.0), "no band at call 1"))
    assert len(structure.points) == 3 * resolution - 1
    assert len(calls) == 3 * resolution


def test_sweep_drops_its_table_when_a_point_fails(monkeypatch):
    # A failed point keeps its reason as a string, not the exception, whose
    # traceback's frames would hold the point's counts until the cycle
    # collector ran: a point whose count finds too few bands, and one whose
    # polish fails.
    tables = []
    real = bands._Counts

    def recorded(*args, **kwargs):
        table = real(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(bands, "_Counts", recorded)
    gc.disable()
    try:
        structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=3,
                                   band_count=1, omega_max=0.25)
        assert structure.failures
        assert tables and all(table() is None for table in tables)
        tables.clear()
        _nan_above_one_at_x(monkeypatch)
        structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=3,
                                   omega_max=5.0)
        assert [reason.startswith("no count at omega=")
                for *_, reason in structure.failures] == [True]
        assert tables and all(table() is None for table in tables)
    finally:
        gc.enable()


# The searches of a sweep advance together (``bands._drive``).
NONDILUTE_SWEEP = (NONDILUTE_MAT, NONDILUTE_CRYSTAL, 3,
                   dict(resolution=6, band_count=2, omega_max=5.2))
LOCKSTEP_SWEEPS = {
    "nondilute": NONDILUTE_SWEEP,
    "dilute": (DILUTE_MAT, DILUTE_CRYSTAL, 7,
               dict(resolution=3, band_count=2, omega_max=5.0)),
    # 8 of its 13 points find fewer than 4 bands below omega_max
    "nondilute-N5": (NONDILUTE_MAT, NONDILUTE_CRYSTAL, 5,
                     dict(resolution=4, band_count=4, omega_max=7.0)),
}


def _nan_above_one_at_x(monkeypatch):
    """Band 2's polish at X gets no eigenvalues of H, as in a failed count."""
    real_eigenvalues = bands.batch_h_eigenvalues

    def no_band_two_at_x(batch):
        values = real_eigenvalues(batch)
        for (problem, omegas), rows in zip(batch, values):
            if np.array_equal(problem.alpha, lattice.X_POINT):
                rows[omegas > 1.0] = np.nan
        return values

    monkeypatch.setattr(bands, "batch_h_eigenvalues", no_band_two_at_x)


@pytest.mark.parametrize("name, inject", [
    ("nondilute", False), ("dilute", False), ("nondilute-N5", False),
    ("dilute", True)])
def test_sweep_equals_its_points_searched_one_at_a_time(monkeypatch, name, inject):
    # Every root, diagnostic and failure reason of a sweep is bitwise the
    # one bands_at gives its point alone.
    material, crystal, truncation, settings = LOCKSTEP_SWEEPS[name]
    if inject:
        _nan_above_one_at_x(monkeypatch)
    structure = band_structure(material, crystal, truncation, **settings)
    alone = {}
    for s, alpha in bands._path_samples(settings["resolution"]):
        try:
            alone[s] = bands_at(alpha, material, crystal, truncation,
                                settings["omega_max"], settings["band_count"])
        except BandNotFoundError as exc:
            alone[s] = str(exc)
    swept = {p.s: (p.omegas, p.diagnostics) for p in structure.points}
    swept.update({s: reason for s, _, reason in structure.failures})
    assert swept == alone
    failures = [reason for s, _, reason in structure.failures]
    if name == "nondilute-N5":
        assert len(failures) == 8 and all(f.startswith("found ") for f in failures)
    if inject:
        assert failures == [alone[1.0 / 3.0]]
        assert failures[0].startswith("no count at omega=")


def test_sweep_builds_one_engine_per_bloch_vector():
    # The engine cache holds every search in flight, so no engine of a
    # sweep is built twice: 18 distinct Bloch vectors, 18 engines.
    material, crystal, truncation, settings = NONDILUTE_SWEEP
    lattice._engine_for.cache_clear()
    band_structure(material, crystal, truncation, **settings)
    assert lattice._engine_for.cache_info().misses == 18


def _batch_sizes(monkeypatch):
    """Record the frequencies of every cylinder and lattice-sum batch."""
    sizes = {"cylinder": [], "lattice": []}
    real_factors = multipole.cylinder_factors
    real_table = lattice.LatticeSumEngine.table

    def factors(omegas, *args):
        sizes["cylinder"].append(np.size(omegas))
        return real_factors(omegas, *args)

    def table(self, k):
        sizes["lattice"].append(np.size(k))
        return real_table(self, k)

    monkeypatch.setattr(multipole, "cylinder_factors", factors)
    monkeypatch.setattr(lattice.LatticeSumEngine, "table", table)
    return sizes


def test_sweep_batches_stay_within_the_cap(monkeypatch):
    # The first step counts 18 x _GRID frequencies in calls of at most
    # _BATCH_CAP, each holding the grids of several points.
    sizes = _batch_sizes(monkeypatch)
    material, crystal, truncation, settings = NONDILUTE_SWEEP
    band_structure(material, crystal, truncation, **settings)
    for kind in ("cylinder", "lattice"):
        assert max(sizes[kind]) <= bands._BATCH_CAP
    assert sizes["cylinder"][0] > bands._GRID


def test_sweep_steps_all_its_bloch_vectors_together(monkeypatch):
    # One cylinder batch per chunk of a step's counts or H spectra, and one
    # per point for its indicator: 58 calls, where a sweep that searched
    # its points one after another made 281.
    sizes = _batch_sizes(monkeypatch)
    material, crystal, truncation, settings = NONDILUTE_SWEEP
    band_structure(material, crystal, truncation, **settings)
    assert len(sizes["cylinder"]) == 58


def test_a_step_packs_whole_requests_into_capped_calls(monkeypatch):
    # With a cap of 7 frequencies, a request of 10 gets a call of its own
    # and the next two share one; each gets bitwise its result alone.
    monkeypatch.setattr(bands, "_BATCH_CAP", 7)
    requests = [
        (BlochProblem(alpha, NONDILUTE_MAT, NONDILUTE_CRYSTAL, 3), omegas)
        for alpha, omegas in [((0.0, 0.0), np.linspace(0.3, 5.0, 10)),
                              (M_ALPHA, np.array([0.2, 4.1])),
                              ((np.pi, 0.0), np.linspace(1.0, 4.0, 5))]]
    for batch in (multipole.batch_counts, multipole.batch_h_eigenvalues):
        calls = []

        def recorded(pairs):
            calls.append([omegas.size for _, omegas in pairs])
            return batch(pairs)

        results = bands._evaluate(recorded, requests)
        assert calls == [[10], [2, 5]]
        for got, (problem, omegas) in zip(results, requests):
            (alone,) = batch([(problem, omegas)])
            got, alone = (r if isinstance(r, tuple) else (r,) for r in (got, alone))
            assert [g.tobytes() for g in got] == [a.tobytes() for a in alone]


def test_sweep_validates_resolution_and_band_count():
    with pytest.raises(ValueError):
        band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=2)
    with pytest.raises(ValueError):
        band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=6, band_count=0)


def test_band_point_requires_ascending_frequencies():
    with pytest.raises(ValueError):
        BandPoint(s=0.5, alpha=np.array([1.0, 0.0]), omegas=(0.3, 0.2),
                  diagnostics=(RootDiagnostics(0.0, 1), RootDiagnostics(0.0, 1)))
    # a double band repeats its frequency
    BandPoint(s=0.5, alpha=np.array([1.0, 0.0]), omegas=(0.2, 0.3, 0.3),
              diagnostics=(RootDiagnostics(0.0, 1),) * 3)


# ---------------------------------------------------------------------------
# gap extraction on synthetic structures
# ---------------------------------------------------------------------------

def _synthetic_structure(band_pairs):
    points = tuple(
        BandPoint(s=i / (len(band_pairs) - 1), alpha=np.array([0.1 + i, 0.0]),
                  omegas=pair,
                  diagnostics=tuple(RootDiagnostics(0.0, 1) for _ in pair))
        for i, pair in enumerate(band_pairs)
    )
    return BandStructure.from_points(points)


def test_extract_gap_two_constant_bands():
    structure = _synthetic_structure([(0.1, 0.2)] * 3)
    assert structure.omega_star == pytest.approx(0.1)
    assert structure.gap == (pytest.approx(0.1), pytest.approx(0.2))
    assert np.array_equal(structure.argmax_alpha, [0.1, 0.0])


def test_extract_gap_closes_when_bands_overlap():
    structure = _synthetic_structure([(0.1, 0.2), (0.25, 0.3), (0.1, 0.2)])
    assert structure.omega_star == pytest.approx(0.25)
    assert np.array_equal(structure.argmax_alpha, [1.1, 0.0])
    assert structure.gap is None


def test_extract_gap_requires_two_bands_per_point():
    structure = _synthetic_structure([(0.1, 0.2), (0.15,), (0.1, 0.2)])
    assert structure.omega_star == pytest.approx(0.15)
    assert structure.gap is None
