"""Root search and band-structure sweep: scan, Muller refinement, path."""

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
    RejectedRootError,
    RootDiagnostics,
    RootNotConvergedError,
    band_structure,
    bands_at,
    muller_refine,
    resonance_near,
    retruncated_root,
)
from bubblebands.multipole import (
    BlochProblem,
    DiskCrystal,
    MaterialParams,
    assemble_characteristic_matrix,
)

DILUTE_MAT = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)
NONDILUTE_MAT = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)
DILUTE_CRYSTAL = DiskCrystal(radius=0.05)
M_ALPHA = (np.pi, np.pi)

# First band of the dilute crystal at the zone corner, refined until the
# Muller step stalls; identical at truncations 5, 7 and 9.
DILUTE_M_BAND1 = 0.259140642470186
# Second band of the same crystal at the zone centre (upper gap edge).
DILUTE_GAMMA_BAND2 = 1.903817916843799


# ---------------------------------------------------------------------------
# singular value indicator
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
    values = bands._least_gram_eigenvalues(pair)
    for value, spectrum in zip(values, spectra):
        assert abs(value - spectrum[-1] ** 2) <= _gram_roundoff(size, spectrum[0])
    return values


@pytest.mark.parametrize("alpha", GRAM_ALPHAS)
@pytest.mark.parametrize("material, crystal", GRAM_CRYSTALS)
def test_gram_eigenvalue_is_the_squared_smallest_singular_value(material, crystal,
                                                                 alpha):
    omegas = np.array([0.26, 0.9, 1.9, 3.3, 4.5])
    pair = BlochProblem(alpha, material, crystal, 3).entries(omegas)
    assert np.all(np.isfinite(pair[0]))
    _assert_gram_matches_svd(pair)


def test_gram_eigenvalue_of_random_stacks_with_a_rank_deficient_matrix():
    for seed, size in ((0, 14), (1, 30)):
        values = _assert_gram_matches_svd(_random_stack(seed, 6, size))
        # sigma_max <= size once every entry is at most 1 in modulus
        assert abs(values[1]) <= _gram_roundoff(size, 1.0 * size)
        assert np.all(values[[0, 2, 3, 4, 5]] > _gram_roundoff(size, 1.0 * size))


def test_gram_eigenvalue_marks_only_nonfinite_matrices():
    stack, scale = _random_stack(2, 5, 14)
    clean = bands._least_gram_eigenvalues((stack, scale))
    stack[1, 3, 5] = np.nan
    stack[3, 0, 0] = np.inf
    values = bands._least_gram_eigenvalues((stack, scale))
    assert np.all(np.isinf(values[[1, 3]]))
    assert np.array_equal(values[[0, 2, 4]], clean[[0, 2, 4]])


@pytest.mark.parametrize("alpha", GRAM_ALPHAS)
def test_gram_eigenvalue_in_a_stack_equals_its_batch_of_one(alpha):
    omegas = np.array([0.26, 0.9, 1.9, 3.3, 4.5])
    pairs = [BlochProblem(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 3).entries(omegas),
             _random_stack(3, 5, 30)]
    for stack, scale in pairs:
        values = bands._least_gram_eigenvalues((stack, scale))
        for k, value in enumerate(values):
            single = bands._least_gram_eigenvalues((stack[k : k + 1], scale[k : k + 1]))
            assert single[0] == value


# ---------------------------------------------------------------------------
# Muller refinement on generic functions
# ---------------------------------------------------------------------------

def test_muller_finds_sqrt_two():
    result = muller_refine(lambda x: x * x - 2.0, 1.0, 2.0, 1.5)
    assert result.root.real == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert abs(result.root.imag) < 1e-12


def test_muller_finds_nearest_root_of_quadratic():
    result = muller_refine(lambda x: (x - 0.3) * (x + 5.0), 0.0, 1.0, 0.5)
    assert result.root.real == pytest.approx(0.3, abs=1e-10)


def test_muller_reaches_complex_root_from_real_starts():
    result = muller_refine(lambda x: x * x + 1.0, -1.0, 1.0, 0.5)
    assert abs(result.root.imag) == pytest.approx(1.0, abs=1e-10)


def test_muller_requires_distinct_starts():
    with pytest.raises(ValueError):
        muller_refine(lambda x: x, 1.0, 1.0, 2.0)


def test_muller_flat_function_raises_not_converged():
    with pytest.raises(RootNotConvergedError):
        muller_refine(lambda x: 1.0 + 0.0 * x, 0.0, 1.0, 2.0)


def test_muller_iteration_budget_exhaustion_carries_best_iterate(monkeypatch):
    # a root only reachable slowly: |x|^0.1-like kink slows the quadratic model
    monkeypatch.setattr(bands, "_MULLER_MAX_ITER", 4)
    with pytest.raises(RootNotConvergedError) as info:
        muller_refine(lambda x: 1.0 + abs(x) ** 2, 0.3, 1.0, 2.0)
    assert info.value.iterations == 4
    assert np.isfinite(info.value.best.real)


def test_muller_acceptance_veto_raises_rejected():
    with pytest.raises(RejectedRootError) as info:
        muller_refine(lambda x: x * x - 2.0, 1.0, 2.0, 1.5,
                      accept=lambda root: False)
    assert info.value.root.real == pytest.approx(math.sqrt(2.0), abs=1e-8)


# ---------------------------------------------------------------------------
# scanning and bracketing
# ---------------------------------------------------------------------------

def _scan(alpha, material, crystal, truncation, omega_range):
    """Every bracket of the stream the root search refines, and the flagged zones.

    Composed as ``bands._accepted_roots`` composes it, run to the end of
    ``omega_range``.
    """
    problem = BlochProblem(alpha, material, crystal, truncation)
    omegas, flagged = bands._scan_grid(problem, omega_range)
    brackets = bands._brackets_at_minima(bands._indicator_batches(problem, omegas))
    return list(brackets), flagged


def test_scan_empty_range_yields_no_brackets():
    brackets, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.2, 0.2))
    assert brackets == []


def test_scan_dilute_corner_has_exactly_one_subwavelength_bracket():
    brackets, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 0.3))
    assert len(brackets) == 1
    lo, mid, hi = brackets[0]
    assert lo < mid < hi
    assert 0.25 < mid < 0.27


def test_scan_brackets_iterate_in_ascending_order():
    brackets, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 5.0))
    mids = [mid for _, mid, _ in brackets]
    assert mids == sorted(mids)
    assert len(mids) >= 2  # resonance band plus the folded band above


@pytest.mark.parametrize("alpha, omega_range, root", [
    ((0.0, 0.0), (3.9, 4.2), 4.065824186457238),
    (M_ALPHA, (0.0, 0.4), 0.20388894318544015),
])
def test_scan_brackets_a_root_where_one_row_vanishes(alpha, omega_range, root):
    # At these two roots of the acceptance-4 crystal T's monopole row
    # vanishes on its own while the other rows stay near unit size.  Scaled
    # by its own max-norm that row would come back to unit size and the scan
    # would see no minimum; the row scale of the block system keeps it small.
    brackets, _ = _scan(alpha, NONDILUTE_MAT, NONDILUTE_CRYSTAL, 3, omega_range)
    assert [b for b in brackets if b[0] <= root <= b[2]]


def test_scan_flags_zone_centre_low_frequency_resonance():
    # at alpha = 0 the k -> 0 empty-lattice resonance sits at omega -> 0
    _, flagged = _scan((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 0.2))
    assert flagged, "guard zone near omega=0 must be flagged"
    lo, hi = flagged[0]
    assert lo < 0.06 and hi <= 0.06


def test_scan_step_halving_preserves_the_refined_root(monkeypatch):
    fine, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.2, 0.3))
    monkeypatch.setattr(bands, "_STEP_LOW", 2.0 * bands._STEP_LOW)
    coarse, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.2, 0.3))
    assert len(coarse) == len(fine) == 1
    # both brackets must contain the frozen root
    for lo, _, hi in (coarse[0], fine[0]):
        assert lo <= DILUTE_M_BAND1 <= hi


@pytest.mark.parametrize("alpha", [(0.0, 0.0), (np.pi / 15, 0.0), (np.pi, 0.0),
                                   M_ALPHA, (np.pi, 0.7 * np.pi)])
def test_scan_grid_ends_without_a_roundoff_step(alpha):
    # Half-stepping makes steps of exactly half; no step may be shorter.  At
    # (pi/15, 0) the walk reaches 4.999999999999938 and used to take a final
    # step of 6e-14 to 5.0.
    for material, omega_max in ((DILUTE_MAT, 5.0), (NONDILUTE_MAT, 5.2)):
        for omega_range in ((0.0, omega_max), (0.9, 1.7)):
            problem = BlochProblem(alpha, material, DILUTE_CRYSTAL, 3)
            omegas, _ = bands._scan_grid(problem, omega_range)
            assert omegas[-1] == omega_range[1]
            assert np.min(np.diff(omegas)) >= 0.25 * bands._STEP_LOW


def test_scan_evaluates_the_grid_in_batches(monkeypatch):
    # One lattice-sum fit per scan, checked against direct tables at its 31
    # midpoints and the top, in two calls; the batches read the fit and
    # make no table call of their own.  Where the fit is refused, exactly
    # one lattice-sum batch per chunk of the grid: tens of table calls
    # where a call per frequency makes about 720.
    calls, fits = [], []
    real_table = lattice.LatticeSumEngine.table
    real_fit = bands.lattice_sum_fit

    def counted(self, k):
        calls.append((self, np.size(k)))
        return real_table(self, k)

    def fitted(*args):
        fits.append(args)
        return real_fit(*args)

    monkeypatch.setattr(lattice.LatticeSumEngine, "table", counted)
    monkeypatch.setattr(bands, "lattice_sum_fit", fitted)
    _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7, (0.0, 5.0))
    assert len(fits) == 1
    assert [size for _, size in calls] == [lattice._FIT_NODES // 2] * 2

    calls.clear()
    monkeypatch.setattr(bands, "lattice_sum_fit", lambda *args: None)
    _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7, (0.0, 5.0))
    omegas, _ = bands._scan_grid(BlochProblem(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 7),
                                 (0.0, 5.0))
    chunk = bands._CHUNK_ENTRIES // 15**2
    chunks = -(-omegas.size // chunk)
    assert len(calls) == chunks < 100
    assert len({engine for engine, _ in calls}) == 1
    assert sum(size for _, size in calls) == omegas.size


def test_scan_batch_marks_only_its_failed_frequencies():
    # 2.1253 lies 0.004 above the empty-lattice line |alpha| = 2.12132, inside
    # the guard.  At 13.0 (k = 13) the radial series of the lattice sums
    # leaves a tail above the tolerance, so 13.0 fails the tail test.  Both
    # get inf; the others match the single-frequency path exactly and the
    # squared SVD indicator to roundoff.  Alone, as in the batch, the two
    # failed frequencies get NaN in every entry and every row scale: each
    # entry needs the lattice sums.
    problem = BlochProblem((0.3, 2.1), DILUTE_MAT, DILUTE_CRYSTAL, 3)
    omegas = np.array([0.5, 1.0, 2.1253, 3.0, 13.0])
    stack, scale = problem.entries(omegas)
    for i in (2, 4):
        single, single_scale = assemble_characteristic_matrix(omegas[i], problem)
        assert np.all(np.isnan(single)) and np.all(np.isnan(single_scale))
        assert np.array_equal(single, stack[i], equal_nan=True)
        assert np.array_equal(single_scale, scale[i], equal_nan=True)
    values = bands._least_gram_eigenvalues((stack, scale))
    assert np.all(np.isinf(values[[2, 4]]))
    for omega, value in zip(omegas[[0, 1, 3]], values[[0, 1, 3]]):
        matrix, row_scale = assemble_characteristic_matrix(omega, problem)
        pair = (matrix[None], row_scale[None])
        assert value == bands._least_gram_eigenvalues(pair)[0]
        sigma_max = bands._singular_values(pair)[0, 0]
        assert abs(value - _indicator(matrix, row_scale) ** 2) <= _gram_roundoff(
            matrix.shape[0], sigma_max)


def _per_point_brackets(omegas, values):
    """The bracket rule as a loop over the whole profile: the reference."""
    brackets = []
    for i in range(1, len(omegas) - 1):
        window = values[i - 1 : i + 2]
        if not np.all(np.isfinite(window)):
            continue
        if values[i] <= values[i - 1] and values[i] <= values[i + 1] and (
            values[i] < values[i - 1] or values[i] < values[i + 1]
        ):
            brackets.append((omegas[i - 1], omegas[i], omegas[i + 1]))
    return brackets


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf, math.nan]),
                       max_size=30))
def test_bracket_rule_in_pieces_matches_the_per_point_loop(values):
    # Few distinct values make ties and plateaus; inf marks failed
    # frequencies.  However the profile is cut into pieces, the stream must
    # yield the brackets of the loop over the whole profile, in order.
    values = np.array(values)
    omegas = 0.01 * np.arange(1, values.size + 1)
    expected = _per_point_brackets(omegas, values)
    for cut in range(values.size + 1):
        pieces = [(omegas[:cut], values[:cut]), (omegas[cut:], values[cut:])]
        assert list(bands._brackets_at_minima(pieces)) == expected
    for chunk in range(1, values.size + 1):
        pieces = [(omegas[i : i + chunk], values[i : i + chunk])
                  for i in range(0, values.size, chunk)]
        assert list(bands._brackets_at_minima(pieces)) == expected


BRACKET_ALPHAS = [(0.0, 0.0), (np.pi / 5, 0.0), (np.pi, 0.0), (np.pi, 0.5 * np.pi),
                  M_ALPHA, (0.5 * np.pi, 0.5 * np.pi), (0.3, 2.1),
                  (2.0 * np.pi / 3, np.pi / 3)]
BRACKET_CASES = (
    [("dilute", alpha, 3) for alpha in BRACKET_ALPHAS]
    + [("nondilute", alpha, 3) for alpha in BRACKET_ALPHAS]
    + [("dilute", (0.0, 0.0), 7), ("dilute", M_ALPHA, 7)]
)


@pytest.mark.parametrize("name, alpha, truncation", BRACKET_CASES)
def test_gram_profile_brackets_equal_the_svd_profile_brackets(monkeypatch, name,
                                                               alpha, truncation):
    # The scan's own batches over the whole grid; each stack and its row
    # scales are also given to the SVD.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    problem = BlochProblem(alpha, material, crystal, truncation)
    omegas, _ = bands._scan_grid(problem, (0.0, omega_max))
    smallest = []
    real = bands._least_gram_eigenvalues

    def with_svd(pair):
        smallest.append(bands._singular_values(pair)[:, -1])
        return real(pair)

    monkeypatch.setattr(bands, "_least_gram_eigenvalues", with_svd)
    profile = list(bands._indicator_batches(problem, omegas))
    assert np.array_equal(np.concatenate([batch for batch, _ in profile]), omegas)
    gram_brackets = list(bands._brackets_at_minima(profile))
    svd_brackets = list(bands._brackets_at_minima([(omegas, np.concatenate(smallest))]))
    assert gram_brackets == svd_brackets
    assert gram_brackets


def _direct_profile(problem, omegas):
    """The indicator profile with every batch built by ``BlochProblem.entries``.

    The direct lattice sums and cylinder functions of each batch, chunked as
    the scan chunks its grid: the reference for the fitted scan.
    """
    chunk = bands._CHUNK_ENTRIES // (2 * problem.truncation + 1) ** 2
    return [(omegas[i : i + chunk],
             bands._least_gram_eigenvalues(problem.entries(omegas[i : i + chunk])))
            for i in range(0, omegas.size, chunk)]


# The two sweep workloads of the benchmark (``bands-dilute`` and
# ``bands-nondilute``): crystal, truncation and path resolution.
SWEEP_WORKLOADS = {"dilute": (7, 3), "nondilute": (3, 6)}
FITTED_SCAN_CASES = BRACKET_CASES + [
    (name, tuple(alpha), truncation)
    for name, (truncation, resolution) in SWEEP_WORKLOADS.items()
    for _, alpha in bands._path_samples(resolution)[:-1]
]


@pytest.fixture(scope="module")
def sweep_tables():
    """One cylinder table per crystal and truncation, shared as a sweep shares it."""
    tables = {}

    def table(name, truncation):
        if (name, truncation) not in tables:
            material, crystal, omega_max = STREAM_CRYSTALS[name]
            tables[name, truncation] = bands._CylinderTable(
                material, crystal, truncation, omega_max)
        return tables[name, truncation]

    return table


@pytest.mark.parametrize("name, alpha, truncation", FITTED_SCAN_CASES)
def test_fitted_scan_brackets_equal_the_direct_brackets(sweep_tables, name, alpha,
                                                         truncation):
    # The scan's batches read a lattice-sum fit and the sweep's cylinder
    # table; on the same grid their brackets must be those of batches built
    # from direct tables, which is what the scan computed before the fit.
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    problem = BlochProblem(alpha, material, crystal, truncation)
    omegas, _ = bands._scan_grid(problem, (0.0, omega_max))
    fitted = list(bands._indicator_batches(problem, omegas,
                                           sweep_tables(name, truncation)))
    direct = _direct_profile(problem, omegas)
    assert list(bands._brackets_at_minima(fitted)) == list(
        bands._brackets_at_minima(direct))


def test_scan_past_the_lattice_sum_domain_uses_direct_tables():
    # A range reaching k = 13 fails the fit's tail check, so every batch
    # takes direct tables, and its indicator values are bitwise those of
    # ``BlochProblem.entries``, the frequencies past k ~ 12.1 at inf.
    problem = BlochProblem((0.3, 2.1), DILUTE_MAT, DILUTE_CRYSTAL, 3)
    omegas, _ = bands._scan_grid(problem, (11.0, 13.0))
    assert bands.lattice_sum_fit(6, problem.alpha, omegas[0], omegas[-1]) is None
    scanned = list(bands._indicator_batches(problem, omegas))
    direct = _direct_profile(problem, omegas)
    assert [b.tobytes() for b, _ in scanned] == [b.tobytes() for b, _ in direct]
    assert [v.tobytes() for _, v in scanned] == [v.tobytes() for _, v in direct]
    assert np.isinf(scanned[-1][1][-1])


def test_sweep_table_factors_equal_the_direct_factors():
    # Batches on the lattice come from the table; one with a frequency off
    # it (a range's top) is computed.  Either way each factor is bitwise
    # the direct one.
    table = bands._CylinderTable(DILUTE_MAT, DILUTE_CRYSTAL, 7, 5.0)
    lattice_points = bands._scan_lattice(5.0)
    for omegas in (lattice_points[1:40:3], lattice_points[600:640:2],
                   np.append(lattice_points[700:720], 4.123456789)):
        stored = table.at(omegas)
        direct = multipole.cylinder_factors(omegas, DILUTE_MAT, 0.05, 7)
        for got, want in zip(stored, direct):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bands_at / resonance_near / retruncated_root
# ---------------------------------------------------------------------------

def test_first_two_bands_at_corner_matches_frozen_values():
    (w1, w2), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 5.0)
    assert w1 == pytest.approx(DILUTE_M_BAND1, abs=1e-9)
    assert w2 == pytest.approx(4.5107, abs=5e-3)
    assert w1 < w2


def test_first_two_bands_zone_centre_first_band_is_exactly_zero():
    (w1, w2), _ = bands_at((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3, 2.2)
    assert w1 == 0.0
    assert w2 == pytest.approx(DILUTE_GAMMA_BAND2, abs=1e-8)


def test_first_two_bands_raises_when_ceiling_is_too_low():
    with pytest.raises(BandNotFoundError):
        bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.1)


def test_zone_centre_single_band_assembles_no_matrix(monkeypatch):
    # Every matrix, of the scan or of Muller and acceptance, is built by
    # ``BlochProblem.entries_from``.
    calls = []
    real = BlochProblem.entries_from

    def counted(self, omegas, *args):
        calls.append(omegas)
        return real(self, omegas, *args)

    monkeypatch.setattr(BlochProblem, "entries_from", counted)
    omegas, _ = bands_at((0.0, 0.0), DILUTE_MAT, DILUTE_CRYSTAL, 3, 0.4,
                         band_count=1)
    assert omegas == (0.0,)
    assert len(calls) == 0


def test_muller_iterate_inside_the_guard_skips_only_its_bracket(monkeypatch):
    # All three starts lie at least 0.0101 from the fourfold line
    # pi sqrt(2) = 4.442883 at M, but Muller steps to k = 4.4373, inside the
    # lattice-sum guard.  The bracket is put into the stream the root search
    # consumes, below band 2's bracket; it must be refined, count as
    # unconverged, and not end the search at this Bloch vector.
    guard_bracket = (4.453, 4.455, 4.457)
    real_stream = bands._brackets_at_minima
    real_refine = bands._refine_bracket
    outcomes = []

    def with_guard_bracket(profile):
        pending = [guard_bracket]
        for bracket in real_stream(profile):
            if pending and pending[0][1] < bracket[1]:
                yield pending.pop()
            yield bracket

    def recorded(bracket, *args):
        try:
            result = real_refine(bracket, *args)
        except RootNotConvergedError as exc:
            outcomes.append((bracket, exc))
            raise
        outcomes.append((bracket, result))
        return result

    monkeypatch.setattr(bands, "_brackets_at_minima", with_guard_bracket)
    monkeypatch.setattr(bands, "_refine_bracket", recorded)
    (w1, w2), _ = bands_at(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, 5.0)
    assert w1 == pytest.approx(DILUTE_M_BAND1, abs=1e-9)
    assert w2 == pytest.approx(4.5107, abs=5e-3)
    guard = [outcome for bracket, outcome in outcomes if bracket == guard_bracket]
    assert len(guard) == 1
    assert isinstance(guard[0], RootNotConvergedError)
    assert "no characteristic matrix" in str(guard[0])
    assert outcomes[-1][1][0] == w2


SLOW_HOST_MAT = MaterialParams(rho=10000.0, kappa=1.0, rho_b=1.0, kappa_b=1.0)


def test_muller_iterate_beyond_the_lattice_sum_domain_is_unconverged():
    # Host speed v = 0.01: an iterate with |Im omega| > v has |Im k| > 1,
    # where the lattice sums are not defined.  Muller steps there from the
    # lowest bracket at (pi/3, 0); that bracket ends as unconverged, and the
    # search goes on to the two bands above it.
    alpha = (np.pi / 3, 0.0)
    problem = BlochProblem(alpha, SLOW_HOST_MAT, DILUTE_CRYSTAL, 3)
    with pytest.raises(RootNotConvergedError, match="admissible"):
        bands._refine_bracket((0.008, 0.010, 0.011), problem)
    omegas, _ = bands_at(alpha, SLOW_HOST_MAT, DILUTE_CRYSTAL, 3, 0.3)
    assert omegas == pytest.approx((0.064586339, 0.073818847), abs=1e-8)


STREAM_CRYSTALS = {
    "dilute": (DILUTE_MAT, DILUTE_CRYSTAL, 5.0),
    "nondilute": (NONDILUTE_MAT, NONDILUTE_CRYSTAL, 5.2),
}
STREAM_ALPHAS = [(0.0, 0.0), (np.pi / 5, 0.0), (np.pi, 0.0), (np.pi, 0.5 * np.pi),
                 M_ALPHA, (0.5 * np.pi, 0.5 * np.pi)]


@pytest.fixture(scope="module")
def every_accepted_root():
    """All accepted roots of every scan bracket, by crystal and Bloch vector.

    The reference for the streamed search: each bracket of the stream, run
    to ``omega_max``, is refined in order, and a root within
    ``1e-7 (1 + omega)`` of the previous accepted one is dropped.
    """
    roots = {}
    for name, (material, crystal, omega_max) in STREAM_CRYSTALS.items():
        for alpha in STREAM_ALPHAS:
            accepted = []
            problem = BlochProblem(alpha, material, crystal, 3)
            brackets, _ = _scan(alpha, material, crystal, 3, (0.0, omega_max))
            for bracket in brackets:
                try:
                    omega, diag = bands._refine_bracket(bracket, problem)
                except (RootNotConvergedError, RejectedRootError):
                    continue
                if accepted and abs(omega - accepted[-1][0]) < 1e-7 * (1.0 + omega):
                    continue
                accepted.append((omega, diag))
            roots[name, alpha] = accepted
    return roots


@pytest.mark.parametrize("band_count", [1, 2])
@pytest.mark.parametrize("name", sorted(STREAM_CRYSTALS))
def test_streamed_search_equals_refining_every_bracket(every_accepted_root, name,
                                                       band_count):
    material, crystal, omega_max = STREAM_CRYSTALS[name]
    for alpha in STREAM_ALPHAS:
        roots = list(every_accepted_root[name, alpha])
        if alpha == (0.0, 0.0):
            roots.insert(0, (0.0, RootDiagnostics(0.0, 0)))
        expected = roots[:band_count]
        assert len(expected) == band_count
        omegas, diagnostics = bands_at(alpha, material, crystal, 3, omega_max,
                                       band_count)
        assert omegas == tuple(r[0] for r in expected)
        assert diagnostics == tuple(r[1] for r in expected)


def test_zone_centre_search_stops_within_a_chunk_of_band_two(monkeypatch):
    # At Gamma on the dilute crystal band 2 lies at 1.9038, far below
    # omega_max = 5: the scan must stop in the chunk that completes band 2's
    # bracket, not evaluate the grid up to 5.
    alpha = np.zeros(2)
    omegas, _ = bands._scan_grid(BlochProblem(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 7),
                                 (0.0, 5.0))
    chunk = bands._CHUNK_ENTRIES // 15**2
    brackets, _ = _scan(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 7, (0.0, 5.0))
    band_two = [bracket for bracket in brackets
                if bracket[0] <= DILUTE_GAMMA_BAND2 <= bracket[2]]
    assert len(band_two) == 1
    last = int(np.flatnonzero(omegas == band_two[0][2])[0])
    # The scan's batches are 1-D arrays; Muller and acceptance build their
    # matrices one frequency at a time.
    evaluated = []
    real = BlochProblem.entries_from

    def counted(self, omegas, *args):
        if np.ndim(omegas):
            evaluated.extend(omegas)
        return real(self, omegas, *args)

    monkeypatch.setattr(BlochProblem, "entries_from", counted)
    (w1, w2), _ = bands_at(alpha, DILUTE_MAT, DILUTE_CRYSTAL, 7, 5.0)
    assert w1 == 0.0
    assert w2 == pytest.approx(DILUTE_GAMMA_BAND2, abs=1e-8)
    assert evaluated == list(omegas[: len(evaluated)])
    assert last + 1 <= len(evaluated) < last + 1 + chunk


def test_refined_corner_root_lies_inside_its_scan_bracket():
    brackets, _ = _scan(M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, (0.0, 0.3))
    lo, _, hi = brackets[0]
    assert lo <= DILUTE_M_BAND1 <= hi


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


def test_resonance_near_tracks_the_predicted_branch():
    mat = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)
    tiny = DiskCrystal(radius=0.0125)
    root = resonance_near(1.843937, M_ALPHA, mat, tiny, 3)
    assert root == pytest.approx(1.781941897, abs=1e-6)


def test_resonance_near_validates_arguments():
    with pytest.raises(ValueError):
        resonance_near(0.0, M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3)
    with pytest.raises(ValueError):
        resonance_near(0.2, M_ALPHA, DILUTE_MAT, DILUTE_CRYSTAL, 3, window=1.5)


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
    # shows whether it was solved again or carries the opening result.
    calls = []

    def numbered(alpha, *args):
        calls.append(np.array(alpha))
        n = len(calls)
        return (0.1 * n, 0.1 * n + 1.0), (RootDiagnostics(1e-9 * n, n),
                                           RootDiagnostics(2e-9 * n, n))

    monkeypatch.setattr(bands, "_bands_at", numbered)
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
        return numbered(alpha, *args)

    calls.clear()
    monkeypatch.setattr(bands, "_bands_at", fails_at_centre)
    structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3,
                               resolution=resolution)
    assert structure.failures == ((0.0, (0.0, 0.0), "no band at call 1"),
                                  (1.0, (0.0, 0.0), "no band at call 1"))
    assert len(structure.points) == 3 * resolution - 1
    assert len(calls) == 3 * resolution


def test_sweep_drops_its_table_when_a_point_fails(monkeypatch):
    # A failed point's exception is kept without its traceback, whose frames
    # would hold the sweep's cylinder table until the cycle collector ran.
    tables = []
    real = bands._CylinderTable

    def recorded(*args):
        table = real(*args)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(bands, "_CylinderTable", recorded)
    gc.disable()
    try:
        structure = band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=3,
                                   band_count=1, omega_max=0.25)
        assert structure.failures
        assert len(tables) == 1 and tables[0]() is None
    finally:
        gc.enable()


def test_sweep_validates_resolution_and_band_count():
    with pytest.raises(ValueError):
        band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=2)
    with pytest.raises(ValueError):
        band_structure(DILUTE_MAT, DILUTE_CRYSTAL, 3, resolution=6, band_count=0)


def test_band_point_requires_ascending_frequencies():
    with pytest.raises(ValueError):
        BandPoint(s=0.5, alpha=np.array([1.0, 0.0]), omegas=(0.3, 0.2),
                  diagnostics=(RootDiagnostics(0.0, 1), RootDiagnostics(0.0, 1)))


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
