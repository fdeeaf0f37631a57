"""End-to-end acceptance sweep.

One test per acceptance criterion.  Each test prints a single summary line

    ACCEPTANCE <n> <title>: PASS|FAIL -- <measured values>

straight to the terminal (bypassing capture) before asserting, so the
sweep always yields one verdict line per criterion even on a red run.
The expensive band-structure computations are session fixtures, so each
wall-clock budget covers exactly one computation.

Known red: the truncation-stability criterion re-refines every reported
band frequency with the multipole order raised by two.  The non-dilute
structure is pinned at truncation 3, where the expansion is not yet
converged; its roots move by more than the stability bar and the test
reports the measured drift honestly rather than loosening the bar.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles as ref
from conftest import draw_admissible_points

from bubblebands import lattice as lat
from bubblebands import multipole as mp
from bubblebands.bands import (
    BandNotFoundError,
    band_structure,
    bands_at,
    retruncated_root,
)
from bubblebands.cli import RunConfig, main, run_compare, run_dilute
from bubblebands.lattice import M_POINT, LatticeSumTable
from bubblebands.multipole import DiskCrystal, MaterialParams

DILUTE_MATERIAL = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)
NONDILUTE_MATERIAL = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)


def _emit(capsys, number, title, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {title}: {verdict} -- {detail}", flush=True)


def _csv_rows(path):
    """Data rows (as dicts keyed by the header) and `#` footer lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    footers = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]], footers


def _strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# session fixtures: one computation per figure-level result
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def dilute_structure():
    """Two-band sweep of the dilute crystal: R=0.05, contrast 5000, order 7."""
    start = time.perf_counter()
    structure = band_structure(
        DILUTE_MATERIAL, DiskCrystal(radius=0.05), 7,
        resolution=30, band_count=2, omega_max=5.0,
    )
    return structure, time.perf_counter() - start


@pytest.fixture(scope="session")
def nondilute_structure():
    """Two-band sweep of the non-dilute crystal: R=0.25, contrast 1000, order 3."""
    start = time.perf_counter()
    structure = band_structure(
        NONDILUTE_MATERIAL, DiskCrystal(radius=0.25), 3,
        resolution=30, band_count=2, omega_max=5.2,
    )
    return structure, time.perf_counter() - start


@pytest.fixture(scope="session")
def compare_result(tmp_path_factory):
    """Exact-vs-estimate resonance comparison over a contrast ladder."""
    out = tmp_path_factory.mktemp("acceptance-compare") / "compare.csv"
    config = RunConfig(radius=0.0125, truncation_N=3, output_path=str(out))
    start = time.perf_counter()
    path = run_compare(config, [100.0, 300.0, 1000.0, 3000.0])
    elapsed = time.perf_counter() - start
    rows, footers = _csv_rows(path)
    return rows, footers, elapsed


@pytest.fixture(scope="session")
def dilute_sweep_result(tmp_path_factory):
    """Peak-frequency ratio against shrinking radius at fixed contrast 1000."""
    out = tmp_path_factory.mktemp("acceptance-dilute") / "dilute.csv"
    config = RunConfig(
        truncation_N=5, path_resolution=30, omega_max=0.8, output_path=str(out),
    )
    start = time.perf_counter()
    path = run_dilute(config, [0.25, 0.1, 0.05], contrast=1000.0)
    elapsed = time.perf_counter() - start
    rows, footers = _csv_rows(path)
    return rows, footers, elapsed


@pytest.fixture(scope="session")
def bands_run_pair(tmp_path_factory):
    """The same `bands` invocation executed twice into separate files."""
    base = tmp_path_factory.mktemp("acceptance-determinism")
    config = {
        "radius": 0.05, "rho": 5000.0, "kappa": 5000.0,
        "rho_b": 1.0, "kappa_b": 1.0,
        "truncation_N": 5, "path_resolution": 3, "omega_max": 5.0,
    }
    config_path = base / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for stem in ("first.csv", "second.csv"):
        out = base / stem
        rc = main(["bands", "--config", str(config_path), "--output", str(out)])
        assert rc == 0
        outputs.append(out)
    return outputs


# ---------------------------------------------------------------------------
# 1. cylinder-function identities
# ---------------------------------------------------------------------------

def test_acceptance_1_cylinder_identities(capsys):
    start = time.perf_counter()
    orders = range(16)
    arguments = np.geomspace(0.05, 300.0, 25)
    radius = 0.25

    # Wronskian J_n H1_n' - J_n' H1_n = 2i / (pi x) of the production tables.
    worst_wronskian = 0.0
    for x in arguments:
        j, jp, h, hp = mp._cyl_tables(max(orders), float(x))
        wronskian = j * hp - jp * h
        worst_wronskian = max(
            worst_wronskian,
            float(np.max(np.abs(wronskian * (math.pi * x / 2j) - 1.0))),
        )

    # Exterior-minus-interior derivative jump of the free single layer on
    # the disk boundary, probed through the lattice machinery with a table
    # of identically zero lattice sums (the single-bubble limit).
    worst_jump = 0.0
    for x in arguments[::2]:
        k = float(x) / radius
        table = LatticeSumTable(
            k=complex(k), alpha=np.asarray(M_POINT, dtype=float), order_max=30,
            values=np.zeros(61, dtype=complex), est_error=0.0,
        )
        for n in orders:
            _, ds_out = ref.outer_block_entries(n, n, k, M_POINT, radius, table)
            _, ds_in = ref.inner_block_diag(n, k, radius)
            worst_jump = max(worst_jump, abs((ds_out - ds_in) - 1.0))

    elapsed = time.perf_counter() - start
    ok = worst_wronskian <= 1e-10 and worst_jump <= 1e-10 and elapsed < 1.0
    _emit(
        capsys, 1, "cylinder-function identities", ok,
        f"orders 0..15, arguments 0.05..300: wronskian residual "
        f"{worst_wronskian:.2e}, derivative-jump residual {worst_jump:.2e} "
        f"(bar 1e-10); {elapsed:.2f} s (budget 1 s)",
    )
    assert worst_wronskian <= 1e-10
    assert worst_jump <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. independent oracle agreement
# ---------------------------------------------------------------------------

def test_acceptance_2_oracle_agreement(capsys):
    start = time.perf_counter()

    # (a) free-space single-layer diagonals against boundary quadrature
    rule = ref.QuadratureRule.with_node_count(256)
    free_err = 0.0
    for n, k, radius in [(0, 1.0, 1.0), (2, 1.3, 0.3), (5, 0.7, 0.25),
                         (1, 2.4, 0.45), (4, 0.9, 0.1)]:
        diag, _ = ref.inner_block_diag(n, k, radius)
        free_err = max(free_err, abs(ref.nystrom_free_space(n, k, radius, rule) - diag))

    # (b) zero-wavenumber quasi-periodic matrix against the plane-wave
    # quadrature at the same cutoff (identical truncation window, so the
    # tail cancels and the construction itself is what is compared)
    quasi_err = 0.0
    cutoff = 40
    for alpha, radius in [((np.pi, np.pi), 0.05), ((1.1, 0.4), 0.1)]:
        matrix = ref.quasistatic_matrix(alpha, radius, 2, cutoff)
        for mi, m in enumerate(range(-2, 3)):
            for ni, n in enumerate(range(-2, 3)):
                entry = ref.spectral_reference_entry(m, n, 0.0, alpha, radius, cutoff)
                quasi_err = max(quasi_err, abs(entry - matrix[mi, ni]))

    # (c) accelerated lattice sums against windowed direct summation
    sum_err = 0.0
    for n, k, alpha in draw_admissible_points(seed=20260823, count=10):
        brute = ref.brute_lattice_sum(n, k, alpha)
        value = lat.lattice_sum_table(abs(n), k, alpha).value(n)
        sum_err = max(sum_err, abs(value - brute.value))

    elapsed = time.perf_counter() - start
    ok = (free_err <= 1e-6 and quasi_err <= 1e-8 and sum_err <= 1e-6
          and elapsed < 120.0)
    _emit(
        capsys, 2, "independent oracle agreement", ok,
        f"free-space diag vs quadrature {free_err:.2e} (bar 1e-6), "
        f"quasi-static matrix vs plane-wave sum {quasi_err:.2e} (bar 1e-8), "
        f"lattice sums vs direct summation at 10 random points {sum_err:.2e} "
        f"(bar 1e-6); {elapsed:.0f} s (budget 120 s)",
    )
    assert free_err <= 1e-6
    assert quasi_err <= 1e-8
    assert sum_err <= 1e-6
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. dilute-crystal band gap and peak location
# ---------------------------------------------------------------------------

def test_acceptance_3_dilute_gap(capsys, dilute_structure):
    structure, elapsed = dilute_structure
    star = structure.omega_star
    gap = structure.gap
    reference_peak = 0.2311
    deviation = abs(star - reference_peak) / reference_peak
    at_corner = bool(np.allclose(structure.argmax_alpha, M_POINT, atol=1e-9))

    ok = (gap is not None and gap[1] > gap[0] and at_corner
          and 0.15 < star < 0.3 and deviation <= 0.25 and elapsed < 600.0)
    gap_text = f"({gap[0]:.6f}, {gap[1]:.6f})" if gap is not None else "none"
    covered = len(structure.points)
    _emit(
        capsys, 3, "dilute crystal (R=0.05, contrast 5000)", ok,
        f"omega*={star:.6f} at corner={at_corner}, gap={gap_text}, "
        f"{deviation:.1%} from 0.2311 (bar 25%), "
        f"{covered}/{covered + len(structure.failures)} path points; "
        f"{elapsed:.0f} s (budget 600 s)",
    )
    assert gap is not None and gap[1] > gap[0]
    assert at_corner
    assert 0.15 < star < 0.3
    assert deviation <= 0.25
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 4. non-dilute-crystal band gap
# ---------------------------------------------------------------------------

def test_acceptance_4_nondilute_gap(capsys, nondilute_structure):
    structure, elapsed = nondilute_structure
    star = structure.omega_star
    gap = structure.gap
    reference_peak = 0.1519
    deviation = abs(star - reference_peak) / reference_peak

    ok = (gap is not None and gap[1] > gap[0] and 0.05 < star < 0.3
          and deviation <= 0.5 and elapsed < 600.0)
    gap_text = f"({gap[0]:.6f}, {gap[1]:.6f})" if gap is not None else "none"
    covered = len(structure.points)
    _emit(
        capsys, 4, "non-dilute crystal (R=0.25, contrast 1000)", ok,
        f"omega*={star:.6f}, gap={gap_text}, {deviation:.1%} from 0.1519 "
        f"(bar 50%), {covered}/{covered + len(structure.failures)} path "
        f"points; {elapsed:.0f} s (budget 600 s)",
    )
    assert gap is not None and gap[1] > gap[0]
    assert 0.05 < star < 0.3
    assert deviation <= 0.5
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. contrast scaling of the resonance-estimate error
# ---------------------------------------------------------------------------

def test_acceptance_5_contrast_scaling(capsys, compare_result):
    rows, footers, elapsed = compare_result
    complete = all(row["omega_exact"] for row in rows)
    rel_errors = [float(row["rel_error"]) for row in rows if row["rel_error"]]
    deltas = [float(row["delta"]) for row in rows if row["rel_error"]]
    monotone = len(rel_errors) == 4 and _strictly_decreasing(rel_errors)
    slope = float(np.polyfit(np.log(deltas), np.log(rel_errors), 1)[0]) \
        if len(rel_errors) >= 2 else math.nan

    ok = (complete and monotone and 0.6 <= slope <= 1.4 and elapsed < 600.0
          and not any("warnings" in f for f in footers))
    rel_text = ", ".join(f"{r:.4f}" for r in rel_errors)
    _emit(
        capsys, 5, "contrast scaling (R=0.0125, contrasts 100..3000)", ok,
        f"rel_error=[{rel_text}] strictly decreasing={monotone}, "
        f"log-log slope {slope:.2f} (bar 1.0 +/- 0.4); {elapsed:.0f} s "
        f"(budget 600 s)",
    )
    assert complete and not any("warnings" in f for f in footers)
    assert monotone
    assert 0.6 <= slope <= 1.4
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. shrinking-radius approach to the single-bubble estimate
# ---------------------------------------------------------------------------

def test_acceptance_6_radius_refinement(capsys, dilute_sweep_result):
    rows, footers, elapsed = dilute_sweep_result
    radii = [float(row["radius"]) for row in rows]
    ratios = [float(row["ratio"]) for row in rows]
    offsets = [abs(r - 1.0) for r in ratios]
    monotone = len(ratios) == 3 and _strictly_decreasing(offsets)
    final_in_band = bool(ratios) and 0.75 <= ratios[-1] <= 1.25
    peaks_at_corner = not any("warnings" in f for f in footers)

    ok = monotone and final_in_band and peaks_at_corner and elapsed < 900.0
    ratio_text = ", ".join(f"{rad:g}:{rat:.4f}" for rad, rat in zip(radii, ratios))
    _emit(
        capsys, 6, "shrinking radius (contrast 1000)", ok,
        f"peak/estimate ratios [{ratio_text}] approach 1 monotonically="
        f"{monotone}, final in [0.75, 1.25]={final_in_band}; "
        f"{elapsed:.0f} s (budget 900 s)",
    )
    assert monotone
    assert final_in_band
    assert peaks_at_corner
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 7. truncation stability of every reported band frequency
# ---------------------------------------------------------------------------

def _re_refined_drift(omega, band, alpha, material, crystal, truncation,
                      omega_max):
    """Drift of root ``omega`` of ``band`` when the multipole order is raised by two.

    The tight re-refinement bracket spans +/- 1e-5 (1+omega); if the root
    moves further than that, fall back to the same band below ``omega_max``
    two orders higher, so the report can still show the measured shift.
    """
    try:
        moved = retruncated_root(omega, alpha, material, crystal, truncation)
        return abs(moved - omega), moved
    except BandNotFoundError:
        try:
            moved = bands_at(alpha, material, crystal, truncation + 2,
                             omega_max, band_count=band)[0][band - 1]
            return abs(moved - omega), moved
        except BandNotFoundError:
            return math.inf, None


def test_acceptance_7_truncation_stability(
    capsys, dilute_structure, nondilute_structure, dilute_sweep_result,
    bands_run_pair,
):
    start = time.perf_counter()
    groups = []

    def structure_roots(structure):
        return [
            (point.alpha, band, omega)
            for point in structure.points
            for band, omega in enumerate(point.omegas, start=1)
            if omega != 0.0
        ]

    # Each group: label, material, crystal, truncation, the ceiling its
    # roots were searched below, and its (alpha, band, omega) roots.
    groups.append((
        "dilute structure (order 7)", DILUTE_MATERIAL, DiskCrystal(0.05), 7,
        5.0, structure_roots(dilute_structure[0]),
    ))
    groups.append((
        "non-dilute structure (pinned order 3)", NONDILUTE_MATERIAL,
        DiskCrystal(0.25), 3, 5.2, structure_roots(nondilute_structure[0]),
    ))
    for row in dilute_sweep_result[0]:
        radius = float(row["radius"])
        groups.append((
            f"radius sweep R={radius:g} (order 5)", NONDILUTE_MATERIAL,
            DiskCrystal(radius), 5, 0.8,
            [(M_POINT, 1, float(row["omega_star"]))],
        ))
    csv_roots = [
        ((float(row["alpha_x"]), float(row["alpha_y"])), int(row["band"]),
         float(row["omega"]))
        for row in _csv_rows(bands_run_pair[0])[0]
        if float(row["omega"]) != 0.0
    ]
    groups.append((
        "determinism-run structure (order 5)", DILUTE_MATERIAL,
        DiskCrystal(0.05), 5, 5.0, csv_roots,
    ))

    checked = 0
    exceeded = 0
    worst = None  # (ratio, drift, bar, omega, alpha, label, moved)
    for label, material, crystal, truncation, omega_max, roots in groups:
        for alpha, band, omega in roots:
            drift, moved = _re_refined_drift(omega, band, alpha, material,
                                             crystal, truncation, omega_max)
            bar = 1e-6 * (1.0 + omega)
            checked += 1
            if drift > bar:
                exceeded += 1
            ratio = drift / bar
            if worst is None or ratio > worst[0]:
                worst = (ratio, drift, bar, omega, np.asarray(alpha, float),
                         label, material, crystal, truncation, moved)

    elapsed = time.perf_counter() - start
    ok = exceeded == 0
    if ok:
        detail = (
            f"{checked} reported roots re-refined at +2 orders; worst drift "
            f"{worst[1]:.1e} (bar {worst[2]:.1e}); {elapsed:.0f} s"
        )
    else:
        _, drift, bar, omega, alpha, label, material, crystal, truncation, \
            moved = worst
        followup = ""
        if moved is not None:
            try:
                twice = retruncated_root(moved, alpha, material, crystal,
                                         truncation + 2)
                followup = (
                    f"; the same root recomputed two orders higher still "
                    f"moves only {abs(twice - moved):.1e}, so the drift "
                    f"reflects the pinned low truncation, not the solver"
                )
            except BandNotFoundError:
                followup = ""
        detail = (
            f"{exceeded} of {checked} reported roots exceed the stability "
            f"bar; worst drift {drift:.2e} vs bar {bar:.2e} at "
            f"omega={omega:.6f}, alpha=({alpha[0]:.3f}, {alpha[1]:.3f}) in "
            f"the {label}{followup}; {elapsed:.0f} s"
        )
    _emit(capsys, 7, "truncation stability of reported roots", ok, detail)
    assert exceeded == 0, detail


# ---------------------------------------------------------------------------
# 8. bitwise-identical repeated runs
# ---------------------------------------------------------------------------

def test_acceptance_8_deterministic_output(capsys, bands_run_pair):
    first, second = (path.read_bytes() for path in bands_run_pair)
    identical = first == second
    _emit(
        capsys, 8, "bitwise-identical repeated band runs", identical,
        f"two `bands` invocations wrote {len(first)} and {len(second)} "
        f"bytes; identical={identical}",
    )
    assert identical
