"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs once (``__init__``, part of set-up), runs one
round of operations per ``run_round`` call, and checks the outputs of all its
rounds with ``check``.  An operation that fails is counted in the round's
``failed``, never raised: a failing call into the program is caught at the
operation boundary and its traceback goes to stderr.

The inputs are the paper's fixed crystals, so no input is drawn at random.
The seed only shuffles the order of the independent operations of
``minnaert`` (contrasts and Bloch vectors); results must not depend on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bubblebands import bands, capacity, cli
from bubblebands.lattice import M_POINT
from bubblebands.multipole import DiskCrystal, MaterialParams

PI = math.pi


@dataclass
class Round:
    """Outcome of one round: operations attempted and failed, plus outputs."""

    attempted: int
    failed: int
    output: dict = field(default_factory=dict)


def guarded(fn, *args, **kwargs):
    """``(result, None)`` or ``(None, error)``; the traceback goes to stderr."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # an operation failure is counted, not raised
        traceback.print_exc(file=sys.stderr)
        return None, exc


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured standard output of one CLI invocation."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code, _ = guarded(cli.main, argv)
    return (1 if code is None else code), buffer.getvalue()


def _write_config(path: Path, values: dict) -> str:
    path.write_text(json.dumps(values, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _same_point(alpha, target, tol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(alpha, dtype=float), target,
                            rtol=0.0, atol=tol))


# ---------------------------------------------------------------------------
# bands-dilute: the `bands` CLI on its default crystal, path resolution 3
# ---------------------------------------------------------------------------

class BandsDilute:
    """Two-band path sweep of the dilute crystal through the ``bands`` CLI.

    Defaults: R=0.05, contrast 5000, N=7, omega_max=5; resolution 3 gives 10
    path points.  One operation is one path point; a nonzero exit fails all.
    """

    name = "bands-dilute"
    points = 10
    material = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)
    crystal = DiskCrystal(radius=0.05)
    truncation = 7
    # The capacity estimate is first-order accurate in delta = 1/contrast;
    # the `minnaert` ladder measures rel_error <= 40 delta, so 50 delta.
    estimate_tol = 50.0 / 5000.0

    def __init__(self, seed: int, out_dir: Path) -> None:
        del seed  # the inputs are fixed
        self.csv = out_dir / "bands-dilute.csv"
        self.digest_file = out_dir / "bands-dilute.csv.sha256"
        self.argv = ["bands",
                     "--config", _write_config(out_dir / "bands-dilute.json",
                                               {"path_resolution": 3}),
                     "--output", str(self.csv)]

    def run_round(self) -> Round:
        code, _ = run_cli(self.argv)
        if code != 0:
            return Round(self.points, self.points)
        return Round(self.points, 0, {"csv": self.csv.read_bytes()})

    def check(self, rounds: list[Round], source_digest: str) -> list[str]:
        texts = [r.output["csv"] for r in rounds if "csv" in r.output]
        if not texts:
            return ["no round produced a CSV"]
        problems = []
        if any(t != texts[0] for t in texts):
            problems.append("CSV differs between rounds of one run")
        problems += _check_csv_repeats(texts[0], self.digest_file,
                                       source_digest)
        rows, footer = _parse_bands_csv(texts[0].decode("utf-8"))
        by_point: dict[float, list] = {}
        for s, ax, ay, band, omega in rows:
            by_point.setdefault(s, []).append((band, omega, (ax, ay)))
        if len(by_point) != self.points:
            problems.append(f"{len(by_point)} path points, not {self.points}")
        for s, entries in by_point.items():
            omegas = [w for _, w in sorted((b, w) for b, w, _ in entries)]
            alpha = entries[0][2]
            if len(omegas) != 2 or not all(map(math.isfinite, omegas)) \
                    or not omegas[0] < omegas[1]:
                problems.append(f"bands at s={s} not two ascending: {omegas}")
            if _same_point(alpha, (0.0, 0.0)) and omegas[0] != 0.0:
                problems.append(f"band 1 at Gamma is {omegas[0]}, not 0")
        star = footer.get("omega_star")
        gap_lo, gap_hi = footer.get("gap_lo"), footer.get("gap_hi")
        first = [(w, a) for entries in by_point.values()
                 for b, w, a in entries if b == 1]
        peak, peak_alpha = max(first)
        if star != peak or not _same_point(peak_alpha, M_POINT):
            problems.append("omega_star is not the band-1 maximum at M")
            return problems
        if gap_lo is None or gap_hi is None or not gap_lo < gap_hi:
            problems.append(f"no gap: gap_lo={gap_lo}, gap_hi={gap_hi}")
        estimate = capacity.approx_resonance(M_POINT, self.material,
                                             self.crystal, 3)
        if abs(estimate - star) > self.estimate_tol * star:
            problems.append(f"omega_star {star} vs capacity estimate "
                            f"{estimate}: beyond {self.estimate_tol:.0e}")
        at_m = next(entries for entries in by_point.values()
                    if _same_point(entries[0][2], M_POINT))
        for _, omega, _ in at_m:
            moved, error = guarded(bands.retruncated_root, omega, M_POINT,
                                   self.material, self.crystal,
                                   self.truncation)
            if error is not None or abs(moved - omega) >= 1e-6 * (1 + omega):
                problems.append(f"M-point root {omega} moved to {moved} "
                                f"at N+2")
        return problems


def _parse_bands_csv(text: str):
    rows, footer = [], {}
    lines = text.splitlines()
    if not lines or lines[0] != "s,alpha_x,alpha_y,band,omega":
        raise ValueError("bands CSV header missing")
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = float(value) if value else None
        else:
            s, ax, ay, band, omega = line.split(",")
            rows.append((float(s), float(ax), float(ay), int(band),
                         float(omega)))
    return rows, footer


def _check_csv_repeats(text: bytes, digest_file: Path,
                       source_digest: str) -> list[str]:
    """Compare the CSV with the last run's on the same source; record it."""
    digest = hashlib.sha256(text).hexdigest()
    problems = []
    if digest_file.is_file():
        old_source, _, old_digest = digest_file.read_text().strip() \
            .partition(" ")
        if old_source == source_digest and old_digest != digest:
            problems.append("CSV differs from the previous run of this code")
    digest_file.write_text(f"{source_digest} {digest}\n")
    return problems


# ---------------------------------------------------------------------------
# bands-nondilute: band_structure on the acceptance-4 crystal, resolution 6
# ---------------------------------------------------------------------------

class BandsNondilute:
    """Two-band path sweep of the non-dilute crystal via ``band_structure``.

    R=0.25, contrast 1000, N=3, omega_max=5.2; resolution 6 gives 19 path
    points.  One operation is one path point; ``structure.failures`` are the
    failed ones.  Band 2 at (pi, 5 pi/6) is missed every time (it sits inside
    the refine guard of an empty-lattice resonance); that point is kept and
    counted as failed until the fault is fixed.
    """

    name = "bands-nondilute"
    points = 19
    known_miss = (PI, 5.0 * PI / 6.0)
    material = MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0)
    crystal = DiskCrystal(radius=0.25)

    def __init__(self, seed: int, out_dir: Path) -> None:
        del seed, out_dir  # the inputs are fixed and nothing is written

    def run_round(self) -> Round:
        structure, error = guarded(
            bands.band_structure, self.material, self.crystal, 3,
            resolution=6, band_count=2, omega_max=5.2)
        if error is not None:
            return Round(self.points, self.points)
        return Round(self.points, len(structure.failures),
                     {"structure": structure})

    def check(self, rounds: list[Round], source_digest: str) -> list[str]:
        del source_digest
        found = [r.output["structure"] for r in rounds if r.output]
        if not found:
            return ["band_structure failed at every path point"]
        problems = []
        for structure in found:
            if len(structure.points) + len(structure.failures) != self.points:
                problems.append("path points and failures do not add to 19")
            for s, alpha, reason in structure.failures:
                if not _same_point(alpha, self.known_miss):
                    problems.append(f"unexpected failure at s={s}, "
                                    f"alpha={alpha}: {reason}")
            for point in structure.points:
                w = point.omegas
                if len(w) != 2 or not all(map(math.isfinite, w)) \
                        or not w[0] < w[1]:
                    problems.append(f"bands at s={point.s} not ascending: {w}")
                if _same_point(point.alpha, (0.0, 0.0)) and w[0] != 0.0:
                    problems.append(f"band 1 at Gamma is {w[0]}, not 0")
            star = structure.omega_star
            if not _same_point(structure.argmax_alpha, M_POINT):
                problems.append("omega_star not attained at M")
            # acceptance-4 bounds: within 50% of 0.1519 and in (0.05, 0.3)
            if not (0.05 < star < 0.3 and abs(star - 0.1519) <= 0.5 * 0.1519):
                problems.append(f"omega_star {star} outside acceptance-4 bounds")
            if structure.gap is None or not structure.gap[0] < structure.gap[1]:
                problems.append("no gap opens")
        return problems


# ---------------------------------------------------------------------------
# minnaert: the `compare` CLI at acceptance-5 settings, then `capacity`
# ---------------------------------------------------------------------------

class Minnaert:
    """Exact resonance against the capacity estimate, then five capacities.

    ``compare`` at R=0.0125, N=3, contrasts 100, 300, 1000, 3000 at M (one
    operation per contrast; an empty ``omega_exact`` fails it), then
    ``capacity`` at the five Bloch vectors of ``demos/capacity_report.py``
    (one operation each).  The seed shuffles the order of both lists.
    """

    name = "minnaert"
    contrasts = (100.0, 300.0, 1000.0, 3000.0)
    alphas = ((PI / 8, 0.0), (PI / 2, 0.0), (PI, 0.0), (PI, PI / 2), (PI, PI))

    def __init__(self, seed: int, out_dir: Path) -> None:
        order = random.Random(seed)
        contrasts = list(self.contrasts)
        self.alpha_order = list(self.alphas)
        order.shuffle(contrasts)
        order.shuffle(self.alpha_order)
        config = _write_config(out_dir / "minnaert.json",
                               {"radius": 0.0125, "truncation_N": 3})
        self.csv = out_dir / "minnaert-compare.csv"
        self.compare_argv = [
            "compare", "--config", config, "--output", str(self.csv),
            "--contrasts", ",".join(f"{c:g}" for c in contrasts)]
        self.capacity_argvs = [
            ["capacity", "--config", config, "--alpha", f"{ax!r},{ay!r}"]
            for ax, ay in self.alpha_order]

    def run_round(self) -> Round:
        failed = 0
        code, _ = run_cli(self.compare_argv)
        rows = {}
        if code == 0:
            rows = _parse_compare_csv(self.csv.read_text(encoding="utf-8"))
        failed += sum(1 for c in self.contrasts
                      if c not in rows or rows[c][1] is None)
        caps = {}
        for alpha, argv in zip(self.alpha_order, self.capacity_argvs):
            code, text = run_cli(argv)
            value = _report_value(text, "bloch capacity") if code == 0 \
                else None
            if value is None:
                failed += 1
            else:
                caps[alpha] = value
        return Round(len(self.contrasts) + len(self.alphas), failed,
                     {"compare": rows, "capacities": caps})

    def check(self, rounds: list[Round], source_digest: str) -> list[str]:
        del source_digest
        problems = []
        for r in rounds:
            rows, caps = r.output["compare"], r.output["capacities"]
            solved = [c for c in self.contrasts
                      if c in rows and rows[c][1] is not None]
            if len(solved) != len(self.contrasts):
                problems.append(f"exact roots found for {solved} only")
            else:
                deltas = [rows[c][0] for c in self.contrasts]
                errors = [rows[c][3] for c in self.contrasts]
                if not all(a > b for a, b in zip(errors, errors[1:])):
                    problems.append(f"rel_error not falling: {errors}")
                slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
                if not 0.6 <= slope <= 1.4:
                    problems.append(f"log-log slope {slope:.3f} not in "
                                    f"[0.6, 1.4]")
            values = [caps.get(a) for a in self.alphas]
            if None in values or not all(v > 0 for v in values) \
                    or not all(a < b for a, b in zip(values, values[1:])):
                problems.append(f"capacities not positive and rising: "
                                f"{values}")
        return problems


def _parse_compare_csv(text: str) -> dict:
    """contrast -> (delta, omega_exact or None, omega_approx, rel_error)."""
    rows = {}
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            continue
        contrast, delta, exact, approx, rel = line.split(",")
        rows[float(contrast)] = (float(delta), float(exact) if exact else None,
                                 float(approx), float(rel) if rel else None)
    return rows


def _report_value(text: str, label: str) -> float | None:
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == label:
            return float(value.split()[0])
    return None


WORKLOADS = {w.name: w for w in (BandsDilute, BandsNondilute, Minnaert)}
