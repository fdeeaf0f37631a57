"""Band frequencies of the bubble crystal along the square-lattice path.

A frequency ``omega`` belongs to the band structure at Bloch vector ``alpha``
when the ``(2N+1)``-square characteristic matrix of its
``multipole.BlochProblem``, which each search builds once, becomes singular
there.  Each row of the matrix is divided by the scale that
``BlochProblem.entries`` returns with it (the equilibrated matrix).  A scan
over a frequency grid ranks the frequencies by the least eigenvalue of the
Gram matrix of the equilibrated matrix (its smallest singular value squared)
and brackets candidate roots at the local minima, then Muller's method
polishes each bracket on the equilibrated determinant in log-magnitude form
(``np.linalg.slogdet``), which can neither overflow nor underflow.  A refined
root is accepted only if it stays inside its bracket, returns to the real
axis, and drives the indicator, the smallest singular value of the
equilibrated matrix from a full SVD relative to its largest, below
tolerance.

Frequencies where the host wavenumber hits an empty-lattice resonance
``k = |2 pi m + alpha|`` are poles of the quasi-periodic kernel, not crystal
bands.  The scan half-steps through such zones instead of skipping them,
and evaluates inside them with a tighter guard so that a band squeezed
against a resonance is still found.

The scan lays out its frequency grid first and then evaluates it in
ascending batches of ``_CHUNK_ENTRIES // (2N + 1)**2`` frequencies.  Every
grid frequency but the top of the range lies on one half-step lattice
(``_scan_lattice``), so equal lattice indices give equal floats at every
Bloch vector; the zone margins of the whole lattice come from one sorted
search of the |p| of the scan's lattice-sum engine
(``lattice.empty_lattice_margins``).  Per batch the scan builds one stack
of matrices (``multipole.BlochProblem.entries_from``), one stacked
equilibration and one Hermitian eigenvalue call on the stack of Gram
matrices.  The batch's lattice sums come from one Chebyshev fit of the
pole-free sums over the scan's range (``lattice.LatticeSumFit``), built
and checked against direct tables once per scan; where the check fails,
the scan takes one direct lattice-sum batch per chunk instead.  Every
search reads its cylinder factors from a table (``_CylinderTable``) that
computes each lattice frequency's factors once, when a batch first asks
for them: ``band_structure`` shares one table among all its Bloch vectors
and drops it when it returns, and ``bands_at`` and ``resonance_near``
build one each.  On the same grid the fit and the table give the brackets
that direct tables give.  A frequency inside the lattice-sum guard, with
unconverged lattice sums or with a non-finite entry gets an infinite
indicator without affecting the rest of its batch.
The brackets form a stream: each is emitted as soon as the value to the
right of its minimum is known, and the root search refines them as they
arrive.  It stops evaluating the grid once it has accepted the bands it
was asked for, so a search for the lowest bands never builds the
matrices above them.  Muller and the acceptance test stay per frequency,
on direct tables (``BlochProblem.entries``), and acceptance keeps the SVD
ratio, so the Gram values can move brackets but no reported band or
diagnostic.

The path sweep walks the closed polyline through the zone corners
(0,0) -> (pi,0) -> (pi,pi) -> (0,0), collects the lowest bands at each
sample, and reports the maximum of the first band, where it is attained, and
the gap between the first and second bands when one opens.  The closing
corner is the opening one, so it is solved once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .lattice import (
    GAMMA_POINT,
    M_POINT,
    X_POINT,
    empty_lattice_margins,
    lattice_sum_fit,
    lattice_sum_table,
)
from .multipole import (
    BlochProblem,
    CylinderFactors,
    DiskCrystal,
    MaterialParams,
    assemble_characteristic_matrix,
    cylinder_factors,
)

__all__ = [
    "BandNotFoundError",
    "BandPoint",
    "BandStructure",
    "MullerResult",
    "RejectedRootError",
    "RootDiagnostics",
    "RootNotConvergedError",
    "band_structure",
    "bands_at",
    "muller_refine",
    "resonance_near",
    "retruncated_root",
]


class BandNotFoundError(RuntimeError):
    """Fewer bands than requested were found below the frequency ceiling."""


class RootNotConvergedError(RuntimeError):
    """Muller iteration ran out of budget; carries the best iterate seen."""

    def __init__(self, message: str, best: complex, iterations: int) -> None:
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class RejectedRootError(RuntimeError):
    """A converged iterate failed the acceptance checks (not a band root)."""

    def __init__(self, message: str, root: complex) -> None:
        super().__init__(message)
        self.root = root


#: Scan grid: frequency step below and above ``_STEP_SPLIT``.
_STEP_LOW = 2e-3
_STEP_HIGH = 1e-2
_STEP_SPLIT = 0.5
#: Empty-lattice margin below which the scan half-steps (a zone).
#: Matrices are still assembled there, down to the lattice-sum guard.
_ZONE_MARGIN = 0.05
#: Acceptance: equilibrated smallest singular value relative to the largest,
#: and the largest imaginary part of a refined root.
_INDICATOR_TOL = 1e-6
_IMAG_TOL = 1e-8
#: Muller stopping rule: relative step size and iteration budget.
_MULLER_TOL = 1e-10
_MULLER_MAX_ITER = 50
#: Matrix entries per batch of scan frequencies: the scan evaluates its grid
#: in batches of ``_CHUNK_ENTRIES // (2N + 1)**2`` frequencies, 16 at N = 7
#: and 73 at N = 3.  It bounds the memory a batch holds.
_CHUNK_ENTRIES = 3_600
#: Relative half-width of the window ``resonance_near`` searches.
_RESONANCE_WINDOW = 0.4


# ---------------------------------------------------------------------------
# singularity indicator and determinant
# ---------------------------------------------------------------------------

def _equilibrated(pair: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The mask of finite matrices of a stack, and those matrices equilibrated.

    ``pair`` is a ``(K, n, n)`` stack and its ``(K, n)`` row scales, as
    ``BlochProblem.entries`` returns them; each row is divided by its scale.
    """
    stack, row_scale = pair
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    return finite, stack[finite] / row_scale[finite][..., None]


def _singular_values(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Singular values, largest first, of each equilibrated matrix of a stack.

    ``pair`` is a ``(K, n, n)`` stack and its row scales.  A matrix with a
    non-finite entry gets a row of ``inf`` and is left out of the SVD.
    """
    finite, part = _equilibrated(pair)
    values = np.full(pair[0].shape[:-1], math.inf)
    if part.size:
        values[finite] = np.linalg.svd(part, compute_uv=False)
    return values


def _least_gram_eigenvalues(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Least eigenvalue of ``T^H T`` for each equilibrated matrix ``T``.

    ``pair`` is a ``(K, n, n)`` stack and its row scales.  The value is
    ``sigma_min(T)**2`` up to the cross-product's roundoff of about
    ``n * eps * sigma_max**2``, so it orders matrices as their smallest
    singular values do while those stay well above that roundoff.  One
    Hermitian eigenvalue call per stack is less LAPACK work than an SVD.
    The value is not square-rooted, and not clipped at zero, since clipping
    could create ties.  A non-finite matrix gets ``inf``, outside the call.
    """
    finite, part = _equilibrated(pair)
    values = np.full(pair[0].shape[0], math.inf)
    if part.size:
        gram = part.conj().swapaxes(-1, -2) @ part
        values[finite] = np.linalg.eigvalsh(gram)[:, 0]
    return values


# ---------------------------------------------------------------------------
# Muller's method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MullerResult:
    """Converged Muller iterate with its iteration count."""

    root: complex
    iterations: int


def muller_refine(
    f: Callable[[complex], complex],
    x0: complex,
    x1: complex,
    x2: complex,
    accept: Callable[[complex], bool] | None = None,
) -> MullerResult:
    """Find a root of ``f`` by quadratic (Muller) iteration.

    Fits a parabola through the last three iterates and steps to its nearer
    root; stops when the step shrinks below ``_MULLER_TOL * (1 + |x|)``, or
    raises after ``_MULLER_MAX_ITER`` iterations.  The
    iteration runs in complex arithmetic even from real starts, so it can
    pass through real-axis extrema.  If ``accept`` is given, a converged
    iterate it vetoes raises :class:`RejectedRootError`; running out of
    iterations raises :class:`RootNotConvergedError` carrying the best
    iterate.
    """
    xs = [complex(x0), complex(x1), complex(x2)]
    if len({*xs}) != 3:
        raise ValueError("Muller starts must be three distinct points")
    f0, f1, f2 = (complex(f(x)) for x in xs)
    x0c, x1c, x2c = xs
    iterations = 0
    while iterations < _MULLER_MAX_ITER:
        iterations += 1
        if f2 == 0.0:
            break
        h1 = x1c - x0c
        h2 = x2c - x1c
        d1 = (f1 - f0) / h1
        d2 = (f2 - f1) / h2
        a = (d2 - d1) / (h2 + h1)
        b = a * h2 + d2
        disc = cmath.sqrt(b * b - 4.0 * a * f2)
        den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
        if den == 0.0:
            if d2 == 0.0:
                raise RootNotConvergedError(
                    "Muller iteration degenerated (flat function)",
                    best=x2c,
                    iterations=iterations,
                )
            delta = -f2 / d2  # linear fallback when the parabola is flat
        else:
            delta = -2.0 * f2 / den
        x3 = x2c + delta
        x0c, x1c, x2c = x1c, x2c, x3
        f0, f1, f2 = f1, f2, complex(f(x3))
        if abs(delta) < _MULLER_TOL * (1.0 + abs(x3)):
            break
    else:
        best = x2c if abs(f2) <= abs(f1) else x1c
        raise RootNotConvergedError(
            f"no convergence in {_MULLER_MAX_ITER} Muller iterations",
            best=best,
            iterations=iterations,
        )
    if accept is not None and not accept(x2c):
        raise RejectedRootError(f"iterate {x2c} failed acceptance", root=x2c)
    return MullerResult(root=x2c, iterations=iterations)


# ---------------------------------------------------------------------------
# indicator scan and bracketing
# ---------------------------------------------------------------------------

def _scan_lattice(top: float) -> np.ndarray:
    """Scan-lattice frequencies from 0 to at least ``top``.

    Frequency ``i`` is ``i * _STEP_LOW / 2`` below ``_STEP_SPLIT`` and
    ``_STEP_SPLIT + j * _STEP_HIGH / 2`` from it on, ``j`` counting from
    the split, so equal indices give equal floats for every scan.  The
    constants are read at call time; ``_STEP_SPLIT`` is a multiple of
    ``_STEP_LOW / 2``.
    """
    low, high = 0.5 * _STEP_LOW, 0.5 * _STEP_HIGH
    split = round(_STEP_SPLIT / low)
    above = max(0, math.ceil((top - _STEP_SPLIT) / high)) + 1
    index = np.arange(split + above + 1)
    return np.where(
        index < split, index * low, _STEP_SPLIT + (index - split) * high
    )


def _scan_grid(problem: BlochProblem, omega_range: tuple[float, float]) -> np.ndarray:
    """The scan's (guard-aware) frequency grid.

    Walks the scan lattice (``_scan_lattice``) from the lattice frequency
    nearest the bottom of the range, two half-steps at a time (``_STEP_LOW``
    below ``_STEP_SPLIT``, ``_STEP_HIGH`` above), one half-step where the
    empty-lattice margin is within ``_ZONE_MARGIN``.  A walk from below
    the split stops at it.  A step that would end within half a step of
    the top goes to the top instead, so the grid never ends with a
    roundoff-sized step; the top is the one frequency that may lie off the
    lattice.
    """
    lo, hi = max(float(omega_range[0]), 0.0), float(omega_range[1])
    v = problem.material.v
    lattice = _scan_lattice(hi)
    # the zone test over the lattice, the bottom and the top at once
    margins = empty_lattice_margins(
        problem.lattice_order, problem.alpha, np.append(lattice, [lo, hi]) / v
    )
    *zones, zone, top_zone = (margins <= _ZONE_MARGIN).tolist()
    split = int(np.searchsorted(lattice, _STEP_SPLIT))
    points = lattice.tolist()

    omegas: list[float] = []
    i = int(np.argmin(np.abs(lattice - lo)))
    w = lo
    while w < hi - 1e-15:
        # half-step through zones so a band squeezed against an
        # empty-lattice resonance still produces a bracketable minimum
        step = 1 if zone else 2
        j = min(i + step, split) if i < split else i + step
        if hi - points[j] < 0.5 * (points[j] - points[i]):
            w, zone = hi, top_zone
        else:
            i, w, zone = j, points[j], zones[j]
        omegas.append(w)
    return np.asarray(omegas)


class _CylinderTable:
    """The cylinder factors of one search, or of one path sweep, on the scan lattice.

    The factors do not depend on the Bloch vector, and every scan walks the
    same lattice, so each lattice frequency's factors are computed once per
    table.  The table covers the lattice over ``omega_range`` from two rows
    below its bottom, leaving out frequency 0, which no scan reaches.  It
    computes the rows a batch asks for that it does not hold yet, in one
    call, and no others: a scan reads every other lattice row outside the
    zones it half-steps.  A batch with a frequency off the covered lattice
    (the top of a range) is computed directly.
    """

    def __init__(self, material: MaterialParams, crystal: DiskCrystal,
                 truncation: int, omega_range: tuple[float, float]) -> None:
        self._factors = (material, crystal.radius, truncation)
        lattice = _scan_lattice(omega_range[1])
        start = max(int(np.searchsorted(lattice, omega_range[0])) - 2, 1)
        self._lattice = lattice[start:]
        self._known = np.zeros(self._lattice.shape, dtype=bool)
        self._fields: list[np.ndarray] = []

    def at(self, omegas: np.ndarray) -> CylinderFactors:
        """The factors at the ascending frequencies ``omegas``."""
        lattice = self._lattice
        rows = np.minimum(np.searchsorted(lattice, omegas), lattice.size - 1)
        if np.any(lattice[rows] != omegas):
            return cylinder_factors(omegas, *self._factors)
        unknown = rows[~self._known[rows]]
        if unknown.size:
            computed = cylinder_factors(lattice[unknown], *self._factors)
            if not self._fields:
                self._fields = [np.empty(lattice.shape + part.shape[1:], part.dtype)
                                for part in computed]
            for field, part in zip(self._fields, computed):
                field[unknown] = part
            self._known[unknown] = True
        return CylinderFactors(*(field[rows] for field in self._fields))


def _chunk(truncation: int) -> int:
    """Frequencies per scan batch (see ``_CHUNK_ENTRIES``)."""
    return max(1, _CHUNK_ENTRIES // (2 * truncation + 1) ** 2)


def _indicator_batches(
    problem: BlochProblem, omegas: np.ndarray, cylinders: _CylinderTable
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The grid ``omegas`` in ascending batches, with their indicator values.

    The value at a frequency is the least eigenvalue of the Gram matrix of
    the equilibrated characteristic matrix, the square of its smallest
    singular value up to roundoff; the bracket rule reads only the order of
    the values.  Each batch of frequencies costs one stack of matrices and
    one Hermitian eigenvalue call.  Its lattice sums come from one
    ``lattice.LatticeSumFit`` of the whole grid, built when the first batch
    is asked for, or, where the fit is refused, from one lattice-sum batch.
    Its cylinder factors come from the table ``cylinders``.  A frequency
    inside the lattice-sum guard, with unconverged lattice sums or with a
    non-finite matrix entry gets ``inf``.  A batch is evaluated only when it
    is asked for.
    """
    if not omegas.size:
        return
    order = problem.lattice_order
    ks = omegas / problem.material.v
    fit = lattice_sum_fit(order, problem.alpha, ks[0], ks[-1]) if ks.size > 1 else None
    chunk = _chunk(problem.truncation)
    for start in range(0, omegas.size, chunk):
        batch = omegas[start : start + chunk]
        k = ks[start : start + chunk]
        table = fit.table(k) if fit else lattice_sum_table(order, k, problem.alpha)
        yield batch, _least_gram_eigenvalues(
            problem.entries_from(batch, table, cylinders.at(batch))
        )


def _brackets_at_minima(
    profile: Iterable[tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[float, float, float]]:
    """Brackets at the local minima of an indicator profile given in pieces.

    ``profile`` yields ``(omegas, values)`` pieces of one ascending grid.  A
    bracket ``(lo, mid, hi)`` is three consecutive grid points whose values
    are finite, with the value at ``mid`` at most both neighbours and
    strictly below at least one.  It is yielded as soon as the value at
    ``hi`` is known; the last two points of each piece carry over to the
    next.
    """
    omegas = values = np.empty(0)
    for piece_omegas, piece_values in profile:
        omegas = np.concatenate((omegas[-2:], piece_omegas))
        values = np.concatenate((values[-2:], piece_values))
        left, mid, right = values[:-2], values[1:-1], values[2:]
        minima = (
            np.isfinite(left) & np.isfinite(mid) & np.isfinite(right)
            & (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
        )
        for i in np.flatnonzero(minima):
            yield omegas[i], omegas[i + 1], omegas[i + 2]


# ---------------------------------------------------------------------------
# root refinement against the characteristic matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootDiagnostics:
    """Acceptance record of one refined root."""

    indicator: float
    iterations: int


def _refine_bracket(
    bracket: tuple[float, float, float], problem: BlochProblem
) -> tuple[float, RootDiagnostics]:
    """Polish one bracket to an accepted band root.

    The Muller target is the determinant of the characteristic matrix with
    row scales frozen at the first evaluation, so the function stays smooth
    while the iterates move.  An iterate outside the admissible region, or
    where the matrix has a non-finite entry (inside the lattice-sum guard,
    or with an unconverged lattice sum), ends the refinement as unconverged.
    The admissible region is ``Re omega > 0`` and ``|Im omega| <= 0.5``,
    narrowed to ``|Im omega| <= v`` for a host speed ``v < 0.5`` because the
    lattice sums are defined only for ``|Im k| <= 1``.
    Acceptance requires the iterate to come back to the real axis, stay
    inside its bracket, and push the indicator of the matrix there, divided
    by its own row scales, below ``_INDICATOR_TOL``.
    """
    lo, mid, hi = bracket
    imag_bound = min(0.5, problem.material.v)
    row_scale: np.ndarray | None = None
    ref_mag: float | None = None
    last: dict[str, float] = {}

    def determinant(omega: complex) -> complex:
        nonlocal row_scale, ref_mag
        om = complex(omega)
        if om.real <= 0.0 or abs(om.imag) > imag_bound:
            raise RootNotConvergedError(
                "iterate left the admissible frequency region",
                best=om,
                iterations=0,
            )
        matrix, scale = assemble_characteristic_matrix(om, problem)
        if not np.all(np.isfinite(matrix)):
            raise RootNotConvergedError(
                f"no characteristic matrix at iterate {om}",
                best=om,
                iterations=0,
            )
        if row_scale is None:
            row_scale = scale
        sign, log_mag = np.linalg.slogdet(matrix / row_scale[:, None])
        if ref_mag is None:
            ref_mag = log_mag
        return complex(sign) * math.exp(log_mag - ref_mag)

    def accept(root: complex) -> bool:
        if abs(root.imag) > _IMAG_TOL:
            return False
        w = float(root.real)
        if not lo <= w <= hi:
            return False
        matrix, scale = assemble_characteristic_matrix(w, problem)
        spectrum = _singular_values((matrix[None], scale[None]))[0]
        last["indicator"] = float(spectrum[-1])
        return math.isfinite(spectrum[0]) and (
            spectrum[-1] <= _INDICATOR_TOL * spectrum[0]
        )

    result = muller_refine(
        determinant, complex(lo), complex(hi), complex(mid), accept=accept
    )
    return float(result.root.real), RootDiagnostics(
        indicator=last["indicator"], iterations=result.iterations
    )


def _accepted_roots(
    problem: BlochProblem,
    omega_range: tuple[float, float],
    count: int | None,
    cylinders: _CylinderTable,
) -> list[tuple[float, RootDiagnostics]]:
    """Accepted roots in ``omega_range``, lowest first, at most ``count``.

    This is the one loop that scans and refines; ``count=None`` keeps every
    root.  Brackets are refined as the scan emits them, and the scan stops
    with the ``count``-th accepted root, so the grid above it is never
    evaluated.  A root within ``1e-7 (1 + omega)`` of the previous one was
    reached again from a neighbouring bracket and is dropped.  ``cylinders``
    is the search's or the sweep's table of cylinder factors.
    """
    omegas = _scan_grid(problem, omega_range)
    brackets = _brackets_at_minima(_indicator_batches(problem, omegas, cylinders))
    roots: list[tuple[float, RootDiagnostics]] = []
    for bracket in brackets:
        try:
            omega, diag = _refine_bracket(bracket, problem)
        except (RootNotConvergedError, RejectedRootError):
            continue
        if roots and abs(omega - roots[-1][0]) < 1e-7 * (1.0 + omega):
            continue
        roots.append((omega, diag))
        if len(roots) == count:
            break
    return roots


def bands_at(
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
    omega_max: float,
    band_count: int = 2,
) -> tuple[tuple[float, ...], tuple[RootDiagnostics, ...]]:
    """The ``band_count`` lowest band frequencies at one Bloch vector.

    Returns the frequencies and their acceptance diagnostics.  At the zone
    centre the first band passes through zero frequency analytically
    (uniform translation mode), so it is reported as exactly 0 and only the
    bands above it are searched for; with none above it, nothing is
    scanned.  Raises :class:`BandNotFoundError` when fewer bands lie below
    ``omega_max``.
    """
    return _bands_at(alpha, material, crystal, truncation, omega_max, band_count,
                     _CylinderTable(material, crystal, truncation, (0.0, omega_max)))


def _bands_at(
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
    omega_max: float,
    band_count: int,
    cylinders: _CylinderTable,
) -> tuple[tuple[float, ...], tuple[RootDiagnostics, ...]]:
    """``bands_at``, reading ``cylinders``, a table of ``(0, omega_max)``."""
    if band_count < 1:
        raise ValueError("band_count must be at least 1")
    problem = BlochProblem(alpha, material, crystal, truncation)
    at_centre = float(np.hypot(*problem.alpha)) == 0.0
    needed = band_count - 1 if at_centre else band_count
    roots: list[tuple[float, RootDiagnostics]] = []
    if needed:
        roots = _accepted_roots(problem, (0.0, omega_max), needed, cylinders)
    if len(roots) < needed:
        raise BandNotFoundError(
            f"found {len(roots)} of {needed} bands below omega={omega_max}"
        )
    if at_centre:
        roots.insert(0, (0.0, RootDiagnostics(0.0, 0)))
    return tuple(r[0] for r in roots), tuple(r[1] for r in roots)


def resonance_near(
    omega_guess: float,
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
) -> float:
    """Accepted characteristic frequency closest to an analytic prediction.

    Collects every accepted root in the window
    ``[(1 - _RESONANCE_WINDOW), (1 + _RESONANCE_WINDOW)] * omega_guess`` and
    returns the one nearest the guess.  This identifies the resonance branch
    even when other bands cross the window; raises
    :class:`BandNotFoundError` when no root is accepted.
    """
    if not omega_guess > 0.0:
        raise ValueError("omega_guess must be positive")
    window = ((1.0 - _RESONANCE_WINDOW) * omega_guess,
              (1.0 + _RESONANCE_WINDOW) * omega_guess)
    roots = _accepted_roots(
        BlochProblem(alpha, material, crystal, truncation), window, None,
        _CylinderTable(material, crystal, truncation, window),
    )
    if not roots:
        raise BandNotFoundError(
            f"no accepted characteristic frequency within "
            f"{_RESONANCE_WINDOW:.0%} of omega={omega_guess}"
        )
    return min((r[0] for r in roots), key=lambda w: abs(w - omega_guess))


def retruncated_root(
    omega: float,
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
) -> float:
    """Re-refine an accepted root with the harmonic truncation raised by two.

    Seeds Muller at the known root and polishes against the larger matrix;
    used to verify that reported band frequencies are stable under
    truncation growth.
    """
    problem = BlochProblem(alpha, material, crystal, truncation + 2)
    spread = 1e-5 * (1.0 + abs(omega))
    bracket = (omega - spread, float(omega), omega + spread)
    root, _ = _refine_bracket(bracket, problem)
    return root


# ---------------------------------------------------------------------------
# path sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandPoint:
    """Band frequencies at one sample of the zone-boundary path."""

    s: float
    alpha: np.ndarray = field(repr=False)
    omegas: tuple[float, ...]
    diagnostics: tuple[RootDiagnostics, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if any(
            not second > first
            for first, second in zip(self.omegas, self.omegas[1:])
        ):
            raise ValueError("band frequencies must be strictly ascending")


@dataclass(frozen=True)
class BandStructure:
    """Bands over the closed corner path, with gap and first-band maximum.

    ``gap`` is ``(lo, hi)`` with ``lo`` the maximum of the first band and
    ``hi`` the minimum of the second, present only when ``hi > lo``;
    ``omega_star`` equals that maximum and ``argmax_alpha`` records where
    it is attained.  Samples whose root search failed are collected in
    ``failures`` as ``(s, alpha, reason)`` instead of aborting the sweep.
    """

    points: tuple[BandPoint, ...]
    omega_star: float
    argmax_alpha: np.ndarray = field(repr=False)
    gap: tuple[float, float] | None
    failures: tuple[tuple[float, tuple[float, float], str], ...] = ()

    @classmethod
    def from_points(
        cls,
        points: Sequence[BandPoint],
        failures: Sequence[tuple[float, tuple[float, float], str]] = (),
    ) -> BandStructure:
        """Structure over ``points`` with its first-band maximum and gap.

        The first maximum along the path wins a tie.  The gap needs a second
        band at every point; with fewer bands it is ``None``.
        """
        first_band = np.array([p.omegas[0] for p in points])
        star_index = int(np.argmax(first_band))
        omega_star = float(first_band[star_index])
        gap: tuple[float, float] | None = None
        if all(len(p.omegas) >= 2 for p in points):
            second_min = min(p.omegas[1] for p in points)
            if second_min > omega_star:
                gap = (omega_star, second_min)
        return cls(
            points=tuple(points),
            omega_star=omega_star,
            argmax_alpha=points[star_index].alpha.copy(),
            gap=gap,
            failures=tuple(failures),
        )


def _path_samples(resolution: int) -> list[tuple[float, np.ndarray]]:
    corners = [GAMMA_POINT, X_POINT, M_POINT, GAMMA_POINT]
    samples: list[tuple[float, np.ndarray]] = []
    for edge in range(3):
        start, end = corners[edge], corners[edge + 1]
        for j in range(resolution):
            t = j / resolution
            samples.append(((edge + t) / 3.0, start + t * (end - start)))
    samples.append((1.0, corners[3].copy()))
    return samples


def band_structure(
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
    resolution: int = 30,
    band_count: int = 2,
    omega_max: float = 0.5,
) -> BandStructure:
    """Sweep the closed zone-boundary path and assemble the band structure.

    ``resolution`` samples per edge (three edges plus the repeated closing
    corner), solved one after another in path order as :func:`bands_at`
    solves them, with one table of cylinder factors shared by the sweep's
    scans and dropped when it returns.  Each distinct Bloch vector is
    solved once: the closing corner at ``s = 1`` repeats the result at
    ``s = 0``, or its failure with the same reason, so a sweep makes
    ``3 * resolution`` searches.  Failed samples are recorded, not fatal.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3 points per edge")
    samples = _path_samples(resolution)
    cylinders = _CylinderTable(material, crystal, truncation, (0.0, omega_max))
    results: list[tuple | str] = []
    for _, alpha in samples[:-1]:
        try:
            results.append(_bands_at(
                alpha, material, crystal, truncation, omega_max, band_count,
                cylinders,
            ))
        except BandNotFoundError as exc:
            results.append(str(exc))
    results.append(results[0])
    points: list[BandPoint] = []
    failures: list[tuple[float, tuple[float, float], str]] = []
    for (s, alpha), result in zip(samples, results):
        if isinstance(result, str):
            failures.append((s, (float(alpha[0]), float(alpha[1])), result))
            continue
        omegas, diagnostics = result
        points.append(BandPoint(
            s=s, alpha=alpha, omegas=omegas, diagnostics=diagnostics
        ))
    if not points:
        s, alpha_pair, reason = failures[0]
        raise BandNotFoundError(
            f"band search failed at every path point; first: s={s:.6f}, "
            f"alpha=({alpha_pair[0]:.6f}, {alpha_pair[1]:.6f}): {reason}"
        )
    return BandStructure.from_points(points, failures)
