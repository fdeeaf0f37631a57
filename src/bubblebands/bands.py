"""Band frequencies of the bubble crystal along the square-lattice path.

A frequency ``omega`` belongs to the band structure at Bloch vector ``alpha``
when the ``(2N+1)``-square characteristic matrix of its
``multipole.BlochProblem``, which each search builds once, becomes singular
there.  The search never looks for that directly: it counts the bands.
``multipole.batch_counts`` gives the exact number N(omega) of bands below
any real frequency, from the inertia of two Hermitian matrices at that
frequency, and N never decreases.  So band j is the least frequency where
N reaches j, and its multiplicity is the jump of N there.

A search counts a batch of ``_GRID`` uniform frequencies first.  For band
j it takes the tightest bracket ``(lo, hi)`` of counted frequencies with
N(lo) < j <= N(hi), and multisects it, ``_SECTIONS`` interior frequencies
per bracket and one count batch for all brackets, until it is narrower than
``_BRACKET_WIDTH (1 + hi)`` and holds no pole of ``H`` (the pole count is
the same at both ends).  A bracket that still holds more than one band is
multisected down to ``_MULTIPLE_WIDTH (1 + hi)``; what it holds then is one
root of that multiplicity.  ``H`` decreases in ``omega`` between its poles,
so in such a bracket the (r+1)-th smallest eigenvalue of ``H``, where r
counts the negative eigenvalues at ``lo``, changes sign exactly once, at
the root.  Brent's method polishes it there (``_brent_steps``).  The
searches of all the brackets of a point advance together: each step
evaluates the eigenvalues of ``H`` once, in one batch that holds one
frequency per open search.  A root is reported once per unit of its
multiplicity, and only if the smallest singular value of the equilibrated
characteristic matrix (each row divided by the scale that
``assemble_characteristic_matrix`` returns with it), from a full SVD, is
within ``_INDICATOR_TOL`` of its largest: a safety check that the polished
roots of a point, checked in one batch, are roots of the matrix.

The path sweep walks the closed polyline through the zone corners
(0,0) -> (pi,0) -> (pi,pi) -> (0,0), advances the searches of its samples
together (``_drive``), collects the lowest bands at each sample, and
reports the maximum of the first band, where it is attained, and the gap
between the first and second bands when one opens.  The closing corner is
the opening one, so it is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

import numpy as np

from .lattice import _ENGINE_CACHE_SIZE, GAMMA_POINT, M_POINT, X_POINT
from .multipole import (
    BlochProblem,
    DiskCrystal,
    MaterialParams,
    assemble_characteristic_matrix,
    batch_counts,
    batch_h_eigenvalues,
)

__all__ = [
    "BandNotFoundError",
    "BandPoint",
    "BandStructure",
    "RootDiagnostics",
    "band_structure",
    "bands_at",
    "retruncated_root",
]


class BandNotFoundError(RuntimeError):
    """Fewer bands than requested were found below the frequency ceiling."""


#: Frequencies of a search's first count batch, uniform over its range.
_GRID = 24
#: Interior frequencies per bracket in each multisection batch.
_SECTIONS = 8
#: A bracket narrower than ``_BRACKET_WIDTH (1 + hi)`` with no pole of ``H``
#: is polished; one that holds several bands is first narrowed to
#: ``_MULTIPLE_WIDTH (1 + hi)``, and those bands are then one multiple root.
_BRACKET_WIDTH = 2e-3
_MULTIPLE_WIDTH = 1e-9
#: Acceptance: equilibrated smallest singular value relative to the largest.
_INDICATOR_TOL = 1e-6
#: Relative half-width of the bracket ``retruncated_root`` certifies.
_RETRUNCATED_SPREAD = 1e-5
#: Most frequencies in one evaluation call of a sweep's step, which bounds
#: its transient stacks; only a request larger than this has a call alone.
_BATCH_CAP = 64


# ---------------------------------------------------------------------------
# singularity indicator
# ---------------------------------------------------------------------------

def _singular_values(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Singular values, largest first, of each equilibrated matrix of a stack.

    ``pair`` is a ``(K, n, n)`` stack and its ``(K, n)`` row scales, as
    ``assemble_characteristic_matrix`` returns them; each row is divided by
    its scale.  A matrix with a non-finite entry gets a row of ``inf`` and
    is left out of the SVD.
    """
    stack, row_scale = pair
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    values = np.full(stack.shape[:-1], math.inf)
    if np.any(finite):
        values[finite] = np.linalg.svd(
            stack[finite] / row_scale[finite][..., None], compute_uv=False)
    return values


@dataclass(frozen=True)
class RootDiagnostics:
    """Safety check of one polished root.

    ``indicator`` is the smallest singular value of the equilibrated
    characteristic matrix at the root, and ``iterations`` the number of
    single-frequency evaluations the polish took.
    """

    indicator: float
    iterations: int


# ---------------------------------------------------------------------------
# the polish
# ---------------------------------------------------------------------------

def _brent_steps(a: float, b: float, fa: float, fb: float
                 ) -> Generator[float, float, tuple[float, int]]:
    """Brent's method between ``a`` and ``b``, where ``fa`` and ``fb`` differ in sign.

    Brent's method as ``zbrent`` of Press et al., *Numerical Recipes*
    (2nd ed., 1992, section 9.3): inverse quadratic interpolation, falling
    back to bisection, to the tolerance ``2 eps |b| + 0.5e-15 (1 + |b|)``.
    A generator, so that a caller can advance several searches together:
    it yields each abscissa and is sent the function's value there, and it
    returns the root and the number of evaluations.  It is written out
    rather than taken from ``scipy.optimize.brentq``: importing
    ``scipy.optimize`` after ``bubblebands`` raised the peak resident memory
    from 53.6 to 76.5 MB and added 0.18-0.20 s to a 0.30 s import.
    """
    eps = np.finfo(float).eps
    c, fc = b, fb
    d = e = b - a
    for evaluations in range(101):
        if (fb > 0.0 and fc > 0.0) or (fb < 0.0 and fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5e-15 * (1.0 + abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol or fb == 0.0:
            return b, evaluations
        interpolate = abs(e) >= tol and abs(fa) > abs(fb)
        if interpolate:
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            interpolate = 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q))
        if interpolate:
            e, d = d, p / q
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, xm)
        fb = yield b
    raise BandNotFoundError(f"Brent's method did not converge near omega={b}")


def _advance(searches: Sequence[Generator], i: int, value, asked: dict,
             results: list) -> None:
    """Send ``value`` to search ``i`` and keep what it does next.

    Its next request goes to ``asked[i]``; its result, or the message of its
    :class:`BandNotFoundError`, to ``results[i]``.
    """
    try:
        asked[i] = searches[i].send(value)
    except StopIteration as stop:
        results[i] = stop.value
    except BandNotFoundError as exc:
        results[i] = str(exc)


# ---------------------------------------------------------------------------
# the search by the count
# ---------------------------------------------------------------------------

class _Counts:
    """The band counts of one ``BlochProblem`` at every frequency counted so far.

    ``omegas`` ascend, with their counts (``multipole.BandCount``) in the
    same order; a frequency that got no count goes to ``failed``.  Below
    the lowest counted frequency lies the floor, zero, with no band below it.
    ``add``, ``isolate`` and ``polish`` are generators of requests (``_drive``).
    """

    def __init__(self, problem: BlochProblem) -> None:
        self.problem = problem
        size = 2 * problem.truncation + 1
        self.omegas = np.empty(0)
        self.bands = self.poles = np.empty(0, dtype=int)
        self.eigenvalues = np.empty((0, size))
        self.failed = np.empty(0)

    def add(self, omegas: np.ndarray) -> Generator:
        """Count the bands at ``omegas`` in one request and keep the counts."""
        count = yield batch_counts, self.problem, omegas
        ok = count.bands >= 0
        self.failed = np.append(self.failed, omegas[~ok])
        merged = np.concatenate((self.omegas, omegas[ok]))
        order = np.argsort(merged, kind="stable")
        self.omegas = merged[order]
        self.bands = np.concatenate((self.bands, count.bands[ok]))[order]
        self.poles = np.concatenate((self.poles, count.poles[ok]))[order]
        self.eigenvalues = np.concatenate(
            (self.eigenvalues, count.eigenvalues[ok]))[order]

    def bracket(self, band: int) -> tuple[int, int]:
        """Indices ``(lo, hi)`` of the tightest bracket of ``band``.

        ``hi`` is the first counted frequency with ``band`` bands below it,
        and ``lo`` the one before, or -1 for the floor.  The caller makes
        sure the band lies below the top.
        """
        hi = int(np.argmax(self.bands >= band))
        return hi - 1, hi

    def _span(self, lo: int, hi: int) -> tuple[float, float]:
        return (self.omegas[lo] if lo >= 0 else 0.0), self.omegas[hi]

    def _isolated(self, lo: int, hi: int) -> bool:
        """Whether the bracket ``(lo, hi)`` is ready for the polish."""
        if lo < 0 or self.poles[lo] != self.poles[hi]:
            return False
        width = self.omegas[hi] - self.omegas[lo]
        single = self.bands[hi] - self.bands[lo] == 1
        limit = _BRACKET_WIDTH if single else _MULTIPLE_WIDTH
        return width < limit * (1.0 + self.omegas[hi])

    def isolate(self, bands: Sequence[int]) -> Generator:
        """Multisect until the bracket of each of ``bands`` is ready; return them.

        The brackets come back in band order, one per distinct bracket.
        Raises :class:`BandNotFoundError` if a bracket stops shrinking.
        """
        stuck: set[tuple[float, float]] = set()
        while True:
            brackets = list(dict.fromkeys(self.bracket(band) for band in bands))
            spans = [self._span(*b) for b in brackets if not self._isolated(*b)]
            if not spans:
                return brackets
            if stuck.intersection(spans):
                lo, hi = stuck.intersection(spans).pop()
                raise BandNotFoundError(
                    f"no count inside the band bracket ({lo!r}, {hi!r}), or a pole "
                    f"of H there")
            stuck = set(spans)
            fractions = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
            yield from self.add(
                np.concatenate([lo + (hi - lo) * fractions for lo, hi in spans]))

    def polish(self, brackets: Sequence[tuple[int, int]]) -> Generator:
        """The root in each ready bracket ``(lo, hi)`` and its diagnostics.

        Brent's method on the (r+1)-th smallest eigenvalue of ``H``, r the
        negative eigenvalues at ``lo``.  The searches of all brackets
        advance together: each step requests ``H`` once, at one frequency
        per open search (``multipole.batch_h_eigenvalues``).  Returns the
        roots, in bracket order, of the brackets before the first whose
        search failed, checked in one indicator batch; their diagnostics are
        None where the indicator misses ``_INDICATOR_TOL``.  If none of them
        misses it, that failure raises :class:`BandNotFoundError`.
        """
        problem = self.problem
        indices = [int(np.sum(self.eigenvalues[lo] < 0.0)) for lo, _ in brackets]
        searches = [
            _brent_steps(*self.omegas[[lo, hi]].tolist(),
                         *self.eigenvalues[[lo, hi], index].tolist())
            for (lo, hi), index in zip(brackets, indices)]
        outcomes: list = [None] * len(searches)
        asked: dict[int, float] = {}
        for i in range(len(searches)):
            _advance(searches, i, None, asked, outcomes)
        while asked:
            step = list(asked.items())
            asked.clear()
            values = yield (batch_h_eigenvalues, problem,
                            np.array([omega for _, omega in step]))
            for (i, omega), row in zip(step, values):
                value = row[indices[i]]
                if math.isnan(value):
                    outcomes[i] = f"no count at omega={omega!r} in a band bracket"
                else:
                    _advance(searches, i, float(value), asked, outcomes)
        failed = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, str)]
        polished = outcomes[:failed[0]] if failed else outcomes
        roots = []
        if polished:
            spectra = _singular_values(assemble_characteristic_matrix(
                np.array([root for root, _ in polished]), problem))
            for (root, evaluations), spectrum in zip(polished, spectra):
                ok = (math.isfinite(spectrum[0])
                      and spectrum[-1] <= _INDICATOR_TOL * spectrum[0])
                roots.append((root, RootDiagnostics(float(spectrum[-1]), evaluations)
                              if ok else None))
        if failed and all(diagnostics is not None for _, diagnostics in roots):
            raise BandNotFoundError(outcomes[failed[0]])
        return roots


def _band_search(alpha, material: MaterialParams, crystal: DiskCrystal,
                 truncation: int, omega_max: float, band_count: int) -> Generator:
    """The search of :func:`bands_at`, as a generator of requests (``_drive``)."""
    if band_count < 1:
        raise ValueError("band_count must be at least 1")
    problem = BlochProblem(alpha, material, crystal, truncation)
    at_centre = not np.any(problem.alpha)
    roots = [(0.0, RootDiagnostics(0.0, 0))] if at_centre else []
    if band_count == len(roots):
        return (0.0,), (roots[0][1],)
    counts = _Counts(problem)
    yield from counts.add(np.linspace(0.0, omega_max, _GRID + 1)[1:])
    top = counts.bands[-1] if counts.bands.size else 0
    if top < band_count:
        found = f"found {max(top - at_centre, 0)} of {band_count - at_centre} bands"
        detail = (f"; the count is {top} at omega={counts.omegas[-1]:.6g}"
                  if counts.bands.size else "; no frequency got a count")
        if counts.failed.size:
            detail += (f"; the lattice sums failed at omega in "
                       f"[{counts.failed.min():.6g}, {counts.failed.max():.6g}]")
        raise BandNotFoundError(f"{found} below omega={omega_max}{detail}")
    brackets = yield from counts.isolate(range(len(roots) + 1, band_count + 1))
    polished = yield from counts.polish(brackets)
    for (lo, hi), (root, diagnostics) in zip(brackets, polished):
        if diagnostics is None:
            raise BandNotFoundError(
                f"found {len(roots) - at_centre} of {band_count - at_centre} bands "
                f"below omega={omega_max}; the root {root!r} of band "
                f"{counts.bands[lo] + 1} fails the indicator")
        multiplicity = min(counts.bands[hi], band_count) - counts.bands[lo]
        roots += [(root, diagnostics)] * multiplicity
    return tuple(r[0] for r in roots), tuple(r[1] for r in roots)


def _retruncated_search(omega: float, alpha, material: MaterialParams,
                        crystal: DiskCrystal, truncation: int) -> Generator:
    """The search of :func:`retruncated_root`, as a generator of requests."""
    problem = BlochProblem(alpha, material, crystal, truncation + 2)
    spread = _RETRUNCATED_SPREAD * (1.0 + abs(omega))
    counts = _Counts(problem)
    yield from counts.add(np.array([omega - spread, omega + spread]))
    if counts.omegas.size != 2 or counts.bands[1] - counts.bands[0] != 1:
        raise BandNotFoundError(
            f"no single band in omega={omega} +/- {spread:.1e} at truncation "
            f"{truncation + 2}")
    brackets = yield from counts.isolate([counts.bands[1]])
    ((root, diagnostics),) = yield from counts.polish(brackets)
    if diagnostics is None:
        raise BandNotFoundError(f"the root {root!r} fails the indicator")
    return root


def _evaluate(batch: Callable, requests: list[tuple[BlochProblem, np.ndarray]]
              ) -> list:
    """``batch`` over ``(problem, omegas)`` requests, one result per request.

    Requests share a call up to ``_BATCH_CAP`` frequencies; one is never cut.
    """
    answers, chunk, size = [], [], 0
    for request in requests:
        if chunk and size + request[1].size > _BATCH_CAP:
            answers += batch(chunk)
            chunk, size = [], 0
        chunk.append(request)
        size += request[1].size
    return answers + batch(chunk)


def _drive(searches: Sequence[Generator]) -> list:
    """Run band searches together; return each one's result or failure reason.

    A search yields requests ``(batch, problem, omegas)``, ``batch`` being
    ``multipole.batch_counts`` or ``batch_h_eigenvalues``, is sent
    ``batch([(problem, omegas)])[0]`` for each, and returns its result or
    raises :class:`BandNotFoundError`.  Each step evaluates the requests of
    all searches in flight, one ``_evaluate`` per ``batch``.  At most
    ``_ENGINE_CACHE_SIZE`` run at once, so their engines all stay cached.
    """
    results: list = [None] * len(searches)
    started = 0
    asked: dict[int, tuple] = {}
    while True:
        while len(asked) < _ENGINE_CACHE_SIZE and started < len(searches):
            started += 1
            _advance(searches, started - 1, None, asked, results)
        if not asked:
            return results
        groups: dict[Callable, list] = {}
        for i, (batch, problem, omegas) in asked.items():
            groups.setdefault(batch, []).append((i, (problem, omegas)))
        asked.clear()
        for batch, group in groups.items():
            answers = _evaluate(batch, [request for _, request in group])
            for (i, _), answer in zip(group, answers):
                _advance(searches, i, answer, asked, results)


def _alone(search: Generator):
    """The result of one search, driven alone; its failure is raised."""
    (result,) = _drive([search])
    if isinstance(result, str):
        raise BandNotFoundError(result)
    return result


def bands_at(
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
    omega_max: float,
    band_count: int = 2,
) -> tuple[tuple[float, ...], tuple[RootDiagnostics, ...]]:
    """The ``band_count`` lowest band frequencies at one Bloch vector.

    Returns the frequencies, non-decreasing, a multiple root once per unit
    of its multiplicity, and their diagnostics.  At the zone centre the
    first band passes through zero frequency analytically (uniform
    translation mode), so it is reported as exactly 0 and only the bands
    above it are searched for; with none above it, nothing is counted.
    Raises :class:`BandNotFoundError` when fewer bands lie below
    ``omega_max``, or when a polished root fails the indicator.
    """
    return _alone(_band_search(alpha, material, crystal, truncation, omega_max,
                               band_count))


def retruncated_root(
    omega: float,
    alpha,
    material: MaterialParams,
    crystal: DiskCrystal,
    truncation: int,
) -> float:
    """Re-polish a band root with the harmonic truncation raised by two.

    Counts the larger problem at ``omega -+ _RETRUNCATED_SPREAD (1 +
    omega)``; with exactly one band between them, isolates it from any
    pole of ``H`` there and polishes it, and otherwise raises
    :class:`BandNotFoundError`.  Used to verify that reported band
    frequencies are stable under truncation growth.
    """
    return _alone(_retruncated_search(omega, alpha, material, crystal, truncation))


# ---------------------------------------------------------------------------
# path sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandPoint:
    """Band frequencies at one sample of the zone-boundary path.

    The frequencies never decrease; a multiple root repeats.
    """

    s: float
    alpha: np.ndarray = field(repr=False)
    omegas: tuple[float, ...]
    diagnostics: tuple[RootDiagnostics, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if any(
            not second >= first
            for first, second in zip(self.omegas, self.omegas[1:])
        ):
            raise ValueError("band frequencies must not decrease")


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
    corner), each searched as by :func:`bands_at`, with bitwise the same
    result; the searches advance together (``_drive``), and the points
    stay in path order.  Each distinct Bloch vector is solved once: the closing corner at
    ``s = 1`` repeats the result at ``s = 0``, or its failure with the same
    reason, so a sweep makes ``3 * resolution`` searches.  Failed samples
    are recorded with their reason as a string, not fatal.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3 points per edge")
    samples = _path_samples(resolution)
    results = _drive([
        _band_search(alpha, material, crystal, truncation, omega_max, band_count)
        for _, alpha in samples[:-1]])
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
