"""Multipole matrices of the bubble-lattice transmission problem.

A single circular bubble of radius ``R`` sits in each cell of the unit
square lattice.  Acoustic fields inside and outside the bubble are
represented by single-layer potentials over the bubble boundary, with
densities expanded in the angular harmonics ``e^{i n theta}``.  In that
basis the free-space single layer at wavenumber ``k`` is diagonal,

    value      c J_n(kR) H_n^(1)(kR),          c = -i pi R / 2,
    interior'  c k J_n'(kR) H_n^(1)(kR),
    exterior'  c k J_n(kR) H_n^(1)'(kR),

(the one-sided normal derivatives differ by exactly 1, the single-layer
jump), while the quasi-periodic layer adds a dense coupling through the
lattice sums ``Q``:

    S[m, n]  = value_n delta_{mn} + c J_n(kR) (-1)^(n-m) Q_{n-m} J_m(kR),
    dS[m, n] = exterior'_n delta_{mn}
               + c J_n(kR) (-1)^(n-m) Q_{n-m} k J_m'(kR).

Matching pressure and normal flux across the bubble boundary gives a
block system in the inner and outer densities,

    [  diag(a)    -S(alpha, k)        ]
    [  diag(b)    -delta dS(alpha, k) ],

with ``a_n = c J_|n|(k_b R) H_|n|(k_b R)``, ``b_n = c k_b J'_|n|(k_b R)
H_|n|(k_b R)``, ``k = omega / v``, ``k_b = omega / v_b`` and ``delta`` the
bubble-to-host density ratio.  Its inner block is diagonal: ``b_n`` times
pressure row n minus ``a_n`` times flux row n eliminates inner density n
and leaves row n of the ``(2N+1)``-square characteristic matrix

    T[n, :] = b_n S[n, :] - delta a_n dS[n, :].

``T`` is the Schur complement of the inner block with row n multiplied by
``a_n``, so ``det T`` equals the block system's determinant at every
``k_b R``, zeros of ``J_n`` included; the band frequencies are the
``omega`` where ``T`` is singular.  For ``alpha != 0`` the block ``S`` has
an exact k -> 0 limit, formed from the k -> 0 limits of the lattice sums
(``outer_block_limit``); it feeds the quasi-periodic capacity.

At a real frequency off the empty-lattice resonances ``S`` is Hermitian,
and so is ``H = diag(b / a) - delta dS S^-1``, the difference of the
bubble's interior Dirichlet-to-Neumann map and ``delta`` times the
perforated cell's exterior one; ``det T = det diag(a) det H det S``.  Both
terms of ``H`` decrease in ``omega`` between its poles, so the inertia of
``H`` and ``S`` at one frequency counts the bands below it
(``batch_counts``), which is how the band search finds them.

Derivative diagonals come from differentiating the one-sided interior /
exterior expansions directly, which reproduces the unit jump to machine
precision.  The blocks are built for all orders at once; sign and phase
conventions are pinned by the test suite against per-entry closed forms,
the block system itself, Nystrom quadrature, plane-wave sums and the
plane-wave quasi-static matrix, which sums the k -> 0 limit over a
truncated reciprocal lattice (the oracles of ``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.special as sp

from .lattice import as_bloch, empty_lattice_count, lattice_sum_table

__all__ = [
    "MaterialParams",
    "DiskCrystal",
    "MissingLatticeOrderError",
    "ZeroAlphaError",
    "outer_block_limit",
    "BlochProblem",
    "BandCount",
    "batch_counts",
    "batch_h_eigenvalues",
    "assemble_characteristic_matrix",
]


class MissingLatticeOrderError(LookupError):
    """Requested coupling order exceeds the supplied lattice-sum table."""


class ZeroAlphaError(ValueError):
    """Operation requires a nonzero Bloch vector."""


# ---------------------------------------------------------------------------
# parameter value objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialParams:
    """Densities and bulk moduli of the host fluid and the bubble fluid.

    Derived quantities are exposed as properties so they can never drift
    out of sync with the stored fields: sound speeds ``v = sqrt(kappa/rho)``
    (host) and ``v_b`` (bubble), and density contrast ``delta = rho_b / rho``.
    """

    rho: float
    kappa: float
    rho_b: float
    kappa_b: float

    def __post_init__(self) -> None:
        for name in ("rho", "kappa", "rho_b", "kappa_b"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")

    @property
    def delta(self) -> float:
        return self.rho_b / self.rho

    @property
    def v(self) -> float:
        return math.sqrt(self.kappa / self.rho)

    @property
    def v_b(self) -> float:
        return math.sqrt(self.kappa_b / self.rho_b)


@dataclass(frozen=True)
class DiskCrystal:
    """Geometry: one disk of radius ``radius`` per unit-square cell.

    The cell is ``[-1/2, 1/2]^2``; the disk must sit strictly inside it.
    """

    radius: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.radius) and 0.0 < self.radius < 0.5):
            raise ValueError("radius must lie strictly between 0 and 1/2")

    @property
    def area(self) -> float:
        """Area of the disk (the bubble volume per cell in 2D)."""
        return math.pi * self.radius**2


# ---------------------------------------------------------------------------
# cylinder-function tables over signed orders
# ---------------------------------------------------------------------------

def _cyl_tables(order_hi: int, z):
    """``J, J', H1, H1'`` for orders 0..order_hi at real ``z``.

    ``z`` may also be an array: each table then gains its axes in front,
    shaped ``z.shape + (order_hi + 1,)``.  ``scipy.special.jv`` and
    ``hankel1`` (AMOS, Amos 1986) evaluate orders 0..order_hi+1 in one call
    each; ``z`` must be positive.  ``J`` is computed on its own rather than
    as ``Re H1``, which would lose it under the dominant ``Y`` at small
    ``z``.  Derivatives use ``C_n' = (C_{n-1} - C_{n+1}) / 2`` and
    ``C_0' = -C_1``.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z) or np.any(z <= 0.0):
        raise ValueError("argument must be real and positive")
    z = z.astype(float, copy=False)
    orders = np.arange(order_hi + 2)
    j = sp.jv(orders, z[..., None])
    h = sp.hankel1(orders, z[..., None])
    jp = np.empty(z.shape + (order_hi + 1,))
    hp = np.empty_like(jp, dtype=complex)
    jp[..., 0] = -j[..., 1]
    hp[..., 0] = -h[..., 1]
    if order_hi >= 1:
        jp[..., 1:] = 0.5 * (j[..., :order_hi] - j[..., 2:])
        hp[..., 1:] = 0.5 * (h[..., :order_hi] - h[..., 2:])
    return j[..., : order_hi + 1], jp, h[..., : order_hi + 1], hp


def _parity_signs(orders: np.ndarray) -> np.ndarray:
    """``(-1)^n`` reflection factors for the negative entries of ``orders``."""
    return np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)


# ---------------------------------------------------------------------------
# quasi-periodic blocks
# ---------------------------------------------------------------------------

class CylinderFactors(NamedTuple):
    """The factors of ``T`` at a frequency that do not depend on ``alpha``.

    Over orders ``0..N``: ``J_n(kR)`` and ``J_n'(kR)``, real at a real
    frequency, the diagonals ``c J_n H_n(kR)`` of ``S`` and
    ``c k J_n H_n'(kR)`` of ``dS``, and the inner-block entries ``a_n`` and
    ``b_n`` (module docstring).  A stack of frequencies puts its axis in
    front of the orders.
    """

    j: np.ndarray
    jp: np.ndarray
    s_diag: np.ndarray
    ds_diag: np.ndarray
    a: np.ndarray
    b: np.ndarray


def cylinder_factors(omega, material: MaterialParams, radius: float,
                     truncation: int) -> CylinderFactors:
    """``CylinderFactors`` of orders ``0..truncation`` at ``omega``.

    ``omega`` is a positive frequency or an array of them.
    """
    omega = np.asarray(omega)
    k, k_b = omega / material.v, omega / material.v_b
    c = -0.5j * math.pi * radius
    j, jp, h, hp = _cyl_tables(truncation, k * radius)
    j_b, jp_b, h_b, _ = _cyl_tables(truncation, k_b * radius)
    return CylinderFactors(j, jp, c * j * h, c * k[..., None] * j * hp,
                           a=c * j_b * h_b, b=c * k_b[..., None] * jp_b * h_b)


def _outer_block_matrices(k, radius: float, sums: np.ndarray, order_max: int,
                          factors: CylinderFactors):
    """Dense ``(S, dS)`` blocks for all row/column orders ``-order_max..order_max``.

    ``sums`` holds ``LatticeSumTable.values`` at ``k``; for an array of
    wavenumbers, one row each, and the blocks gain the same leading axes.
    ``factors`` holds the ``cylinder_factors`` at the frequencies whose host
    wavenumbers are ``k``; its ``a`` and ``b`` are not read.
    """
    stored = (sums.shape[-1] - 1) // 2
    if stored < 2 * order_max:
        raise MissingLatticeOrderError(
            f"blocks of order {order_max} need lattice sums up to "
            f"{2 * order_max}; table holds {stored}"
        )
    k = np.asarray(k)
    j, jp, s_diag, ds_diag = factors[:4]
    orders = np.arange(-order_max, order_max + 1)
    signs = _parity_signs(orders)
    idx = np.abs(orders)
    j_s = signs * j[..., idx]
    jp_s = signs * jp[..., idx]

    diff = orders[None, :] - orders[:, None]          # n - m
    q_vals = sums[..., diff + stored]
    coupling = (-1.0) ** diff * q_vals * j_s[..., None, :]  # row m, column n

    c = -0.5j * math.pi * radius
    s_mat = c * (coupling * j_s[..., :, None])
    ds_mat = c * k[..., None, None] * (coupling * jp_s[..., :, None])
    # Parity signs cancel pairwise on the diagonal: J_n H_n = J_|n| H_|n|.
    diag = np.arange(orders.size)
    s_mat[..., diag, diag] += s_diag[..., idx]
    ds_mat[..., diag, diag] += ds_diag[..., idx]
    return s_mat, ds_mat


def outer_block_limit(
    limits: np.ndarray, radius: float, order_max: int
) -> np.ndarray:
    """Exact k -> 0 limit ``S0`` of the ``S`` block of ``_outer_block_matrices``.

    ``limits`` holds the scaled lattice-sum limits ``L_{-M}..L_M``,
    ``M >= 2 order_max``, of ``LatticeSumEngine.zero_k_limits``.  With
    ``J_n(kR) ~ (kR/2)^|n| / |n|!`` the coupling ``J_m Q_{n-m} J_n`` tends to
    ``R^|n-m| L_{n-m} / (|m|! |n|!)`` where ``|m| + |n| = |n - m|`` (orders of
    opposite sign, or one of them 0) and to 0 elsewhere off the diagonal;
    the diagonal ``c J_n H_n`` tends to ``-R / (2|n|)``.  At (0, 0) the
    logarithms of ``Q_0`` and of ``J_0 H_0`` cancel, leaving
    ``c (L_0 + 1 + (2i/pi)(log R + gamma))``.  Hermitian negative definite
    for ``alpha != 0``; the finite-k block approaches it like k^2.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    limits = np.asarray(limits)
    stored = (limits.size - 1) // 2
    if stored < 2 * order_max:
        raise MissingLatticeOrderError(
            f"blocks of order {order_max} need limits up to {2 * order_max}; "
            f"got {stored}"
        )
    orders = np.arange(-order_max, order_max + 1)
    idx = np.abs(orders)
    scale = _parity_signs(orders) / sp.factorial(idx)
    diff = orders[None, :] - orders[:, None]          # n - m
    c = -0.5j * math.pi * radius
    s0 = (
        c * (-1.0) ** diff * radius ** np.abs(diff)
        * limits[diff + stored] * scale[None, :] * scale[:, None]
    )
    s0[orders[:, None] * orders[None, :] > 0] = 0.0
    nonzero = np.flatnonzero(orders)
    s0[nonzero, nonzero] = -radius / (2.0 * idx[nonzero])
    s0[order_max, order_max] = c * (
        limits[stored] + 1.0 + (2j / math.pi) * (math.log(radius) + np.euler_gamma)
    )
    return s0


#: Positive zeros of ``J_n`` kept per order (``_merged_zeros``); the 32nd
#: lies above 98 at every order, far past any ``kR`` or ``k_b R`` in use.
_ZERO_COUNT = 32


@functools.lru_cache(maxsize=16)
def _merged_zeros(truncation: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The first ``_ZERO_COUNT`` zeros of ``J_0..J_N``, merged and ascending.

    Returns the zeros, the running count of the zeros of ``J_|n|`` over
    ``n = -N..N`` below each of them (a leading 0, then 1 per zero of
    ``J_0`` and 2 per zero of any other order), and the last zero kept of
    ``J_0``, the lowest last zero of any order.  Bessel zeros of different
    orders never coincide, so the order within the merge does not matter.
    Cached per truncation; the lattice sums end at order 2N <= 30, so 16
    entries hold every truncation.
    """
    zeros = [sp.jn_zeros(order, _ZERO_COUNT) for order in range(truncation + 1)]
    weights = np.repeat(np.minimum(np.arange(truncation + 1), 1) + 1, _ZERO_COUNT)
    merged = np.concatenate(zeros)
    order = np.argsort(merged)
    return (merged[order], np.concatenate(([0], np.cumsum(weights[order]))),
            float(zeros[0][-1]))


def _zero_count(x: np.ndarray, truncation: int) -> np.ndarray:
    """Zeros of ``J_|n|`` below each ``x`` over ``n = -N..N``.

    Each order ``n != 0`` counts twice, once for ``n`` and once for ``-n``.
    One sorted search of the merged zeros of orders ``0..N``.
    """
    zeros, below, limit = _merged_zeros(truncation)
    if np.any(x >= limit):
        raise ValueError("argument past the cached zeros of J_n")
    return below[np.searchsorted(zeros, x)]


def _hermitian_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``(M + M^H) / 2`` for each matrix ``M`` of a stack.

    A matrix with a non-finite entry gets a row of NaN.  ``eigvalsh``
    works matrix by matrix, so a matrix gets the same bits in a stack of
    any size.
    """
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    values = np.full(stack.shape[:-1], np.nan)
    if np.any(finite):
        m = stack[finite]
        values[finite] = np.linalg.eigvalsh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    return values


class BandCount(NamedTuple):
    """The band count of a ``BlochProblem`` at a stack of real frequencies.

    ``bands`` is the number of bands in ``(0, omega)``, ``poles`` the pole
    count ``P(omega)`` of ``H`` and ``eigenvalues`` the ascending
    eigenvalues of ``H`` (``batch_counts``), so that ``bands`` is
    ``poles`` plus the number of negative eigenvalues.  A frequency
    without a count has ``bands = poles = -1`` and NaN eigenvalues.
    """

    bands: np.ndarray
    poles: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True, eq=False)
class BlochProblem:
    """The characteristic-matrix problem of one Bloch vector.

    Holds the Bloch vector ``alpha``, the fluids, the crystal and the
    largest retained harmonic order ``truncation`` (N >= 0).  ``alpha``
    and ``truncation`` are checked once, at construction: ``alpha`` goes
    through ``as_bloch`` and is stored as a read-only copy, independent of
    the caller's array.
    """

    alpha: np.ndarray
    material: MaterialParams
    crystal: DiskCrystal
    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        alpha = as_bloch(self.alpha)
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    @property
    def lattice_order(self) -> int:
        """Order of the lattice sums the matrix reads: 2N, at least 1."""
        return max(2 * self.truncation, 1)


def _blocks(batch: Sequence[tuple[BlochProblem, np.ndarray]]
            ) -> tuple[CylinderFactors, np.ndarray, np.ndarray]:
    """The cylinder factors and ``(S, delta dS)`` blocks of a batch, stacked.

    ``batch`` pairs problems of one material, crystal and truncation with
    1-D arrays of real frequencies.  One lattice-sum batch per pair, read
    through ``lattice_sum_table``, and one batch of cylinder factors.
    """
    first = batch[0][0]
    material, crystal, truncation = first.material, first.crystal, first.truncation
    if any((p.material, p.crystal, p.truncation) != (material, crystal, truncation)
           for p, _ in batch):
        raise ValueError("a batch needs one material, crystal and truncation")
    omega = np.concatenate([omegas for _, omegas in batch])
    sums = np.concatenate([
        lattice_sum_table(p.lattice_order, omegas / material.v, p.alpha).values
        for p, omegas in batch])
    factors = cylinder_factors(omega, material, crystal.radius, truncation)
    s_outer, ds_outer = _outer_block_matrices(omega / material.v, crystal.radius,
                                              sums, truncation, factors)
    ds_outer *= material.delta
    return factors, s_outer, ds_outer


def _hermitian_pair(batch: Sequence[tuple[BlochProblem, np.ndarray]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian matrices ``S`` and ``H`` at every frequency of a batch.

    ``S`` is the outer block of the module docstring and
    ``H = diag(b / a) - delta dS S^-1``, with ``b_n / a_n =
    k_b J'_|n|(k_b R) / J_|n|(k_b R)``, the bubble's interior
    Dirichlet-to-Neumann map; ``dS S^-1`` is the exterior one of the
    perforated cell.  Both are ``(K, 2N+1, 2N+1)`` stacks over the K
    frequencies of the batch (``_blocks``), Hermitian for real ``omega``
    off the empty-lattice resonances and returned as computed, before any
    symmetrisation.  A frequency whose matrices are not finite (lattice
    sums on a resonance or past the tail test) gets NaN in both.
    ``det T = det diag(a) det H det S``, so the bands are the frequencies
    where ``H`` is singular.
    """
    factors, s_mat, ds_mat = _blocks(batch)
    idx = np.abs(np.arange(-batch[0][0].truncation, batch[0][0].truncation + 1))
    interior = (factors.b / factors.a).real[..., idx]
    finite = np.all(np.isfinite(s_mat), axis=(-2, -1)) & np.all(
        np.isfinite(interior), axis=-1)
    h_mat = np.full_like(s_mat, np.nan)
    s_mat[~finite] = np.nan
    if np.any(finite):
        # dS S^-1 as the transpose of the solve of S^T X = dS^T
        dtn = np.linalg.solve(np.swapaxes(s_mat[finite], -1, -2),
                              np.swapaxes(ds_mat[finite], -1, -2))
        h = -np.swapaxes(dtn, -1, -2)
        diag = np.arange(idx.size)
        h[..., diag, diag] += interior[finite]
        h_mat[finite] = h
    return s_mat, h_mat


def _per_pair(stack: np.ndarray, batch) -> list[np.ndarray]:
    """``stack``, whose first axis runs over the frequencies of ``batch``, per pair."""
    ends = itertools.accumulate(omegas.size for _, omegas in batch)
    return [stack[end - omegas.size:end] for (_, omegas), end in zip(batch, ends)]


def batch_h_eigenvalues(batch: Sequence[tuple[BlochProblem, np.ndarray]]
                        ) -> list[np.ndarray]:
    """Ascending eigenvalues of the symmetrised ``H`` of every pair of a batch.

    One row per frequency, from one lattice-sum batch (``_blocks``), and a
    row of NaN where ``H`` is not finite.  These are the ``eigenvalues`` of
    ``batch_counts``, from the same arithmetic, without the inertia of
    ``S`` and the pole count.
    """
    return _per_pair(_hermitian_eigenvalues(_hermitian_pair(batch)[1]), batch)


def batch_counts(batch: Sequence[tuple[BlochProblem, np.ndarray]]) -> list[BandCount]:
    """The band count of every pair of a batch at its real, positive frequencies.

    The number of bands in ``(0, omega)`` is ``n_-(H) + P(omega)``, the
    negative eigenvalues of ``H`` (``_hermitian_pair``) plus the poles of
    ``H`` below ``omega``, all from one frequency (Wittrick and Williams,
    Q. J. Mech. Appl. Math. 24 (1971) 263-284, for dynamic stiffness
    matrices; Friedlander, Arch. Rational Mech. Anal. 116 (1991) 153-160,
    for Dirichlet-to-Neumann maps):

        P = n_-(S) - n_0 + L(k) - Z(kR) + Z(k_b R),

    with ``n_0 = 2N + 1`` off the zone centre and ``2N`` at it (the
    negative eigenvalues of ``S`` as k -> 0), ``L(k)`` the empty-lattice
    resonances below ``k`` (``lattice.empty_lattice_count``) and ``Z`` the
    zeros of ``J_|n|`` below its argument over ``n = -N..N``.  Both terms
    of ``H`` decrease in ``omega`` between its poles, so the count never
    decreases.  At the zone centre it includes the zero band.  Both
    matrices are symmetrised, ``(M + M^H) / 2``, before their eigenvalues
    are taken; those of ``H`` are ``batch_h_eigenvalues``.  One lattice-sum
    batch (``_blocks``); a frequency whose matrices are not finite gets no
    count (``BandCount``).
    """
    s_mat, h_mat = _hermitian_pair(batch)
    problem = batch[0][0]
    material, truncation = problem.material, problem.truncation
    omega = np.concatenate([omegas for _, omegas in batch])
    # n_0 and L(k) of each frequency's own problem
    start = np.concatenate([np.full(omegas.size, 2 * truncation + bool(np.any(p.alpha)))
                            for p, omegas in batch])
    lines = np.concatenate([
        empty_lattice_count(p.lattice_order, p.alpha, omegas / material.v)
        for p, omegas in batch])
    eigenvalues = _hermitian_eigenvalues(h_mat)
    finite = ~np.isnan(eigenvalues[..., 0])
    bands = np.full(omega.shape, -1)
    poles = np.full(omega.shape, -1)
    if np.any(finite):
        outer = np.sum(_hermitian_eigenvalues(s_mat[finite]) < 0.0, axis=-1)
        k = omega[finite] / material.v
        k_b = omega[finite] / material.v_b
        poles[finite] = (
            outer - start[finite] + lines[finite]
            - _zero_count(k * problem.crystal.radius, truncation)
            + _zero_count(k_b * problem.crystal.radius, truncation)
        )
        bands[finite] = poles[finite] + np.sum(eigenvalues[finite] < 0.0, axis=-1)
    return [BandCount(*parts) for parts in zip(
        *(_per_pair(values, batch) for values in (bands, poles, eigenvalues)))]


def assemble_characteristic_matrix(
    omega, problem: BlochProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrix ``T`` of ``problem`` at ``omega``, with its row scale.

    ``T`` is the dense ``(2N+1)``-square complex matrix of the module
    docstring, rows and columns ordered ``n = -N..N``, whose singular
    frequencies are the band frequencies.  ``omega`` is one real, positive
    frequency or a 1-D array of K of them; an array gets a
    ``(K, 2N+1, 2N+1)`` stack and ``(K, 2N+1)`` scales built from one
    lattice-sum batch.  ``row_scale[n] = hypot(|a_n| f_n, |b_n| p_n)``, with
    ``p_n`` and ``f_n`` the max-norms of the block system's pressure and
    flux rows n, so ``T[n] / row_scale[n]`` is the row that eliminating
    inner density n by a rotation leaves in the row-equilibrated block
    system.  A frequency whose lattice sums fail (on an empty-lattice
    resonance, or past the tail test) gets NaN in every entry and scale,
    at one frequency as in a stack.
    """
    omega = np.asarray(omega)
    if np.iscomplexobj(omega) or omega.ndim > 1 or not np.all(omega > 0.0):
        raise ValueError("omega must be real and positive")
    factors, s_outer, ds_outer = _blocks(
        [(problem, np.atleast_1d(omega.astype(float)))])
    idx = np.abs(np.arange(-problem.truncation, problem.truncation + 1))
    a = factors.a[..., idx]
    b = factors.b[..., idx]
    matrix = b[..., None] * s_outer - a[..., None] * ds_outer

    pressure = np.maximum(np.abs(a), np.max(np.abs(s_outer), axis=-1))
    flux = np.maximum(np.abs(b), np.max(np.abs(ds_outer), axis=-1))
    scale = np.hypot(np.abs(a) * flux, np.abs(b) * pressure)
    return (matrix, scale) if omega.ndim else (matrix[0], scale[0])
