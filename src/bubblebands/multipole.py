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

Derivative diagonals come from differentiating the one-sided interior /
exterior expansions directly, which reproduces the unit jump to machine
precision.  The blocks are built for all orders at once; sign and phase
conventions are pinned by the test suite against per-entry closed forms,
the block system itself, Nystrom quadrature, plane-wave sums and the
plane-wave quasi-static matrix, which sums the k -> 0 limit over a
truncated reciprocal lattice (the oracles of ``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special as sp

from .lattice import LatticeSumTable, as_bloch, lattice_sum_table

__all__ = [
    "MaterialParams",
    "DiskCrystal",
    "MissingLatticeOrderError",
    "ZeroAlphaError",
    "outer_block_limit",
    "BlochProblem",
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
    """``J, J', H1, H1'`` for orders 0..order_hi at real or complex ``z``.

    ``z`` may also be an array: each table then gains its axes in front,
    shaped ``z.shape + (order_hi + 1,)``.  ``scipy.special.jv`` and
    ``hankel1`` (AMOS, Amos 1986) evaluate orders 0..order_hi+1 in one call
    each, on the real axis and off it (root refinement at complex
    frequencies) alike; ``Re z`` must be positive.  ``J`` is computed on its
    own rather than as ``Re H1``, which would lose it under the dominant
    ``Y`` at small ``z``.  Derivatives use ``C_n' = (C_{n-1} - C_{n+1}) / 2``
    and ``C_0' = -C_1``.
    """
    zc = np.asarray(z, dtype=complex)
    if np.any(zc.real <= 0.0):
        raise ValueError("argument must have positive real part")
    arg = zc if np.any(zc.imag) else zc.real
    orders = np.arange(order_hi + 2)
    j = sp.jv(orders, arg[..., None])
    h = sp.hankel1(orders, arg[..., None])
    jp = np.empty(zc.shape + (order_hi + 1,), dtype=complex)
    hp = np.empty_like(jp)
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

    ``omega`` is a frequency (positive real part) or an array of them.
    """
    omega = np.asarray(omega)
    k, k_b = omega / material.v, omega / material.v_b
    c = -0.5j * math.pi * radius
    j, jp, h, hp = _cyl_tables(truncation, k * radius)
    if not np.iscomplexobj(j):
        jp = jp.real
    j_b, jp_b, h_b, _ = _cyl_tables(truncation, k_b * radius)
    return CylinderFactors(j, jp, c * j * h, c * k[..., None] * j * hp,
                           a=c * j_b * h_b, b=c * k_b[..., None] * jp_b * h_b)


def _outer_block_matrices(k, radius: float, table: LatticeSumTable, order_max: int,
                          factors: CylinderFactors):
    """Dense ``(S, dS)`` blocks for all row/column orders ``-order_max..order_max``.

    For an array of wavenumbers with a batch ``table`` at them, the blocks
    gain the same leading axes.  ``factors`` holds the ``cylinder_factors``
    at the frequencies whose host wavenumbers are ``k``; its ``a`` and ``b``
    are not read.
    """
    if table.order_max < 2 * order_max:
        raise MissingLatticeOrderError(
            f"blocks of order {order_max} need lattice sums up to "
            f"{2 * order_max}; table holds {table.order_max}"
        )
    k = np.asarray(k)
    j, jp, s_diag, ds_diag = factors[:4]
    orders = np.arange(-order_max, order_max + 1)
    signs = _parity_signs(orders)
    idx = np.abs(orders)
    j_s = signs * j[..., idx]
    jp_s = signs * jp[..., idx]

    diff = orders[None, :] - orders[:, None]          # n - m
    q_vals = table.values[..., diff + table.order_max]
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

    def entries(self, omegas) -> tuple[np.ndarray, np.ndarray]:
        """The characteristic matrix ``T`` and its row scale at ``omegas``.

        Returns ``T`` (module docstring) and its ``(2N+1,)`` row scale, or
        for a 1-D array of K frequencies (positive real part) a
        ``(K, 2N+1, 2N+1)`` stack and ``(K, 2N+1)`` scales built from one
        lattice-sum batch.  ``row_scale[n] = hypot(|a_n| f_n, |b_n| p_n)``,
        with ``p_n`` and ``f_n`` the max-norms of the block system's
        pressure and flux rows n, so ``T[n] / row_scale[n]`` is the row that
        eliminating inner density n by a rotation leaves in the
        row-equilibrated block system.  A frequency whose lattice sums fail
        the guard or the tail test gets NaN in every entry and scale, at one
        frequency as in a stack.
        """
        omega = np.asarray(omegas)
        table = lattice_sum_table(self.lattice_order, omega / self.material.v,
                                  self.alpha)
        factors = cylinder_factors(
            omega, self.material, self.crystal.radius, self.truncation
        )
        return self.entries_from(omega, table, factors)

    def entries_from(
        self, omegas, table: LatticeSumTable, factors: CylinderFactors
    ) -> tuple[np.ndarray, np.ndarray]:
        """``entries`` at ``omegas`` from lattice sums and cylinder factors given there.

        ``table`` holds the lattice sums at ``omegas / v`` (orders up to at
        least 2N) and ``factors`` the ``cylinder_factors`` at ``omegas``.
        The frequency scan passes tables it got more cheaply than
        ``entries`` would (``bands``).
        """
        omega = np.asarray(omegas)
        material, truncation = self.material, self.truncation
        k = omega / material.v
        s_outer, ds_outer = _outer_block_matrices(
            k, self.crystal.radius, table, truncation, factors
        )
        ds_outer *= material.delta

        idx = np.abs(np.arange(-truncation, truncation + 1))
        a = factors.a[..., idx]
        b = factors.b[..., idx]
        matrix = b[..., None] * s_outer - a[..., None] * ds_outer

        pressure = np.maximum(np.abs(a), np.max(np.abs(s_outer), axis=-1))
        flux = np.maximum(np.abs(b), np.max(np.abs(ds_outer), axis=-1))
        return matrix, np.hypot(np.abs(a) * flux, np.abs(b) * pressure)


def assemble_characteristic_matrix(
    omega, problem: BlochProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrix ``T`` of ``problem`` at ``omega``, with its row scale.

    ``T`` is the dense ``(2N+1)``-square complex matrix of the module
    docstring, rows and columns ordered ``n = -N..N``, whose singular
    frequencies are the band frequencies.  ``omega`` may sit slightly off
    the real axis (the complex root refinement needs this); its real part
    must be positive, and a zero imaginary part is dropped so that the
    real-frequency tables are used.  Within ``lattice._GUARD`` of an
    empty-lattice resonance, or where the lattice sums miss their
    tolerance, every entry is NaN.  This is ``problem.entries`` at one
    frequency, with the frequency checked.
    """
    omega_c = complex(omega)
    if omega_c.real <= 0.0:
        raise ValueError("omega must have positive real part")
    if omega_c.imag == 0.0:
        omega_c = omega_c.real
    return problem.entries(omega_c)
