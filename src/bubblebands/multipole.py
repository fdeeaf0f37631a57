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

Matching pressure and normal flux across the bubble boundary gives the
block characteristic matrix

    [  inner layer (k_b)        -S(alpha, k)      ]
    [  inner interior' (k_b)    -delta dS(alpha, k) ],

whose characteristic values omega (through k = omega / v and
k_b = omega / v_b) are the band frequencies; ``delta`` is the
bubble-to-host density ratio.  For ``alpha != 0`` the block ``S`` has an
exact k -> 0 limit, formed from the k -> 0 limits of the lattice sums
(``outer_block_limit``); it feeds the quasi-periodic capacity.

Derivative diagonals come from differentiating the one-sided interior /
exterior expansions directly, which reproduces the unit jump to machine
precision.  The blocks are built for all orders at once; sign and phase
conventions are pinned by the test suite against per-entry closed forms,
Nystrom quadrature, plane-wave sums and the plane-wave quasi-static
matrix, which sums the k -> 0 limit over a truncated reciprocal lattice
(the oracles of ``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

from .lattice import EULER_GAMMA, LatticeSumTable, as_bloch, lattice_sum_table

__all__ = [
    "MaterialParams",
    "DiskCrystal",
    "CharacteristicMatrix",
    "MissingLatticeOrderError",
    "ZeroAlphaError",
    "outer_block_limit",
    "assemble_characteristic_matrix",
    "characteristic_entries",
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
    (host) and ``v_b`` (bubble), density contrast ``delta = rho_b / rho``
    and speed contrast ``tau = v / v_b``.
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

    @property
    def tau(self) -> float:
        return self.v / self.v_b


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


@dataclass(frozen=True)
class CharacteristicMatrix:
    """Assembled transmission matrix at one (omega, alpha, truncation).

    ``entries`` is the dense ``2(2N+1) x 2(2N+1)`` complex block matrix
    with ``N = truncation``; row blocks are [pressure continuity; flux
    continuity], column blocks are [inner density coefficients; outer
    density coefficients], each ordered ``n = -N .. N``.
    """

    omega: complex
    alpha: np.ndarray = field(repr=False)
    truncation: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        size = 2 * (2 * self.truncation + 1)
        if self.entries.shape != (size, size):
            raise ValueError(
                f"entries must be {size} x {size} for truncation {self.truncation}"
            )

    @property
    def size(self) -> int:
        return 2 * (2 * self.truncation + 1)


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

def _outer_block_matrices(k, radius: float, table: LatticeSumTable, order_max: int):
    """Dense ``(S, dS)`` blocks for all row/column orders ``-order_max..order_max``.

    For an array of wavenumbers with a batch ``table`` at them, the blocks
    gain the same leading axes.
    """
    if table.order_max < 2 * order_max:
        raise MissingLatticeOrderError(
            f"blocks of order {order_max} need lattice sums up to "
            f"{2 * order_max}; table holds {table.order_max}"
        )
    k = np.asarray(k)
    orders = np.arange(-order_max, order_max + 1)
    signs = _parity_signs(orders)
    j, jp, h, hp = _cyl_tables(order_max, k * radius)
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
    s_mat[..., diag, diag] += c * j[..., idx] * h[..., idx]
    ds_mat[..., diag, diag] += c * k[..., None] * j[..., idx] * hp[..., idx]
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
        limits[stored] + 1.0 + (2j / math.pi) * (math.log(radius) + EULER_GAMMA)
    )
    return s0


def assemble_characteristic_matrix(
    omega,
    material: MaterialParams,
    alpha,
    crystal: DiskCrystal,
    truncation: int,
) -> CharacteristicMatrix:
    """Full transmission matrix at frequency ``omega`` and Bloch vector ``alpha``.

    ``truncation`` is the largest retained harmonic order N; the result is
    the ``2(2N+1)``-square block matrix whose singular frequencies are the
    band frequencies.  ``omega`` may sit slightly off the real axis (the
    complex root refinement needs this); its real part must be positive.
    The lattice-sum table of order 2N is built internally at
    ``k = omega / v``.  Within ``lattice._GUARD`` of an empty-lattice
    resonance, or where the lattice sums miss their tolerance, the entries
    that need them are NaN.  This is ``characteristic_entries`` at one
    frequency.
    """
    omega_c = complex(omega)
    if omega_c.real <= 0.0:
        raise ValueError("omega must have positive real part")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    alpha = as_bloch(alpha)
    if omega_c.imag == 0.0:
        omega_c = omega_c.real
    entries = characteristic_entries(omega_c, material, alpha, crystal, truncation)
    return CharacteristicMatrix(omega_c, alpha, truncation, entries)


def characteristic_entries(
    omega,
    material: MaterialParams,
    alpha,
    crystal: DiskCrystal,
    truncation: int,
) -> np.ndarray:
    """Entries of the characteristic matrix at ``omega``, or at each frequency of a 1-D array.

    Returns the ``2(2N+1)``-square matrix, or for an array of K frequencies
    (positive real part) a ``(K, 2(2N+1), 2(2N+1))`` stack built from one
    lattice-sum batch (``lattice_sum_table``).  A frequency whose lattice
    sums fail the guard or the tail test gets NaN in every entry that needs
    them (the columns of the outer densities), at one frequency as in a
    stack, leaving the rest of the stack intact.
    ``assemble_characteristic_matrix`` also validates the inputs.
    """
    omega = np.asarray(omega)
    k = omega / material.v
    k_b = omega / material.v_b
    table = lattice_sum_table(max(2 * truncation, 1), k, alpha)
    s_outer, ds_outer = _outer_block_matrices(
        k, crystal.radius, table, truncation
    )

    orders = np.arange(-truncation, truncation + 1)
    idx = np.abs(orders)
    j_b, jp_b, h_b, _ = _cyl_tables(truncation, k_b * crystal.radius)
    c = -0.5j * math.pi * crystal.radius

    width = orders.size
    diag = np.arange(width)
    entries = np.zeros(omega.shape + (2 * width, 2 * width), dtype=complex)
    entries[..., diag, diag] = c * j_b[..., idx] * h_b[..., idx]
    entries[..., :width, width:] = -s_outer
    entries[..., width + diag, diag] = (
        c * k_b[..., None] * jp_b[..., idx] * h_b[..., idx]
    )
    entries[..., width:, width:] = -material.delta * ds_outer
    return entries
