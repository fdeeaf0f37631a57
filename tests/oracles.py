"""Slow, transparent oracles that the tests check the package against.

Nothing in ``bubblebands`` calls these; they live with the tests so that
the installed package holds only the production pipeline.

Independent routes that cross-check the production solver:

* ``nystrom_free_space`` -- literal quadrature of the free-space single-layer
  kernel on the circle, with the logarithmic singularity handled by a
  product-quadrature rule (trigonometric interpolation integrated exactly
  against ``ln(4 sin^2(u/2))``).  Checks the analytic diagonal formula.
* ``spectral_reference_entry`` -- plane-wave (reciprocal-lattice) sum of the
  quasi-periodic kernel, with the circle integrals done by plain trapezoid
  quadrature of complex exponentials.  No Bessel functions anywhere, so it is
  independent of both the multipole formulas and the cylinder-function code.
* ``quasistatic_matrix`` -- the k -> 0 single-layer block summed over a
  truncated reciprocal lattice with Bessel functions
  (``bubblebands.bessel.bessel_j_seq``); it converges like 1/cutoff, so a
  Neville ladder (``neville_to_zero``) over the cutoff checks the exact
  limit ``multipole.outer_block_limit``.
* ``brute_lattice_sum`` -- direct summation of the Hankel lattice sum over a
  large disk of lattice points, tamed by a smooth radial window plus
  Richardson extrapolation in the window radius.  Independent of the fast
  (Ewald) evaluation in :mod:`bubblebands.lattice`.
* ``central_series`` -- the order-0 central term of the Ewald split by its
  power series, against which the closed form with the exponential
  integral is checked.
* ``inner_block_diag`` and ``outer_block_entries`` -- the single-layer
  blocks one entry at a time, from the closed forms, against which the
  vectorised assembly of the characteristic matrix is checked.
* ``block_characteristic_matrix`` -- the ``2(2N+1)``-square block system
  of pressure and flux continuity in the inner and outer densities, whose
  determinant the ``(2N+1)``-square characteristic matrix reproduces.
* ``empty_lattice_margin`` -- the distance to the nearest empty-lattice
  resonance by a full minimum over the reciprocal points.

The quadrature, plane-wave and brute-force routes value clarity over speed
and rely on :mod:`scipy.special` so that the special functions, too, come
from an independent implementation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

from bubblebands import bessel
from bubblebands.lattice import LatticeSumTable, as_bloch, lattice_sum_table
from bubblebands.multipole import (
    BlochProblem,
    MissingLatticeOrderError,
    ZeroAlphaError,
    _cyl_tables,
    _outer_block_matrices,
    _parity_signs,
    cylinder_factors,
)

EULER_GAMMA = 0.5772156649015329

#: Chunk size (reciprocal-lattice points per batch) for the quasi-static sum.
_Q_CHUNK = 1 << 16


def neville_to_zero(steps, values):
    """Neville extrapolation to ``1/step -> 0`` of a polynomial in ``1/step``.

    ``values`` may be numbers or arrays of one shape (elementwise).
    """
    h = [1.0 / s for s in steps]
    tab = list(values)
    for level in range(1, len(tab)):
        tab = [
            tab[i + 1] + (tab[i + 1] - tab[i]) * h[i + level] / (h[i] - h[i + level])
            for i in range(len(tab) - 1)
        ]
    return tab[0]


# ---------------------------------------------------------------------------
# quadrature rule with logarithmic-singularity correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Uniform periodic trapezoid rule plus log-kernel product weights.

    Attributes
    ----------
    node_count : int
        Number of nodes ``P`` (even, >= 64).
    nodes : ndarray
        ``theta_j = 2 pi j / P``, shape ``(P,)``.
    weights : ndarray
        Plain trapezoid weights ``2 pi / P``; they sum to ``2 pi``.
    log_weights : ndarray
        Weights ``R_j`` integrating a smooth periodic factor against
        ``ln(4 sin^2(u/2))`` exactly for trigonometric polynomials up to
        degree ``P/2``; they sum to zero because the log kernel has zero
        mean over the period.
    """

    node_count: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)

    @classmethod
    def with_node_count(cls, node_count: int) -> "QuadratureRule":
        if node_count < 64 or node_count % 2 != 0:
            raise ValueError("node_count must be an even integer >= 64")
        P = node_count
        nodes = 2.0 * np.pi * np.arange(P) / P
        weights = np.full(P, 2.0 * np.pi / P)
        # Exact integrals of the interpolation basis against ln(4 sin^2(u/2)):
        # the e^{imu} mode integrates to -2 pi / |m| (zero mean for m = 0).
        m = np.arange(1, P // 2)
        log_weights = -(4.0 * np.pi / P) * (
            np.cos(np.outer(nodes, m)) @ (1.0 / m)
            + np.cos(0.5 * P * nodes) / P
        )
        rule = cls(P, nodes, weights, log_weights)
        rule.validate()
        return rule

    def validate(self) -> None:
        if self.node_count < 64 or self.node_count % 2:
            raise ValueError("node_count must be an even integer >= 64")
        if abs(self.weights.sum() - 2.0 * np.pi) > 1e-12:
            raise ValueError("trapezoid weights must sum to 2*pi")
        if abs(self.log_weights.sum()) > 1e-10:
            raise ValueError("log-kernel weights must sum to 0")

    def doubled(self) -> "QuadratureRule":
        return QuadratureRule.with_node_count(2 * self.node_count)


# ---------------------------------------------------------------------------
# Nystrom evaluation of the free-space single layer on a circle
# ---------------------------------------------------------------------------

def _kernel_split(k: float, R: float, u: np.ndarray):
    """Split -(i R/4) H_0(2 k R sin(u/2)) into smooth + log parts.

    Returns ``(A, B)`` with kernel ``= A(u) + B(u) ln(4 sin^2(u/2))``.  Uses
    ``Y_0(z) = (2/pi)[(ln(z/2) + gamma) J_0(z) + Sigma(z)]`` to peel the
    logarithm off the Hankel function; ``Sigma`` is recovered numerically
    from scipy's ``y0``/``j0`` (it vanishes at ``z = 0``).
    """
    z = 2.0 * k * R * np.abs(np.sin(0.5 * u))
    j0 = sp.j0(z)
    sigma = np.zeros_like(z)
    pos = z > 0.0
    zp = z[pos]
    sigma[pos] = 0.5 * np.pi * sp.y0(zp) - (np.log(0.5 * zp) + EULER_GAMMA) * sp.j0(zp)
    A = (-0.25j * R) * j0 + (R / (2.0 * np.pi)) * (
        (np.log(0.5 * k * R) + EULER_GAMMA) * j0 + sigma
    )
    B = (R / (4.0 * np.pi)) * j0
    return A, B


def nystrom_free_space(n: int, k: float, R: float, rule: QuadratureRule) -> complex:
    """Order-``n`` diagonal value of the free-space single layer on the circle.

    Projects ``integral of -(i/4) H_0(k |x - y|) e^{i n theta_y} R dtheta_y``
    onto ``e^{i n theta_x}``; by rotation invariance this is the single number
    ``integral K(u) e^{-i n u} du`` with ``K`` the kernel as a function of the
    angle difference.  Warns if doubling the rule moves the value by > 1e-7.
    """
    if k <= 0.0 or R <= 0.0:
        raise ValueError("k and R must be positive")

    def one(r: QuadratureRule) -> complex:
        A, B = _kernel_split(k, R, r.nodes)
        phase = np.exp(-1j * n * r.nodes)
        return complex(np.sum((r.weights * A + r.log_weights * B) * phase))

    value = one(rule)
    drift = abs(one(rule.doubled()) - value)
    if drift > 1e-7:
        warnings.warn(
            f"free-space quadrature not self-converged (doubling moved the "
            f"value by {drift:.2e})",
            stacklevel=2,
        )
    return value


# ---------------------------------------------------------------------------
# plane-wave reference for quasi-periodic layer-potential entries
# ---------------------------------------------------------------------------

def spectral_reference_entry(
    m: int,
    n: int,
    k: float,
    alpha,
    R: float,
    cutoff: int,
    node_count: int = 512,
    margin: float = 0.05,
) -> complex:
    """Entry (m, n) of the quasi-periodic single layer via plane waves.

    Sums ``e^{i q.(x-y)} / (k^2 - |q|^2)`` over the reciprocal points
    ``q = 2 pi (i, j) + alpha`` with ``|q|_inf <= 2 pi cutoff``, integrating
    each plane wave over the two circle angles by ``node_count``-point
    trapezoid sums.  Normalisation matches the operator-module convention
    (densities ``e^{i n theta}``, arc element ``R dtheta``, output coefficient
    of ``e^{i m theta_x} / (2 pi)``).  The truncation window is the same
    ``|q|_inf`` ball ``quasistatic_matrix`` uses, so same-cutoff
    comparisons cancel the truncation tail exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    if k < 0.0:
        raise ValueError("k must be >= 0")
    if np.hypot(alpha[0], alpha[1]) == 0.0:
        raise ValueError("alpha must be nonzero")

    ii = np.arange(-cutoff - 1, cutoff + 2)
    gx, gy = np.meshgrid(2.0 * np.pi * ii + alpha[0], 2.0 * np.pi * ii + alpha[1],
                         indexing="ij")
    inside = np.maximum(np.abs(gx), np.abs(gy)) <= 2.0 * np.pi * cutoff
    q = np.column_stack([gx[inside], gy[inside]])
    q_norm2 = np.einsum("ij,ij->i", q, q)
    if k > 0.0 and np.min(np.abs(k - np.sqrt(q_norm2))) <= margin:
        raise ValueError("k is within the guard margin of an empty-lattice resonance")

    P = node_count
    theta = 2.0 * np.pi * np.arange(P) / P
    ring = R * np.column_stack([np.cos(theta), np.sin(theta)])  # (P, 2)
    phase_m = np.exp(-1j * m * theta)
    phase_n = np.exp(-1j * n * theta)

    total = 0.0 + 0.0j
    chunk = 65536
    for lo in range(0, q.shape[0], chunk):
        qc = q[lo:lo + chunk]
        ew = np.exp(1j * (qc @ ring.T))          # (chunk, P): e^{i q.x_j}
        A_m = ew @ phase_m                       # sum_j e^{i q.x_j} e^{-i m theta_j}
        A_n = ew @ phase_n if n != m else A_m
        total += np.sum(A_m * np.conj(A_n) / (k * k - q_norm2[lo:lo + chunk]))
    return complex(2.0 * np.pi * R / P**2 * total)


# ---------------------------------------------------------------------------
# quasi-static (zero-wavenumber) matrix over a truncated reciprocal lattice
# ---------------------------------------------------------------------------

def quasistatic_matrix(
    alpha, radius: float, order_max: int, cutoff: int
) -> np.ndarray:
    """Zero-wavenumber quasi-periodic single-layer matrix, harmonic basis.

    Entry ``(m, n)``, orders ``-order_max..order_max``, is

        -2 pi R sum_q i^m (-i)^n J_m(|q|R) J_n(|q|R) e^{i(n-m) arg q} / |q|^2

    over reciprocal points ``q = 2 pi nu + alpha`` with
    ``|q|_inf <= 2 pi cutoff``.  The summand is a negative-weighted Gram
    term ``B B^H``, so the matrix is Hermitian negative definite by
    construction.  Convergence is absolute (``|q|^{-3}`` after angular
    averaging); no zero-wavenumber log divergence appears because
    ``alpha != 0`` keeps every denominator away from zero.
    """
    alpha = as_bloch(alpha)
    if float(np.hypot(alpha[0], alpha[1])) == 0.0:
        raise ZeroAlphaError("quasi-static matrix requires alpha != 0")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    if cutoff < 20:
        raise ValueError("cutoff must be >= 20")

    reach = cutoff + 1
    nu = np.arange(-reach, reach + 1)
    qx = (2.0 * math.pi * nu + alpha[0])[:, None]
    qy = (2.0 * math.pi * nu + alpha[1])[None, :]
    keep = np.maximum(np.abs(qx), np.abs(qy)) <= 2.0 * math.pi * cutoff
    qx, qy = np.broadcast_arrays(qx, qy)
    qx, qy = qx[keep], qy[keep]
    qnorm = np.hypot(qx, qy)
    qarg = np.arctan2(qy, qx)

    orders = np.arange(-order_max, order_max + 1)
    signs = _parity_signs(orders)
    idx = np.abs(orders)
    i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])[orders % 4]

    width = orders.size
    result = np.zeros((width, width), dtype=complex)
    for start in range(0, qnorm.size, _Q_CHUNK):
        sl = slice(start, start + _Q_CHUNK)
        j_tab = bessel.bessel_j_seq(order_max, qnorm[sl] * radius)
        basis = (
            (signs * i_pow)[:, None]
            * j_tab[idx, :]
            * np.exp(-1j * orders[:, None] * qarg[None, sl])
        )
        result += (basis / qnorm[None, sl] ** 2) @ basis.conj().T
    return -2.0 * math.pi * radius * result


# ---------------------------------------------------------------------------
# single-layer blocks one entry at a time
# ---------------------------------------------------------------------------

def inner_block_diag(n: int, wavenumber, radius: float):
    """Diagonal single-layer pair ``(value, interior derivative)`` at order n.

    ``value = c J_n(z) H_n^(1)(z)`` and
    ``d_value = c k J_n'(z) H_n^(1)(z)`` with ``z = wavenumber * radius``
    and ``c = -i pi radius / 2``; the derivative is the interior one-sided
    normal derivative.  Orders enter through ``|n|`` only
    (``J_{-n} H_{-n} = J_n H_n``).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    order = abs(int(n))
    z = wavenumber * radius
    j, jp, h, _ = _cyl_tables(order, z)
    c = -0.5j * math.pi * radius
    return c * j[order] * h[order], c * wavenumber * jp[order] * h[order]


def outer_block_entries(
    m: int, n: int, k, alpha, radius: float, table: LatticeSumTable
):
    """Entry ``(value, exterior derivative)`` of the quasi-periodic layer.

    Row order ``m`` (projection), column order ``n`` (density); ``table``
    must hold the lattice sum of order ``n - m`` and must have been built
    at the same ``(k, alpha)``.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    alpha = as_bloch(alpha)
    if abs(complex(k) - complex(table.k)) > 1e-12 * max(1.0, abs(complex(k))):
        raise ValueError("table was built at a different wavenumber")
    if not np.allclose(alpha, table.alpha, atol=1e-12):
        raise ValueError("table was built at a different Bloch vector")
    if abs(n - m) > table.order_max:
        raise MissingLatticeOrderError(
            f"coupling order {n - m} exceeds table order_max={table.order_max}"
        )

    order_hi = max(abs(m), abs(n))
    z = k * radius
    j, jp, h, hp = _cyl_tables(order_hi, z)
    sg_m = 1.0 if m >= 0 or m % 2 == 0 else -1.0
    sg_n = 1.0 if n >= 0 or n % 2 == 0 else -1.0
    j_m, jp_m = sg_m * j[abs(m)], sg_m * jp[abs(m)]
    j_n, h_n, hp_n = sg_n * j[abs(n)], sg_n * h[abs(n)], sg_n * hp[abs(n)]

    c = -0.5j * math.pi * radius
    coupling = c * j_n * (-1.0) ** (n - m) * table.value(n - m)
    s = coupling * j_m
    ds = coupling * k * jp_m
    if m == n:
        s += c * j_n * h_n
        ds += c * k * j_n * hp_n
    return s, ds


def block_characteristic_matrix(omega, problem: BlochProblem) -> np.ndarray:
    """The ``2(2N+1)``-square block system of ``problem`` at ``omega``.

    Row blocks are [pressure continuity; flux continuity], column blocks
    [inner density coefficients; outer density coefficients], each ordered
    ``n = -N..N``:

        [ diag(a)   -S       ]
        [ diag(b)   -delta dS ],

    with the inner layer's diagonals ``a_n = c J_|n| H_|n|`` and
    ``b_n = c k_b J'_|n| H_|n|`` at ``k_b R``.  Its determinant equals that of
    ``multipole.BlochProblem.entries``' matrix, which eliminates the inner
    densities.
    """
    omega = complex(omega)
    if omega.imag == 0.0:
        omega = omega.real
    material, crystal, truncation = problem.material, problem.crystal, problem.truncation
    k = omega / material.v
    k_b = omega / material.v_b
    table = lattice_sum_table(max(2 * truncation, 1), k, problem.alpha)
    factors = cylinder_factors(omega, material, crystal.radius, truncation)
    s_outer, ds_outer = _outer_block_matrices(k, crystal.radius, table, truncation,
                                              factors)

    idx = np.abs(np.arange(-truncation, truncation + 1))
    j_b, jp_b, h_b, _ = _cyl_tables(truncation, k_b * crystal.radius)
    c = -0.5j * math.pi * crystal.radius
    width = idx.size
    diag = np.arange(width)
    entries = np.zeros((2 * width, 2 * width), dtype=complex)
    entries[diag, diag] = c * j_b[idx] * h_b[idx]
    entries[:width, width:] = -s_outer
    entries[width + diag, diag] = c * k_b * jp_b[idx] * h_b[idx]
    entries[width:, width:] = -material.delta * ds_outer
    return entries


# ---------------------------------------------------------------------------
# brute-force lattice sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteSumResult:
    """Value of a lattice sum plus a dispersion estimate of the tail."""

    value: complex
    dispersion: float


def brute_lattice_sum(
    n: int, k: float, alpha, shell_count: int = 600, smoothing: int = 4
) -> BruteSumResult:
    """Lattice sum of ``H_n(k|m|) e^{i n arg m} e^{i m.alpha}`` over m != 0.

    The radially ordered sum converges only conditionally (annulus
    contributions oscillate with amplitude growing like sqrt(r)), so raw
    partial sums -- with or without a terminal Shanks pass -- stall around
    1e-3.  Instead each term is weighted by the smooth radial window
    ``(1 - r/J)^smoothing``; the windowed value approaches the limit with a
    clean expansion in powers of ``1/J``, and Richardson extrapolation over
    the nested windows ``J = S/8, S/4, S/2, S`` removes the ``1/J``..``1/J^3``
    terms.  Validated against the exact rule ``Re Q_0 = -1`` (true for
    every admissible ``alpha`` and non-resonant ``k``) and against an
    independent Ewald evaluation: absolute errors are below 3e-7 at
    ``S = 600`` for moderate ``k`` away from empty-lattice resonances.

    The dispersion reported is the distance to the extrapolant that omits
    the finest window -- conservative (typically 10-100x the true error)
    but an observed upper bound in all validation cases.
    """
    if shell_count < 100:
        raise ValueError("shell_count must be >= 100")
    if k <= 0.0:
        raise ValueError("k must be positive")
    alpha = np.asarray(alpha, dtype=float)

    S = shell_count
    ij = np.arange(-S, S + 1)
    mx, my = np.meshgrid(ij, ij, indexing="ij")
    mx = mx.ravel()
    my = my.ravel()
    r2 = mx * mx + my * my
    keep = (r2 > 0) & (r2 <= S * S)
    mx, my = mx[keep], my[keep]
    r = np.sqrt(r2[keep])

    hank = sp.hankel1(abs(n), k * r)
    ang = np.arctan2(my, mx)
    terms = hank * np.exp(1j * (n * ang + mx * alpha[0] + my * alpha[1]))
    if n < 0:  # H_{-n} = (-1)^n H_n
        terms *= (-1.0) ** abs(n)

    radii = [S / 8.0, S / 4.0, S / 2.0, float(S)]
    windowed = [
        complex(np.sum(terms * np.clip(1.0 - r / J, 0.0, None) ** smoothing))
        for J in radii
    ]
    value = complex(neville_to_zero(radii, windowed))
    without_finest = complex(neville_to_zero(radii[:-1], windowed[:-1]))
    dispersion = abs(value - without_finest) + 1e-13 * (1.0 + abs(value))
    return BruteSumResult(value, dispersion)


# ---------------------------------------------------------------------------
# central term of the Ewald split
# ---------------------------------------------------------------------------

def central_series(k) -> np.ndarray:
    """Order-0 central term of the Ewald lattice sum at complex ``k`` (Re k > 0).

    ``-1 - (i/pi) [2 log(k / 2 eta) + gamma + sum_{j>=1} z^j / (j j!)]``
    with ``z = (k / 2 eta)^2`` and ``eta = sqrt(pi)``.  The series is summed
    term by term over j = 1..59 and stopped at each k's first term below
    1e-18 of the partial sum (or of 1).
    """
    ks = np.atleast_1d(np.asarray(k, dtype=complex))
    half_k = 0.5 * ks
    eta = math.sqrt(math.pi)
    j = np.arange(1.0, 60.0)
    divisors = np.cumprod(j) * j
    terms = np.cumprod(
        np.broadcast_to(((half_k / eta) ** 2)[:, None], (ks.size, j.size)), axis=1
    ) / divisors
    partial = np.cumsum(terms, axis=1)
    small = np.abs(terms[:, 1:]) < 1e-18 * np.maximum(1.0, np.abs(partial[:, 1:]))
    stop = np.where(small.any(axis=1), np.argmax(small, axis=1) + 1, -1)
    acc = partial[np.arange(ks.size), stop]
    return -1.0 - (1j / np.pi) * (2.0 * np.log(half_k / eta) + EULER_GAMMA + acc)


# ---------------------------------------------------------------------------
# empty-lattice resonances
# ---------------------------------------------------------------------------

def empty_lattice_margin(k: float, alpha) -> float:
    """Distance from ``k`` to the nearest empty-lattice resonance ``|q|``.

    Scans reciprocal points ``q = 2 pi nu + alpha`` with ``|q| <= k + 2 pi``
    and returns ``min |k - |q||``; if no reciprocal point lies that close,
    returns ``k + 2 pi`` as a floor.
    """
    alpha = as_bloch(alpha)
    k = float(k)
    reach = int(np.ceil((k + 2.0 * np.pi + np.pi * np.sqrt(2.0)) / (2.0 * np.pi))) + 1
    ii = 2.0 * np.pi * np.arange(-reach, reach + 1)
    qn = np.sqrt((ii + alpha[0])[:, None] ** 2 + (ii + alpha[1])[None, :] ** 2).ravel()
    qn = qn[qn <= k + 2.0 * np.pi]
    if qn.size == 0:
        return k + 2.0 * np.pi
    return float(np.min(np.abs(k - qn)))
