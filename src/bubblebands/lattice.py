"""Quasi-periodic lattice sums of Hankel functions over the square lattice.

Computes, for Bloch vector ``alpha`` and wavenumber ``k``,

    Q_n(k, alpha) = sum over m in Z^2, m != 0 of
                    H_n^(1)(k |m|) e^{i n arg(m)} e^{i m . alpha},

the quantity coupling a scatterer to its periodic images in the
cylindrical-harmonic basis.  The defining series converges only
conditionally; production evaluation uses an Ewald split with splitting
parameter ``eta = sqrt(pi)``:

* a reciprocal (spectral) part over ``p = 2 pi nu + alpha`` with Gaussian
  factors ``exp((k^2 - |p|^2)/(4 eta^2)) / (k^2 - |p|^2)`` -- this carries
  the poles at the empty-lattice resonances ``k = |p|``;
* a direct (spatial) part over nearby lattice points, with radial functions
  built from upper incomplete gamma functions ``Gamma(s - j, eta^2 r^2)``;
* a central correction for ``n = 0`` from the regularised origin term.

Both parts decay super-exponentially, so small fixed windows (|.|_inf <= 5)
deliver ~1e-12 absolute accuracy for the wavenumbers used here; the windows
are widened once automatically if the internal error estimate misses the
tolerance ``_TABLE_TOL``.  Evaluation is organised around per-``alpha`` engines
that precompute every k-independent quantity, making a full table of
Q_{-order_max}..Q_{order_max} an O(10^5)-flop operation -- cheap enough to
sit inside frequency scans.  Valid also slightly off the real k axis
(Re k > 0), which the complex root refinement relies on.

A table is computed for a 1-D array of wavenumbers in one pass (a batch);
a single wavenumber is the batch of one.  The spectral and spatial sums
are contractions over the lattice points that keep the wavenumber as a
stack axis, so a wavenumber gets bitwise the same table in a batch of any
size.  (A batch with no complex wavenumber runs in real arithmetic where
it can, so a real wavenumber gets that table in such batches only.)  The
guard and the tail test act per wavenumber: a wavenumber that fails either
is marked and gets NaN values, alone as in a batch, and the misses of the
tail test are recomputed together on the widened windows.  The band scan
(``bands``) evaluates its frequency grid this way, one batch of
``bands._CHUNK_ENTRIES`` matrix entries at a time.

All conventions (phases, prefactors, the n < 0 continuation) are pinned by
the test suite against an independent brute-force summation and against
exact identities (Re Q_0 = -1, parity in alpha, odd orders vanishing at the
corner points).
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

logger = logging.getLogger(__name__)

EULER_GAMMA = 0.5772156649015329

#: High-symmetry Bloch vectors of the square-lattice Brillouin zone.
GAMMA_POINT = np.zeros(2)
X_POINT = np.array([np.pi, 0.0])
M_POINT = np.array([np.pi, np.pi])

#: Ewald splitting parameter; balances the Gaussian decay of the spectral
#: part (exp(-pi nu^2)) and the spatial part (exp(-pi r^2)).
_ETA = math.sqrt(math.pi)
#: Largest admissible truncation tail of a table (see ``table``).
_TABLE_TOL = 1e-8
#: Smallest admissible distance of Re k from an empty-lattice resonance.
_GUARD = 0.01

_WINDOW = 5            # Ewald windows |m|_inf <= window (m != 0), |nu|_inf <= window
_J_CAP = 40            # series depth of the spatial radial functions
_RANGE_BUMP = 3        # widening applied when a tail misses _TABLE_TOL
#: j * j! for j = 1..59, the divisors of the central series (see ``table``)
_CENTRAL_DIV = np.cumprod(np.arange(1.0, 60.0)) * np.arange(1.0, 60.0)


def as_bloch(alpha) -> np.ndarray:
    """Validate and return a Bloch vector as a float array of shape (2,).

    Components must lie in [-pi, pi]; the corner points themselves (e.g.
    (pi, pi)) are admissible, so the interval is closed.
    """
    arr = np.asarray(alpha, dtype=float).reshape(-1)
    if arr.shape != (2,):
        raise ValueError("Bloch vector must have exactly two components")
    if not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > np.pi + 1e-12):
        raise ValueError("Bloch vector components must be finite and in [-pi, pi]")
    return arr.copy()


def resonance_norms(alpha, k_max: float) -> list[float]:
    """Sorted ``|q|`` of the reciprocal points with ``|q| <= k_max + 2 pi``.

    The points are ``q = 2 pi nu + alpha``.  Every point of the plane lies
    within pi sqrt(2) of one, so the ``|q|`` nearest any ``0 <= k <= k_max``
    is among them.  Built once per frequency scan, for ``nearest_margin``.
    """
    alpha = as_bloch(alpha)
    top = float(k_max) + 2.0 * np.pi
    reach = int(np.ceil((top + np.pi * np.sqrt(2.0)) / (2.0 * np.pi))) + 1
    ii = 2.0 * np.pi * np.arange(-reach, reach + 1)
    qx = ii + alpha[0]
    qy = ii + alpha[1]
    qn = np.sqrt(qx[:, None] ** 2 + qy[None, :] ** 2).ravel()
    return sorted(qn[qn <= top].tolist())


def nearest_margin(norms: list[float], k: float) -> float:
    """Distance from ``k`` to the nearest empty-lattice resonance ``|q|``.

    ``norms = resonance_norms(alpha, k_max)`` and ``0 <= k <= k_max``.
    Bisection finds the two ``|q|`` that bracket ``k``; the nearer one
    gives the same floating-point distance as a full minimum of
    ``|k - |q||`` over the reciprocal points.
    """
    i = bisect.bisect_left(norms, k)
    return min(abs(k - q) for q in norms[max(i - 1, 0): i + 1])


# ---------------------------------------------------------------------------
# table value object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSumTable:
    """Lattice sums Q_n for all |n| <= order_max at one (k, alpha).

    A batch table holds the sums at each wavenumber of a 1-D array ``k``
    (see ``LatticeSumEngine.table``): ``values`` then has one row per
    wavenumber and ``est_error``, ``in_guard`` and ``converged`` one entry.

    Attributes
    ----------
    k : complex or ndarray
        Wavenumber (real on the physical axis; complex during refinement),
        or the 1-D array of wavenumbers of a batch.
    alpha : ndarray
        Bloch vector, shape (2,).
    order_max : int
        Largest stored order.
    values : ndarray
        ``Q_{-order_max} .. Q_{order_max}``, length ``2 * order_max + 1``;
        shape ``(K, 2 * order_max + 1)`` for a batch of K wavenumbers.  A
        row is NaN wherever ``in_guard`` is set or ``converged`` is not.
    est_error : float or ndarray
        Internal absolute error estimate (max over orders): window-tail
        bound plus a roundoff floor proportional to the gross magnitude of
        the summed terms.  May exceed the requested tolerance when the
        high-order sums are intrinsically large (small-k tables); those
        orders are converged relative to their own size instead.
    in_guard, converged : bool or ndarray
        Whether Re k lies within ``_GUARD`` of an empty-lattice resonance,
        and whether every order's truncation tail met ``_TABLE_TOL``.
        ``values`` is NaN wherever either flag marks a failure, at one
        wavenumber as in a batch.
    """

    k: complex | np.ndarray
    alpha: np.ndarray = field(repr=False)
    order_max: int
    values: np.ndarray = field(repr=False)
    est_error: float | np.ndarray
    in_guard: bool | np.ndarray = False
    converged: bool | np.ndarray = True

    def value(self, n: int) -> complex:
        if abs(n) > self.order_max:
            raise IndexError(f"order {n} outside table (order_max={self.order_max})")
        return complex(self.values[n + self.order_max])


# ---------------------------------------------------------------------------
# k-independent geometry caches
# ---------------------------------------------------------------------------

def _upper_gamma_block(t_max: int, t_min: int, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(t, x) for t = t_min..t_max (rows), x > 0.

    Built from Gamma(1, x) = e^{-x} upward (stable: all terms positive) and
    from Gamma(0, x) = E_1(x), Gamma(-u, x) = x^{-u} E_{u+1}(x) downward.
    """
    rows = t_max - t_min + 1
    out = np.empty((rows, x.size))

    def put(t: int, vals: np.ndarray) -> None:
        out[t - t_min] = vals

    if t_max >= 1:
        g = np.exp(-x)
        if 1 >= t_min:
            put(1, g)
        xt = np.ones_like(x)
        for t in range(1, t_max):
            xt = xt * x
            g = t * g + xt * np.exp(-x)
            if t + 1 >= t_min:
                put(t + 1, g)
    if t_min <= 0 <= t_max:
        put(0, sp.exp1(x))
    if t_min < 0:
        u = np.arange(1, -t_min + 1)
        block = sp.expn(u[:, None] + 1, x[None, :]) * x[None, :] ** (-u[:, None])
        for i, uu in enumerate(u):
            put(-int(uu), block[i])
    return out


_coeff_cache: dict = {}


def _spatial_coefficients(order_max: int, window: int):
    """k-independent spatial data: lattice points and the coefficient tensor.

    Returns ``(mx, my, r, unit_pow, coeff)`` where ``coeff[s, j, pt]`` equals
    ``r^{2j-s} Gamma(s - j, eta^2 r^2) / j!`` so that the radial function is
    ``radial_s(pt; k) = sum_j (k/2)^{2j-s} coeff[s, j, pt]``, and
    ``unit_pow[s, pt] = e^{i s phi_pt}``.
    """
    key = (order_max, window)
    hit = _coeff_cache.get(key)
    if hit is not None:
        return hit

    rng = np.arange(-window, window + 1)
    mx, my = np.meshgrid(rng, rng, indexing="ij")
    mx = mx.ravel().astype(float)
    my = my.ravel().astype(float)
    keep = (mx != 0.0) | (my != 0.0)
    mx, my = mx[keep], my[keep]
    r = np.hypot(mx, my)

    gam = _upper_gamma_block(order_max, -_J_CAP, _ETA * _ETA * r * r)

    j_fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, _J_CAP + 1)]))
    log_r = np.log(r)
    coeff = np.empty((order_max + 1, _J_CAP + 1, r.size))
    for s in range(order_max + 1):
        for j in range(_J_CAP + 1):
            coeff[s, j] = (
                np.exp((2 * j - s) * log_r) * gam[(s - j) + _J_CAP] / j_fact[j]
            )

    unit = (mx + 1j * my) / r
    unit_pow = np.empty((order_max + 1, r.size), dtype=complex)
    unit_pow[0] = 1.0
    for s in range(1, order_max + 1):
        unit_pow[s] = unit_pow[s - 1] * unit

    data = (mx, my, r, unit_pow, coeff)
    _coeff_cache[key] = data
    return data


# ---------------------------------------------------------------------------
# per-alpha engine
# ---------------------------------------------------------------------------

class LatticeSumEngine:
    """Precomputed geometry for lattice-sum tables at a fixed Bloch vector.

    One engine caches everything that does not depend on ``k``: reciprocal
    points and their complex powers, direct-lattice phases, and the (shared,
    module-level) incomplete-gamma coefficient tensor.  ``table`` then costs
    only a few matrix-vector products per wavenumber.  ``window`` is the
    half-width ``|.|_inf`` of both Ewald windows, the direct lattice points
    and the reciprocal indices.
    """

    def __init__(
        self,
        alpha,
        order_max: int,
        *,
        window: int = _WINDOW,
    ):
        if order_max < 0 or order_max > 30:
            raise ValueError("order_max must be in 0..30")
        self.alpha = as_bloch(alpha)
        self.order_max = order_max

        # reciprocal points p = 2 pi nu + alpha over |nu|_inf <= window
        rng = np.arange(-window, window + 1)
        nx, ny = np.meshgrid(rng, rng, indexing="ij")
        self._spec_ring = ((np.abs(nx) == window) | (np.abs(ny) == window)).ravel()
        px = (2.0 * np.pi * nx + self.alpha[0]).ravel()
        py = (2.0 * np.pi * ny + self.alpha[1]).ravel()
        self._p_norm2 = px * px + py * py
        self._p_norm = np.sqrt(self._p_norm2)
        pc = px + 1j * py
        # powers (px + i py)^s, laid out (point, order) for the contractions
        p_pow = np.empty((pc.size, order_max + 1), dtype=complex)
        p_pow[:, 0] = 1.0
        for s in range(1, order_max + 1):
            p_pow[:, s] = p_pow[:, s - 1] * pc
        self._p_pow = p_pow
        self._p_pow_abs = np.abs(p_pow)
        self._ring_p_abs = self._p_pow_abs[self._spec_ring]

        # direct-lattice data (shared cache) plus alpha phases
        mx, my, r, unit_pow, coeff = _spatial_coefficients(order_max, window)
        self._spat_ring = (np.maximum(np.abs(mx), np.abs(my)) == window).astype(float)
        self._coeff = coeff
        self._j_cap_abs = np.sum(np.abs(coeff[:, _J_CAP, :]), axis=1)
        # The spatial sums contract the real radial functions with the real
        # and imaginary parts of e^{-i alpha.m} e^{+i s phi} and
        # e^{-i alpha.m} e^{-i s phi}, stacked as the last axis, so that no
        # complex copy of the radial tensor is formed.
        phase = np.exp(-1j * (mx * self.alpha[0] + my * self.alpha[1]))
        pos = phase * unit_pow
        neg = phase * np.conj(unit_pow)
        self._spat_kernel = np.stack(
            [pos.real, pos.imag, neg.real, neg.imag], axis=-1
        )
        # exponents 2j - s of the powers (k/2)^(2j - s) of the radial series
        self._povs_expo = (
            2.0 * np.arange(_J_CAP + 1.0)[None, :]
            - np.arange(order_max + 1.0)[:, None]
        )

        self._pref_pos = np.array(
            [4.0 * 1j ** (s + 1) for s in range(order_max + 1)]
        )
        self._parity = (-1.0) ** np.arange(order_max + 1)

    # -- helpers ------------------------------------------------------------

    def margin(self, k):
        """Distance of (the real part of) k to the nearest |p| in the grid.

        Elementwise over an array of wavenumbers.
        """
        kr = np.asarray(np.real(k), dtype=float)
        return np.min(np.abs(kr[..., None] - self._p_norm), axis=-1)

    # -- main entry ---------------------------------------------------------

    def table(self, k) -> LatticeSumTable:
        """All Q_n for |n| <= order_max at wavenumber ``k``, or at each k of a 1-D array.

        A 1-D array is evaluated in one pass and returns a batch table; a
        single ``k`` is the batch of one.  The guard and the convergence
        test act per wavenumber.  A wavenumber with Re k within ``_GUARD``
        of an empty-lattice resonance is marked in ``in_guard``; one where
        any order's truncation tail exceeds ``_TABLE_TOL`` -- measured
        absolutely for sums of magnitude <= 1 and relative to the sum's own
        size for larger ones -- is marked ``converged = False``.  Either
        gives it NaN values, without affecting the others.  Widening the
        windows is left to the caller (see ``lattice_sum_table``).

        Raises
        ------
        ValueError
            If any Re k <= 0 or |Im k| > 1.
        """
        ks = np.asarray(k, dtype=complex)
        if ks.ndim > 1:
            raise ValueError("k must be a scalar or a 1-D array")
        if np.any(ks.real <= 0.0):
            raise ValueError("Re k must be positive")
        if np.any(np.abs(ks.imag) > 1.0):
            raise ValueError("lattice sums support |Im k| <= 1")
        batch = self._evaluate(ks.reshape(-1))
        if ks.ndim == 1:
            return batch
        kc = complex(ks)
        return LatticeSumTable(
            k=kc if kc.imag else complex(kc.real),
            alpha=self.alpha,
            order_max=self.order_max,
            values=batch.values[0],
            est_error=float(batch.est_error[0]),
            in_guard=bool(batch.in_guard[0]),
            converged=bool(batch.converged[0]),
        )

    def _evaluate(self, ks: np.ndarray) -> LatticeSumTable:
        """Batch table at the 1-D complex array ``ks``."""
        S = self.order_max
        in_guard = self.margin(ks) <= _GUARD
        is_real = not np.any(ks.imag)

        # ---- spectral part ------------------------------------------------
        k2 = (ks * ks)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.exp((k2 - self._p_norm2) / (4.0 * _ETA * _ETA)) / (
                k2 - self._p_norm2
            )
        k_pow = ks[:, None] ** (-np.arange(S + 1.0))

        # ---- spatial part -------------------------------------------------
        # povs[k, s, 0, j] = (k/2)^(2j - s); radial[k, s, 0, pt] = sum_j
        # povs[k, s, 0, j] coeff[s, j, pt], real for real k.  Every
        # contraction keeps k as a stack axis of one-row products, so a
        # wavenumber's sums take the same floating-point steps in a batch of
        # any size: the odd orders at the corner Bloch vectors are roundoff
        # of huge terms, and a batch must reproduce them exactly.
        half_k = 0.5 * ks
        log_half_k = np.log(half_k.real if is_real else half_k)
        povs = np.exp(log_half_k[:, None, None, None] * self._povs_expo[:, None, :])
        if is_real:
            radial, radial_imag = povs @ self._coeff, None
        else:
            radial = np.ascontiguousarray(povs.real) @ self._coeff
            radial_imag = np.ascontiguousarray(povs.imag) @ self._coeff

        # ---- central correction (order 0) ---------------------------------
        # series sum_{j>=1} zc^j / (j * j!) with zc = (k / (2 eta))^2, summed
        # term by term and stopped at each k's first term below 1e-18 of the
        # partial sum (or of 1)
        zc = (half_k / _ETA) ** 2
        terms = np.cumprod(
            np.broadcast_to(zc[:, None], (ks.size, _CENTRAL_DIV.size)), axis=1
        ) / _CENTRAL_DIV
        partial = np.cumsum(terms, axis=1)
        small = np.abs(terms[:, 1:]) < 1e-18 * np.maximum(
            1.0, np.abs(partial[:, 1:])
        )
        stop = np.where(small.any(axis=1), np.argmax(small, axis=1) + 1, -1)
        acc = partial[np.arange(ks.size), stop]
        central = -1.0 - (1j / np.pi) * (
            2.0 * np.log(half_k / _ETA) + EULER_GAMMA + acc
        )

        # ---- assembly and error estimate ----------------------------------
        values = self._sum_orders(w, k_pow, radial, radial_imag)
        values[:, S] += central

        abs_k_pow = np.abs(k_pow)
        ring_w = np.abs(w[:, None, self._spec_ring])
        spec_tail = 4.0 * abs_k_pow * (ring_w @ self._ring_p_abs)[:, 0]
        # |radial|, in place: the radial tensor is no longer needed
        if radial_imag is None:
            abs_radial = np.abs(radial, out=radial)[:, :, 0]
        else:
            abs_radial = np.hypot(radial, radial_imag, out=radial)[:, :, 0]
        spat_tail = (abs_radial @ self._spat_ring) / np.pi
        j_tail = np.abs(povs[:, :, 0, _J_CAP]) * self._j_cap_abs / np.pi
        # Roundoff floor: the windows truncate far below machine precision,
        # so the estimate must also cover cancellation noise, proportional to
        # the gross (unsigned) magnitude of the summed terms.  Without it,
        # exact zeros (odd orders at the corner Bloch vectors) would sit above
        # a pure tail estimate.
        gross_spec = 4.0 * abs_k_pow * (np.abs(w)[:, None] @ self._p_pow_abs)[:, 0]
        gross_spat = np.sum(abs_radial, axis=-1) / np.pi
        floors = 32.0 * np.finfo(float).eps * (gross_spec + gross_spat + 2.0)
        tails = spec_tail + spat_tail + 2.0 * j_tail
        # Convergence is judged per order on the truncation tails alone:
        # absolute against ``_TABLE_TOL`` for sums of magnitude <= 1,
        # relative for larger ones.  High orders at small k are intrinsically
        # enormous (the dominant near shell grows like (2/k)^s (s-1)!), so an
        # absolute criterion there is meaningless -- and harmless to relax,
        # because every downstream use multiplies the sum by J-factors that
        # shrink faster than it grows.  The roundoff floor is excluded from
        # the decision: widening windows cannot reduce cancellation noise
        # (odd orders at corner Bloch vectors are exact zeros formed from
        # huge terms), so it is only *reported*, through ``est_error``.
        scales = np.maximum(
            1.0, np.maximum(np.abs(values[:, S:]), np.abs(values[:, S::-1]))
        )
        converged = ~np.any(tails > _TABLE_TOL * scales, axis=1)
        values[in_guard | ~converged] = np.nan
        return LatticeSumTable(
            k=ks,
            alpha=self.alpha,
            order_max=S,
            values=values,
            est_error=np.max(tails + floors, axis=1),
            in_guard=in_guard,
            converged=converged,
        )

    def zero_k_limits(self) -> np.ndarray:
        """Scaled k -> 0 limits of the lattice sums, |n| <= order_max.

        ``L_n = lim (k/2)^|n| Q_n(k)`` for ``n != 0`` and the regular part
        ``L_0 = lim [Q_0 + (2i/pi) log(k/2)]``, laid out like
        ``LatticeSumTable.values``.  Formed from ``table``'s own terms at
        k = 0: the spectral weights ``W_p(0) = -exp(-|p|^2/(4 eta^2))/|p|^2``,
        ``2^-s`` in place of ``k^-s``, and the j = 0 radial coefficients.
        Needs ``alpha != 0``, so that no reciprocal point sits at the origin.
        At the default windows the truncation tails stay below 1e-23 of
        ``max(|L_n|, (|n| - 1)!)``, the larger of the limit and its
        nearest-shell size, for orders up to 24 (Linton, SIAM Rev. 52 (2010)
        630-674, on the Ewald form of lattice sums).
        """
        if np.any(self._p_norm2 == 0.0):
            raise ValueError("k -> 0 limits need a nonzero Bloch vector")
        S = self.order_max
        w = -np.exp(-self._p_norm2 / (4.0 * _ETA * _ETA)) / self._p_norm2
        limits = self._sum_orders(
            w[None, :], 2.0 ** -np.arange(S + 1.0)[None, :],
            self._coeff[None, :, None, 0, :],
        )[0]
        limits[S] += -1.0 - (1j / np.pi) * (EULER_GAMMA - 2.0 * np.log(_ETA))
        return limits

    def _sum_orders(self, w, k_pow, radial, radial_imag=None) -> np.ndarray:
        """Orders -order_max..order_max of the spectral plus spatial sums.

        ``w[k, p]`` holds the spectral weights per wavenumber and reciprocal
        point, ``k_pow[k, s]`` the factors ``k^-s`` and ``radial[k, s, 0, pt]``
        the (real part of the) radial functions per lattice point, with
        ``radial_imag`` their imaginary part, ``None`` where it is zero.
        Returns one row of orders per wavenumber; the order-0 central term
        is left to the caller.
        """
        S = self.order_max
        # sum_p (px + i py)^s W_p and its conjugate-power twin
        spec_pos = self._pref_pos * k_pow * (w[:, None] @ self._p_pow)[:, 0]
        spec_neg = self._pref_pos * self._parity * k_pow * (
            w[:, None] @ np.conj(self._p_pow)
        )[:, 0]
        # sums[k, s, 0 | 1]: radial against the + and - angular kernels
        parts = (radial @ self._spat_kernel)[:, :, 0]
        sums = parts[..., 0::2] + 1j * parts[..., 1::2]
        if radial_imag is not None:
            parts = (radial_imag @ self._spat_kernel)[:, :, 0]
            sums = sums + 1j * (parts[..., 0::2] + 1j * parts[..., 1::2])
        base = -1j / np.pi
        spat_pos = base * self._parity * sums[..., 0]
        spat_neg = base * sums[..., 1]
        values = np.empty((w.shape[0], 2 * S + 1), dtype=complex)
        values[:, S::-1] = spec_neg + spat_neg
        values[:, S:] = spec_pos + spat_pos
        return values


# ---------------------------------------------------------------------------
# module-level convenience API with engine caching
# ---------------------------------------------------------------------------

#: Engines kept by ``_engine_for``.  One path point uses up to four: table
#: orders 2N and, when its roots are re-refined at N + 2, 2N + 4, each with
#: default and widened windows.  Eight hold the point in progress and one
#: more.
_ENGINE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_ENGINE_CACHE_SIZE)
def _engine_for(alpha_key: bytes, order_max: int, widen: int = 0) -> LatticeSumEngine:
    """The engine for the Bloch vector whose float64 bytes are ``alpha_key``."""
    return LatticeSumEngine(np.frombuffer(alpha_key), order_max, window=_WINDOW + widen)


def lattice_sum_table(order_max: int, k, alpha) -> LatticeSumTable:
    """Table of Q_n, |n| <= order_max, with automatic window widening.

    ``k`` is one wavenumber or a 1-D array of them.  Wavenumbers that miss
    ``_TABLE_TOL`` on the default Ewald windows, outside the guard, are
    recomputed once, as one batch, with windows widened by 3; a single
    ``k`` gets the widened table, a batch has its missed rows replaced.
    What misses there stays marked in ``converged``, with NaN values (see
    ``LatticeSumEngine.table``).
    """
    alpha = as_bloch(alpha)
    key = alpha.tobytes()
    table = _engine_for(key, order_max).table(k)
    miss = np.logical_not(table.converged | table.in_guard)
    if not miss.any():
        return table
    logger.info(
        "widening Ewald windows at %d of %d wavenumbers, alpha=%s",
        np.count_nonzero(miss), miss.size, tuple(alpha),
    )
    wide = _engine_for(key, order_max, widen=_RANGE_BUMP)
    if np.ndim(k) == 0:
        return wide.table(k)
    patch = wide.table(table.k[miss])
    # the batch's arrays are its own: patch the misses' rows in place
    for name in ("values", "est_error", "in_guard", "converged"):
        getattr(table, name)[miss] = getattr(patch, name)
    return table


def lattice_sum_limits(order_max: int, alpha) -> np.ndarray:
    """k -> 0 limits ``L_n``, |n| <= order_max; see ``zero_k_limits``."""
    alpha = as_bloch(alpha)
    return _engine_for(alpha.tobytes(), order_max).zero_k_limits()

