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
* a central correction for ``n = 0`` from the regularised origin term,
  ``-1 - (i/pi) [2 log(k / 2 eta) + gamma + sum_{j>=1} z^j / (j j!)]`` with
  ``z = (k / 2 eta)^2``; the bracket is the exponential integral ``Ei(z)``.

Both parts decay super-exponentially, so one small fixed window
(|.|_inf <= 5) delivers ~1e-12 absolute accuracy for the wavenumbers used
here.  A table passes its tail test when every order's truncation tail is
within ``_TABLE_TOL`` or within the roundoff already in the sum; no wider
window could shrink a tail that passes only the second.  The radial series
of the spatial part stops at ``_J_CAP`` terms, which bounds the wavenumbers
to k <~ 12.1: above that its tail misses at every window.  Evaluation is
organised around per-``alpha`` engines that precompute every k-independent
quantity, making a full table of Q_{-order_max}..Q_{order_max} an
O(10^5)-flop operation -- cheap enough to sit inside band counts.  The
wavenumbers are real: every band search works on the real frequency axis.

A table is computed for a 1-D array of wavenumbers in one pass (a batch);
a single wavenumber is the batch of one.  The spectral and spatial sums
are contractions over the lattice points that keep the wavenumber as a
stack axis, so a wavenumber gets bitwise the same table in a batch of any
size.  Next to an empty-lattice resonance the sums are large but accurate,
except within ``_LINE_TOL`` of it, where one term swamps the rest.  The
tail test acts per wavenumber, and a wavenumber that fails it, that lies
within ``_LINE_TOL`` of a resonance or whose sums are not finite is marked
and gets NaN values, alone as in a batch.  The sorted ``|p|`` of each
engine's window also count the resonances below a wavenumber
(``empty_lattice_count``), which the band count reads.

All conventions (phases, prefactors, the n < 0 continuation) are pinned by
the test suite against an independent brute-force summation and against
exact identities (Re Q_0 = -1, parity in alpha, odd orders vanishing at the
corner points).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

#: High-symmetry Bloch vectors of the square-lattice Brillouin zone.
GAMMA_POINT = np.zeros(2)
X_POINT = np.array([np.pi, 0.0])
M_POINT = np.array([np.pi, np.pi])

#: Ewald splitting parameter; balances the Gaussian decay of the spectral
#: part (exp(-pi nu^2)) and the spatial part (exp(-pi r^2)).
_ETA = math.sqrt(math.pi)
#: Largest admissible truncation tail of a table above the roundoff floor
#: (see ``table``).
_TABLE_TOL = 1e-8
#: A wavenumber with ``|k^2 - |p|^2| <= _LINE_TOL max(k^2, 1)`` for some
#: reciprocal point ``p`` gets no table: there the ``1 / (k^2 - |p|^2)`` term
#: swamps the sums, and the inertia of the matrices built on them is
#: roundoff.
_LINE_TOL = 1e-12

_WINDOW = 5            # Ewald windows |m|_inf <= window (m != 0), |nu|_inf <= window
_J_CAP = 40            # series depth of the spatial radial functions


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


# ---------------------------------------------------------------------------
# table value object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSumTable:
    """Lattice sums Q_n for all |n| <= order_max at one (k, alpha).

    A batch table holds the sums at each wavenumber of a 1-D array ``k``
    (see ``LatticeSumEngine.table``): ``values`` then has one row per
    wavenumber and ``est_error`` and ``converged`` one entry.

    Attributes
    ----------
    k : float or ndarray
        Real wavenumber, or the 1-D array of wavenumbers of a batch.
    alpha : ndarray
        Bloch vector, shape (2,).
    order_max : int
        Largest stored order.
    values : ndarray
        ``Q_{-order_max} .. Q_{order_max}``, length ``2 * order_max + 1``;
        shape ``(K, 2 * order_max + 1)`` for a batch of K wavenumbers.  A
        row is NaN wherever ``converged`` is not set.
    est_error : float or ndarray
        Internal absolute error estimate (max over orders): window-tail
        bound plus a roundoff floor proportional to the gross magnitude of
        the summed terms.  May exceed the requested tolerance when the
        high-order sums are intrinsically large (small-k tables); those
        orders are converged relative to their own size instead.
    converged : bool or ndarray
        Whether every order is finite and its truncation tail met
        ``_TABLE_TOL`` or its roundoff floor (see ``LatticeSumEngine.table``).
        ``values`` is NaN wherever it is not set, at one wavenumber as in a
        batch.
    """

    k: float | np.ndarray
    alpha: np.ndarray = field(repr=False)
    order_max: int
    values: np.ndarray = field(repr=False)
    est_error: float | np.ndarray
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
    The upward recurrence stays hand-rolled: at t = 1..30 and x = pi r^2 over
    the lattice points of windows 5 and 8, against 40-digit mpmath, it is
    within 2.3 and 2.9 eps, where ``scipy.special.gammaincc(t, x) *
    gamma(t)`` is off by up to 146 and 237 eps.
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


@functools.cache
def _spatial_coefficients(order_max: int, window: int):
    """k-independent spatial data: lattice points and the coefficient tensor.

    Returns ``(mx, my, r, unit_pow, coeff)`` where ``coeff[s, j, pt]`` equals
    ``r^{2j-s} Gamma(s - j, eta^2 r^2) / j!`` so that the radial function is
    ``radial_s(pt; k) = sum_j (k/2)^{2j-s} coeff[s, j, pt]``, and
    ``unit_pow[s, pt] = e^{i s phi_pt}``.  Cached without eviction, which
    stays bounded: the key is an order of at most 30 and a window, which
    is ``_WINDOW`` in production.
    """
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

    return mx, my, r, unit_pow, coeff


def _spectral_weights(ks: np.ndarray,
                      p_norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W_p = exp((k^2 - |p|^2) / (4 eta^2)) / (k^2 - |p|^2)``, one row per k.

    Also returns which k lie on a line: ``|k^2 - |p|^2| <= _LINE_TOL max(k^2,
    1)`` for some ``p``.
    """
    k2 = (ks * ks)[:, None]
    gap = k2 - p_norm2
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.exp(gap / (4.0 * _ETA * _ETA)) / gap
    return weights, np.any(np.abs(gap) <= _LINE_TOL * np.maximum(k2, 1.0), axis=1)


def _central_term(k):
    """Order-0 central correction ``-1 - (i/pi) Ei((k / 2 eta)^2)``, Re k > 0."""
    return -1.0 - (1j / np.pi) * sp.expi((0.5 * k / _ETA) ** 2)


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
        self._norms = np.sort(self._p_norm)
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
        # gross sizes of the last two terms of the radial series, per order
        self._series_end_abs = np.sum(np.abs(coeff[:, _J_CAP - 1 :, :]), axis=2)
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

    # -- main entry ---------------------------------------------------------

    def table(self, k) -> LatticeSumTable:
        """All Q_n for |n| <= order_max at wavenumber ``k``, or at each k of a 1-D array.

        A 1-D array is evaluated in one pass and returns a batch table; a
        single ``k`` is the batch of one.  The convergence test acts per
        wavenumber: one within ``_LINE_TOL`` of an empty-lattice
        resonance, one where any order is not finite, one where the terms
        of the radial series still grow at its ``_J_CAP`` cap (k >~ 22),
        or one where any order's truncation tail exceeds both
        ``_TABLE_TOL`` -- measured absolutely for sums of magnitude <= 1
        and relative to the sum's own size for larger ones -- and that
        order's roundoff floor, is marked ``converged = False`` and gets
        NaN values, without affecting the others.

        Raises
        ------
        ValueError
            If any k is complex or not positive.
        """
        if np.iscomplexobj(k):
            raise ValueError("lattice sums take real wavenumbers")
        ks = np.asarray(k, dtype=float)
        if ks.ndim > 1:
            raise ValueError("k must be a scalar or a 1-D array")
        if not np.all(ks > 0.0):
            raise ValueError("k must be positive")
        batch = self._evaluate(ks.reshape(-1))
        if ks.ndim == 1:
            return batch
        return LatticeSumTable(
            k=float(ks),
            alpha=self.alpha,
            order_max=self.order_max,
            values=batch.values[0],
            est_error=float(batch.est_error[0]),
            converged=bool(batch.converged[0]),
        )

    def _evaluate(self, ks: np.ndarray) -> LatticeSumTable:
        """Batch table at the 1-D array of positive wavenumbers ``ks``."""
        S = self.order_max

        # ---- spectral part ------------------------------------------------
        w, on_line = _spectral_weights(ks, self._p_norm2)
        k_pow = ks[:, None] ** (-np.arange(S + 1.0))

        # ---- spatial part -------------------------------------------------
        # povs[k, s, 0, j] = (k/2)^(2j - s); radial[k, s, 0, pt] = sum_j
        # povs[k, s, 0, j] coeff[s, j, pt].  Every contraction keeps k as a
        # stack axis of one-row products, so a wavenumber's sums take the
        # same floating-point steps in a batch of any size: the odd orders
        # at the corner Bloch vectors are roundoff of huge terms, and a
        # batch must reproduce them exactly.
        log_half_k = np.log(0.5 * ks)
        povs = np.exp(log_half_k[:, None, None, None] * self._povs_expo[:, None, :])
        radial = povs @ self._coeff

        # ---- assembly and error estimate ----------------------------------
        values = self._sum_orders(w, k_pow, radial)
        values[:, S] += _central_term(ks)

        ring_w = np.abs(w[:, None, self._spec_ring])
        spec_tail = 4.0 * k_pow * (ring_w @ self._ring_p_abs)[:, 0]
        # |radial|, in place: the radial tensor is no longer needed
        abs_radial = np.abs(radial, out=radial)[:, :, 0]
        spat_tail = (abs_radial @ self._spat_ring) / np.pi
        last_terms = povs[:, :, 0, _J_CAP - 1 :] * self._series_end_abs / np.pi
        j_tail = last_terms[..., 1]
        # Roundoff floor: the windows truncate far below machine precision,
        # so the estimate must also cover cancellation noise, proportional to
        # the gross (unsigned) magnitude of the summed terms.  Without it,
        # exact zeros (odd orders at the corner Bloch vectors) would sit above
        # a pure tail estimate.
        gross_spec = 4.0 * k_pow * (np.abs(w)[:, None] @ self._p_pow_abs)[:, 0]
        gross_spat = np.sum(abs_radial, axis=-1) / np.pi
        floors = 32.0 * np.finfo(float).eps * (gross_spec + gross_spat + 2.0)
        tails = spec_tail + spat_tail + 2.0 * j_tail
        # Convergence is judged per order on the truncation tails: absolute
        # against ``_TABLE_TOL`` for sums of magnitude <= 1, relative for
        # larger ones.  High orders at small k are intrinsically enormous
        # (the dominant near shell grows like (2/k)^s (s-1)!), so an absolute
        # criterion there is meaningless -- and harmless to relax, because
        # every downstream use multiplies the sum by J-factors that shrink
        # faster than it grows.  A tail at or below its order's roundoff
        # floor passes too: the sum is already that uncertain, and wider
        # windows cannot reduce cancellation noise (the orders that vanish
        # by symmetry at the corner Bloch vectors are roundoff of huge terms).
        # Exactly on a resonance the floor is infinite and passes every
        # tail, so the sums must also be finite.  The last term of the radial
        # series bounds its tail only while the terms shrink; past k ~ 22 they
        # still grow at the cap, the partial sums are meaningless and so is
        # their floor, so the terms must shrink there too.
        scales = np.maximum(
            1.0, np.maximum(np.abs(values[:, S:]), np.abs(values[:, S::-1]))
        )
        converged = (
            ~on_line
            & np.all(np.isfinite(values), axis=1)
            & np.all(last_terms[..., 1] <= last_terms[..., 0], axis=1)
            & ~np.any(tails > np.maximum(_TABLE_TOL * scales, floors), axis=1)
        )
        values[~converged] = np.nan
        return LatticeSumTable(
            k=ks,
            alpha=self.alpha,
            order_max=S,
            values=values,
            est_error=np.max(tails + floors, axis=1),
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
        limits[S] += -1.0 - (1j / np.pi) * (np.euler_gamma - 2.0 * np.log(_ETA))
        return limits

    def _sum_orders(self, w, k_pow, radial) -> np.ndarray:
        """Orders -order_max..order_max of the spectral plus spatial sums.

        ``w[k, p]`` holds the spectral weights per wavenumber and reciprocal
        point, ``k_pow[k, s]`` the factors ``k^-s`` and ``radial[k, s, 0, pt]``
        the radial functions per lattice point.  Returns one row of orders
        per wavenumber; the order-0 central term is left to the caller.
        """
        S = self.order_max
        # k on an empty-lattice line: an infinite weight, a NaN row
        with np.errstate(invalid="ignore"):
            spec_pos = self._pref_pos * k_pow * (w[:, None] @ self._p_pow)[:, 0]
            spec_neg = self._pref_pos * self._parity * k_pow * (
                w[:, None] @ np.conj(self._p_pow)
            )[:, 0]
        # sums[k, s, 0 | 1]: radial against the + and - angular kernels
        parts = (radial @ self._spat_kernel)[:, :, 0]
        sums = parts[..., 0::2] + 1j * parts[..., 1::2]
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

#: Engines kept by ``_engine_for``, one per Bloch vector and order, and the
#: most Bloch vectors a sweep searches at once (``bands._drive``): a cache
#: smaller than that pool would rebuild every engine at every step.  A sweep
#: steps no faster past about 16 in flight; 32 holds every Bloch vector of a
#: sweep up to resolution 10.  A pass over several Bloch vectors, such as
#: the five capacities of ``demos/capacity_report.py``, finds its engines
#: again on the next pass only if all of them are kept.
_ENGINE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_ENGINE_CACHE_SIZE)
def _engine_for(alpha_key: bytes, order_max: int) -> LatticeSumEngine:
    """The engine for the Bloch vector whose float64 bytes are ``alpha_key``."""
    return LatticeSumEngine(np.frombuffer(alpha_key), order_max)


def lattice_sum_table(order_max: int, k, alpha) -> LatticeSumTable:
    """Table of Q_n, |n| <= order_max, from the cached engine of ``alpha``.

    ``k`` is one real wavenumber or a 1-D array of them.  A wavenumber
    whose sums are not finite or fail the tail test is marked, with NaN
    values (see ``LatticeSumEngine.table``).
    """
    return _engine_for(as_bloch(alpha).tobytes(), order_max).table(k)


def empty_lattice_count(order_max: int, alpha, ks) -> np.ndarray:
    """``#{p : 0 < |p| < k}``, the empty-lattice resonances below each real ``k``.

    A sorted search of the ``|p|`` of the cached engine of ``alpha``.  The
    window holds every ``|p|`` below 11 pi, so the count is that of the
    full empty lattice for ``k`` up to about 34.
    """
    norms = _engine_for(as_bloch(alpha).tobytes(), order_max)._norms
    return np.searchsorted(norms, ks) - np.searchsorted(norms, 0.0, side="right")


def lattice_sum_limits(order_max: int, alpha) -> np.ndarray:
    """k -> 0 limits ``L_n``, |n| <= order_max; see ``zero_k_limits``."""
    return _engine_for(as_bloch(alpha).tobytes(), order_max).zero_k_limits()
