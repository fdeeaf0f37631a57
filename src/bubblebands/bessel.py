"""Bessel ``J_n`` sequences on long vectors of real arguments.

The plane-wave quasi-static matrix of the test oracles
(``tests/oracles.py``), the truncated-lattice check of the k -> 0
single-layer block, needs ``J_0..J_N`` at tens of thousands of real
arguments at once.  Miller's downward recurrence with trailing
normalisation (sum rule ``J_0 + 2*sum J_2m = 1``), stable for all n >= 0,
handles the whole vector in one pass, several times faster there than
``scipy.special.jv`` over the order grid.  Nothing on the production path
calls it: the capacity takes the k -> 0 block from the lattice-sum limits,
and the per-frequency cylinder tables of the band assembly (J, H1 and
their derivatives at one real or complex argument) come from
``scipy.special``; see ``multipole._cyl_tables``.

It stays in the package because the benchmark's span tracer
(``perfbench/tracer.py``) times its bessel layer through
``bubblebands.bessel.bessel_j_seq``: without that entry point the layer
would read as absent and the traced output would change.  It can move to
the tests once the tracer drops that layer.
"""

from __future__ import annotations

import numpy as np

# Magnitude guard for the unnormalised downward recurrence.
_RESCALE_LIMIT: float = 1e250

__all__ = ["bessel_j_seq"]


def bessel_j_seq(order_max: int, x):
    """Sequence ``J_0(x) .. J_order_max(x)`` by Miller's downward recurrence.

    Parameters
    ----------
    order_max : int
        Highest order to return (>= 0).
    x : float or ndarray
        Argument(s), real and >= 0.  ``x = 0`` yields the exact limit
        ``J_n(0) = delta_{n0}``.

    Returns
    -------
    ndarray
        Shape ``(order_max + 1,)`` for scalar ``x``, else
        ``(order_max + 1, len(x))``.
    """
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if x_arr.ndim != 1:
        raise ValueError("x must be a scalar or 1-d array")
    if np.any(x_arr < 0.0) or not np.all(np.isfinite(x_arr)):
        raise ValueError("arguments must be finite and >= 0")

    out = np.zeros((order_max + 1, x_arr.size))
    # Below ~1e-30 the exact J_n differ from the x = 0 limit delta_{n0} by
    # less than 1e-30 absolute; short-circuiting also keeps 1/x finite.
    zero = x_arr <= 1e-30
    out[0, zero] = 1.0
    live = ~zero
    if np.any(live):
        out[:, live] = _miller_block(order_max, x_arr[live])
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[:, 0]
    return out


def _miller_block(order_max: int, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for strictly positive arguments (batch)."""
    xmax = float(np.max(x))
    # Start far enough above both the order and the turning point n ~ x that
    # the neglected J_start is below double precision after normalisation.
    start = int(max(order_max, np.ceil(xmax)) + 16 + 12.0 * max(1.0, xmax) ** (1.0 / 3.0))
    start += start % 2  # even start keeps the normalisation bookkeeping tidy

    inv_x = 1.0 / x
    jp = np.zeros_like(x)          # J_{m+1} (unnormalised)
    jc = np.full_like(x, 1e-30)    # J_m     (unnormalised)
    norm = np.zeros_like(x)        # J_0 + 2*sum_{m even > 0} J_m
    out = np.zeros((order_max + 1, x.size))

    for m in range(start, -1, -1):
        if m <= order_max:
            out[m] = jc
        if m % 2 == 0:
            norm += jc if m == 0 else 2.0 * jc
        if m > 0:
            jm = (2.0 * m) * inv_x * jc - jp
            jp, jc = jc, jm
            big = np.abs(jc) > _RESCALE_LIMIT
            if np.any(big):
                scale = np.where(big, 1e-250, 1.0)
                jc *= scale
                jp *= scale
                norm *= scale
                out[:, big] *= 1e-250
    return out / norm
