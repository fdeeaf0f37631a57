"""Bessel ``J_n`` sequences on long vectors of real arguments.

The plane-wave quasi-static matrix of the test oracles
(``tests/oracles.py``), the truncated-lattice check of the k -> 0
single-layer block, needs ``J_0..J_N`` at tens of thousands of real
arguments at once; ``scipy.special.jv`` over the order grid gives them.
Nothing on the production path calls it: the capacity takes the k -> 0
block from the lattice-sum limits, and the per-frequency cylinder tables
of the band assembly (J, H1 and their derivatives at real arguments) come
from ``scipy.special`` directly; see ``multipole._cyl_tables``.

It stays in the package because the benchmark's span tracer
(``perfbench/tracer.py``) times its bessel layer through
``bubblebands.bessel.bessel_j_seq``: without that entry point the layer
would read as absent and the traced output would change.  It can move to
the tests once the tracer drops that layer.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sp

__all__ = ["bessel_j_seq"]


def bessel_j_seq(order_max: int, x):
    """Sequence ``J_0(x) .. J_order_max(x)`` from ``scipy.special.jv``.

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
    out = sp.jv(np.arange(order_max + 1)[:, None], x_arr[None, :])
    return out[:, 0] if np.ndim(x) == 0 else out
