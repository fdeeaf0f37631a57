"""Capacities of a circular scatterer and the resulting resonance estimates.

The static (zero-frequency) single-layer operator of a disk has an explicit
inverse, which gives the free-space capacity in closed form.  Its
quasi-periodic counterpart is obtained numerically: solve the quasi-periodic
single-layer block against a unit monopole load and read off the monopole
coefficient of the solution.  For a nonzero Bloch vector the block has an
exact k -> 0 limit, which :func:`capacity_quasi` forms from the k -> 0
limits of the Ewald-split lattice sums (``LatticeSumEngine.zero_k_limits``,
``multipole.outer_block_limit``); no reciprocal-space truncation enters, so
the result carries no cutoff bias.

The capacities feed two frequency estimates: the free-space breathing
resonance of a single bubble (:func:`minnaert_frequency`) and its
quasi-periodic analogue (:func:`approx_resonance`), which rescales it by the
square root of the capacity ratio.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .lattice import as_bloch, lattice_sum_limits
from .multipole import DiskCrystal, MaterialParams, ZeroAlphaError, outer_block_limit

__all__ = [
    "CapacityResult",
    "SingularSystemError",
    "approx_resonance",
    "capacity_disk",
    "capacity_quasi",
    "minnaert_frequency",
]


class SingularSystemError(RuntimeError):
    """The single-layer system could not be solved reliably."""


def capacity_disk(radius: float) -> float:
    """Free-space capacity of a disk of the given radius.

    The logarithmic-kernel single layer maps the uniform density to
    ``R ln R`` on the boundary, so the normalised equilibrium density gives
    the closed form ``-2 pi / ln(radius)``.  Valid only for ``radius < 1``,
    where the logarithm is negative; the lattice geometry guarantees this
    (disks live inside a unit cell).
    """
    r = float(radius)
    if not 0.0 < r < 1.0 or not math.isfinite(r):
        raise ValueError(
            f"disk capacity needs 0 < radius < 1 (log sign flips); got {radius}"
        )
    return -2.0 * math.pi / math.log(r)


@dataclasses.dataclass(frozen=True)
class CapacityResult:
    """Quasi-periodic capacity together with solve diagnostics.

    ``cap`` is the capacity; ``residual`` is the Frobenius-scaled residual
    of the linear solve, and ``order_max`` the angular truncation of the
    single-layer block.
    """

    cap: float
    alpha: np.ndarray
    radius: float
    order_max: int
    residual: float

    def __post_init__(self) -> None:
        if not self.cap > 0.0:
            raise ValueError(f"capacity must be positive; got {self.cap}")


def capacity_quasi(
    alpha: Sequence[float] | np.ndarray,
    radius: float,
    order_max: int,
) -> CapacityResult:
    """Quasi-periodic capacity of a disk at Bloch vector ``alpha``.

    Solves the k -> 0 limit of the quasi-periodic single-layer block,
    truncated at harmonic order ``order_max``, for a unit monopole load;
    the capacity is ``-2 pi R`` times the monopole coefficient.
    """
    alpha_arr = as_bloch(alpha)
    if float(np.hypot(alpha_arr[0], alpha_arr[1])) == 0.0:
        raise ZeroAlphaError("quasi-periodic capacity requires alpha != 0")
    limits = lattice_sum_limits(2 * order_max, alpha_arr)
    matrix = outer_block_limit(limits, radius, order_max)
    rhs = np.zeros(matrix.shape[0], dtype=complex)
    rhs[order_max] = 1.0
    try:
        coeff = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"single-layer solve failed at alpha={alpha_arr}"
        ) from exc
    residual = float(np.linalg.norm(matrix @ coeff - rhs)) / float(
        np.linalg.norm(matrix)
    )
    value = -2.0 * math.pi * radius * complex(coeff[order_max])
    if abs(value.imag) > 1e-10 * (1.0 + abs(value)):
        raise SingularSystemError(
            f"capacity came out non-real (imag {value.imag:.3e}) at alpha={alpha_arr}"
        )
    if not value.real > 0.0:
        raise SingularSystemError(
            f"capacity non-positive ({value.real:.3e}) at alpha={alpha_arr}"
        )
    return CapacityResult(
        cap=value.real,
        alpha=alpha_arr,
        radius=float(radius),
        order_max=int(order_max),
        residual=residual,
    )


def minnaert_frequency(
    density_contrast: float, bubble_speed: float, cap: float, volume: float
) -> float:
    """Breathing-mode resonance of a single bubble from its capacity.

    ``sqrt(density_contrast * bubble_speed**2 * cap / volume)``: the stiff
    restoring force of the surrounding fluid (capacity) against the soft
    compressibility of the bubble interior (contrast and interior speed).
    """
    values = (density_contrast, bubble_speed, cap, volume)
    if any(not v > 0.0 for v in values):
        raise ValueError(f"all inputs must be positive; got {values}")
    return math.sqrt(density_contrast * bubble_speed**2 * cap / volume)


def approx_resonance(
    alpha: Sequence[float] | np.ndarray,
    material: MaterialParams,
    crystal: DiskCrystal,
    order_max: int,
) -> float:
    """Capacity-based estimate of the first band frequency at ``alpha``.

    Evaluates the single-bubble resonance formula with the quasi-periodic
    capacity in place of the free-space one; equivalently the free-space
    resonance scaled by ``sqrt(cap_alpha / cap_free)``.  Accurate to leading
    order in the density contrast, so best at high-contrast bubbles.
    """
    result = capacity_quasi(alpha, crystal.radius, order_max)
    return minnaert_frequency(
        material.delta, material.v_b, result.cap, crystal.area
    )
