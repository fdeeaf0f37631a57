"""Shared samplers for cross-checking the two lattice-sum routes."""

import numpy as np

from oracles import empty_lattice_margin


def draw_admissible_points(seed, count, *, order_span=3, k_low=0.5, k_high=3.0,
                           min_margin=0.75):
    """Random (n, k, alpha) triples where both lattice-sum routes are accurate.

    The domain deliberately avoids the two regimes that degrade the windowed
    direct summation used as the oracle: wavenumbers within ``min_margin`` of
    an empty-lattice resonance (the conditionally convergent series picks up
    a slowly decaying resonant component there) and high orders at small
    ``k`` (the summand amplitude grows like ``(2/k)^|n|``, which costs
    headroom in absolute comparisons).
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        n = int(rng.integers(-order_span, order_span + 1))
        k = float(rng.uniform(k_low, k_high))
        alpha = rng.uniform(-np.pi, np.pi, 2)
        if empty_lattice_margin(k, alpha) > min_margin:
            points.append((n, k, alpha))
    return points
