"""Band 1 near the zone centre against the quasi-static effective medium.

Below the Minnaert resonance the bubbly crystal is a slow effective fluid,
so band 1 is ``omega = c_eff |alpha| + O(|alpha|^3)`` along every direction.
Its compressibility follows Wood's mixture law, ``1 / kappa_eff = (1 - f) /
kappa + f / kappa_b`` with ``f = pi R^2``.  Its inverse density is the
effective conductivity of a square array of disks of conductivity
``1 / rho_b`` in a host of ``1 / rho`` (Perrins, McKenzie and McPhedran,
Proc. R. Soc. Lond. A 369 (1979) 207-225):

    (1/rho)_eff = (1/rho) [1 - 2f / (T + f - 0.305827 f^4 T / (T^2 - 1.402958 f^8)
                                     - 0.013362 f^8)],

with ``T = (1 + rho / rho_b) / (1 - rho / rho_b)``.  Without the ``f^4`` and
``f^8`` terms it is Maxwell-Garnett's.  Then ``c_eff = sqrt((1/rho)_eff
kappa_eff)``.  The search is checked against it on both acceptance crystals,
along Gamma-X and Gamma-M, by a Richardson extrapolation of
``omega / |alpha|`` in ``|alpha|^2``.
"""

import math

import numpy as np
import pytest

from bubblebands.bands import bands_at
from bubblebands.multipole import DiskCrystal, MaterialParams

#: The acceptance crystals: the dilute one at N = 7, the non-dilute at N = 5.
CRYSTALS = {
    "dilute": (MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0),
               DiskCrystal(radius=0.05), 7),
    "nondilute": (MaterialParams(rho=1000.0, kappa=1000.0, rho_b=1.0, kappa_b=1.0),
                  DiskCrystal(radius=0.25), 5),
}
DIRECTIONS = {"gamma-x": (1.0, 0.0), "gamma-m": (math.sqrt(0.5), math.sqrt(0.5))}


def effective_speed(material, crystal, square_lattice=True):
    """``c_eff`` of the module docstring, or Maxwell-Garnett's without the lattice."""
    f = crystal.area
    inverse_kappa = (1.0 - f) / material.kappa + f / material.kappa_b
    ratio = material.rho / material.rho_b
    t = (1.0 + ratio) / (1.0 - ratio)
    lattice = (0.305827 * f**4 * t / (t * t - 1.402958 * f**8) + 0.013362 * f**8
               if square_lattice else 0.0)
    inverse_rho = (1.0 - 2.0 * f / (t + f - lattice)) / material.rho
    return math.sqrt(inverse_rho / inverse_kappa)


def extrapolated_slope(material, crystal, truncation, direction):
    """``omega / |alpha|`` of band 1 at |alpha| = 0.2, 0.1, 0.05, extrapolated to 0.

    Two Richardson steps in ``|alpha|^2``, which falls 4-fold per step.  The
    ceiling 0.1 lies on the line |p| = |alpha| at |alpha| = 0.1 along Gamma-M.
    """
    slopes = []
    for size in (0.2, 0.1, 0.05):
        (omega,), _ = bands_at(size * np.array(direction), material, crystal,
                               truncation, omega_max=0.1, band_count=1)
        slopes.append(omega / size)
    first = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(slopes, slopes[1:])]
    return (16.0 * first[1] - first[0]) / 15.0


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("name", sorted(CRYSTALS))
def test_band_one_slope_at_the_zone_centre_is_the_effective_speed(name, direction):
    # Measured errors: 2.3e-8 (dilute, Gamma-X), 4.2e-9 (dilute, Gamma-M),
    # 4.3e-9 and 5.8e-9 (non-dilute).
    material, crystal, truncation = CRYSTALS[name]
    slope = extrapolated_slope(material, crystal, truncation, DIRECTIONS[direction])
    assert slope == pytest.approx(effective_speed(material, crystal), rel=1e-5)
    if name == "nondilute":
        # The square lattice's f^4 term moves c_eff by 9.2e-5 here, so the
        # extrapolation tells the lattice formula from Maxwell-Garnett's.
        garnett = effective_speed(material, crystal, square_lattice=False)
        assert abs(slope / garnett - 1.0) > 5e-5
