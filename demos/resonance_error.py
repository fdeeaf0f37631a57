"""Demo: the capacity-based resonance estimate sharpens with contrast.

For a small bubble (radius 0.0125) the first band's frequency at the
Bloch corner (pi,pi) is computed two ways: exactly, as band 1 of the
multipole characteristic matrix searched below 1.4 times the estimate (as
the `compare` subcommand does), and approximately, from the closed-form
breathing-mode formula fed with the bubble's quasi-periodic capacity.
The approximation is a leading-order result in the inverse contrast
delta = rho_b/rho, so its relative error should fall roughly like delta
as the inclusion becomes softer.

Run:
  python3 demos/resonance_error.py    # a second or two
"""

import numpy as np

from bubblebands.bands import bands_at
from bubblebands.capacity import approx_resonance
from bubblebands.lattice import M_POINT
from bubblebands.multipole import DiskCrystal, MaterialParams


def main():
    crystal = DiskCrystal(radius=0.0125)
    order = 3

    print("contrast     delta     estimate   computed   rel_error")
    deltas, errors = [], []
    for contrast in (100.0, 300.0, 1000.0, 3000.0):
        material = MaterialParams(rho=contrast, kappa=contrast,
                                  rho_b=1.0, kappa_b=1.0)
        estimate = approx_resonance(M_POINT, material, crystal, order)
        (computed,), _ = bands_at(M_POINT, material, crystal, order,
                                  1.4 * estimate, band_count=1)
        rel = abs(computed - estimate) / computed
        deltas.append(material.delta)
        errors.append(rel)
        print(f"{contrast:8.0f}  {material.delta:9.1e}  {estimate:9.6f}  "
              f"{computed:9.6f}  {rel:9.2%}")

    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    print(f"\nlog-log slope of rel_error against delta: {slope:.2f} "
          f"(first-order convergence would be 1)")


if __name__ == "__main__":
    main()
