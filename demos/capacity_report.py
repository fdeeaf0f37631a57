"""Demo: quasi-periodic capacity across the Bloch cell and the shift it implies.

The breathing-mode frequency of a bubble in the crystal differs from the
isolated bubble's by the ratio of two electrostatic quantities: the disk's
free-space capacity and its quasi-periodic capacity at the Bloch vector of
interest.  The quasi-periodic capacity vanishes toward the cell centre
(the first band starts at zero) and is largest at the corner, which is why
the band peaks there.

Run:
  python3 demos/capacity_report.py    # well under a second
"""

import math

from bubblebands.capacity import capacity_disk, capacity_quasi, minnaert_frequency
from bubblebands.multipole import DiskCrystal, MaterialParams


def main():
    crystal = DiskCrystal(radius=0.05)
    material = MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0)

    free_cap = capacity_disk(crystal.radius)
    free_res = minnaert_frequency(
        material.delta, material.v_b, free_cap, crystal.area
    )
    print(f"isolated disk, radius {crystal.radius}:")
    print(f"  free-space capacity  {free_cap:.6f}")
    print(f"  resonance estimate   {free_res:.6f}")

    print("\nalpha              capacity   /free    resonance estimate")
    points = [
        ("(pi/8, 0)", (math.pi / 8, 0.0)),
        ("(pi/2, 0)", (math.pi / 2, 0.0)),
        ("(pi, 0)", (math.pi, 0.0)),
        ("(pi, pi/2)", (math.pi, math.pi / 2)),
        ("(pi, pi)", (math.pi, math.pi)),
    ]
    for label, alpha in points:
        result = capacity_quasi(alpha, crystal.radius, 3)
        resonance = minnaert_frequency(
            material.delta, material.v_b, result.cap, crystal.area
        )
        print(f"{label:15}  {result.cap:9.6f}  {result.cap / free_cap:6.4f}"
              f"  {resonance:9.6f}")

    print("\nthe corner value is the capacity estimate of the band-1 peak")


if __name__ == "__main__":
    main()
