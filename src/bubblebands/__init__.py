"""Band structures of square lattices of air bubbles in a fluid.

Subwavelength resonance solver built on a multipole (cylindrical-harmonic)
discretisation of the quasi-periodic single-layer potential, with Ewald
summation for the lattice sums and a Minnaert-type capacity approximation
for the first band.  The slow independent oracles that cross-check every
fast path live with the tests (``tests/oracles.py``), not in the package;
``bessel`` stays here only as an entry point of the benchmark's tracer.
"""

__version__ = "0.1.0"
