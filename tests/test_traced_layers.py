"""The benchmark's span tracer still finds an entry point in every layer.

A traced benchmark run (``perfbench/run.py --trace 1``) times each layer
through the entry points listed in ``perfbench/tracer.py``.  A layer none of
whose entry points resolves is reported as absent, which changes the traced
output while the untraced run stays the same.  These tests read the tracer's
tables and resolve them against the package, and run one small sweep under
the tracer to see that its counts move; they change nothing under
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bubblebands import bands
from bubblebands.multipole import DiskCrystal, MaterialParams

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Entry points the tracer lists that no longer exist in the package.  A
#: change that makes another one disappear must say why and extend this.
KNOWN_MISSING = {
    "bubblebands.bessel.bessel_y_seq",
    "bubblebands.bessel.hankel1_seq",
    "bubblebands.bessel.bessel_j_seq_complex",
    "bubblebands.bessel.bessel_y_seq_complex",
    "bubblebands.bessel.hankel1_seq_complex",
    "bubblebands.capacity.quasistatic_matrix",
    # Deleted with no production caller left: the band searches read the
    # bracket stream and the acceptance SVD directly, so the tracer's
    # metrics on these two (``bands.scans``, ``bands.brackets``,
    # ``bands.flagged_zones``, ``bands.scan_self_s``,
    # ``bands.indicator_evals``, ``bands.indicator_s``) already read 0.
    # ``band_structure`` alone keeps the ``bands`` layer present.
    "bubblebands.bands.scan_and_bracket",
    "bubblebands.bands.singular_value_indicator",
    # Deleted with Muller's method: the search counts the bands and polishes
    # each root with Brent's method (``bands._brent_steps``), so the tracer's
    # metrics on it (``bands.refines``, ``bands.muller_iters``,
    # ``bands.refine_self_s``, ``bands.roots_accepted``, ``bands.rejected``,
    # ``bands.unconverged``, ``bands.accept_ratio`` and
    # ``bands.evals_per_root``) read 0.
    "bubblebands.bands.muller_refine",
    # Deleted with ``bands.resonance_near``: ``compare`` takes band 1 from
    # ``bands_at``, which the tracer does not hook, so a traced ``minnaert``
    # run counts the compare search in ``cli`` self time.
    "bubblebands.cli.resonance_near",
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def probe(tracer):
    """A tracer that resolved every entry point, patched and restored them."""
    probe = tracer.Tracer()
    probe.install()
    probe.uninstall()
    return probe


def test_every_traced_layer_keeps_an_entry_point(tracer, probe):
    absent = set(tracer.LAYERS) - probe.present_layers()
    assert not absent, f"traced layers with no entry point left: {absent}"


def test_no_further_entry_point_goes_missing(probe):
    missing = set(probe.missing)
    assert missing <= KNOWN_MISSING, missing - KNOWN_MISSING


#: Metrics that any band sweep moves.  A change that routes the search around
#: a traced entry point reads 0 on some of them while every output stays the
#: same, as the scan metrics already do (see ``KNOWN_MISSING``).
SWEEP_METRICS = (
    "lattice.table_evals",
    "lattice.tables",
    "multipole.assemblies",
)


def test_a_traced_sweep_counts_work_in_every_search_layer(tracer):
    probe = tracer.Tracer()
    probe.install()
    try:
        bands.band_structure(
            MaterialParams(rho=5000.0, kappa=5000.0, rho_b=1.0, kappa_b=1.0),
            DiskCrystal(radius=0.05), 3, resolution=3, band_count=1)
    finally:
        probe.uninstall()
    metrics = probe.metrics()
    zero = [name for name in SWEEP_METRICS if not metrics[name]["value"] > 0]
    assert not zero, f"traced sweep metrics reading 0: {zero}"
