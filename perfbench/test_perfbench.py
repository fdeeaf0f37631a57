"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from bubblebands import bands, cli  # noqa: E402


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7], which holds leaf [5, 6]
    tracer = tr.Tracer(entry_points=(),
                       clock=ticking_clock([0, 1, 3, 4, 5, 6, 7, 10]))
    leaf = tracer.wrap("bessel", "bessel_j_seq", lambda order, x: x)
    inner = tracer.wrap("multipole", "assemble_characteristic_matrix",
                        lambda x: leaf(0, x) if x else None)
    outer = tracer.wrap("bands", "scan_and_bracket",
                        lambda: (inner(0), inner(1)))
    outer()
    by_name = {span[2]: [] for span in tracer.spans}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        by_name[span[2]].append(self_s)
    assert by_name == {"scan_and_bracket": [5],
                       "assemble_characteristic_matrix": [2, 2],
                       "bessel_j_seq": [1]}
    metrics = tracer.metrics()
    assert metrics["bands.scan_self_s"]["value"] == 5
    assert metrics["multipole.assembly_self_s"]["value"] == 4
    assert metrics["bessel.self_s"]["value"] == 1


def test_calls_inside_a_layer_count_once():
    tracer = tr.Tracer(entry_points=())
    j = tracer.wrap("bessel", "bessel_j_seq", lambda order, x: x,
                    tr._note_bessel)
    h = tracer.wrap("bessel", "hankel1_seq", lambda order, x: j(order, x),
                    tr._note_bessel)
    h(3, [0.1, 0.2])
    assert tracer.counts == {"bessel.calls": 1, "bessel.args": 2}
    assert len(tracer.spans) == 2


def test_absent_layer_is_reported_not_raised():
    from bubblebands import lattice

    original = lattice.LatticeSumEngine.table
    tracer = tr.Tracer(entry_points=(
        ("bessel", "bubblebands.no_such_module", "bessel_j_seq"),
        ("lattice", "bubblebands.lattice", "NoSuchEngine.table"),
        ("lattice", "bubblebands.lattice", "LatticeSumEngine.table"),
    ))
    tracer.install()
    try:
        assert lattice.LatticeSumEngine.table is not original
    finally:
        tracer.uninstall()
    assert lattice.LatticeSumEngine.table is original
    assert tracer.missing == ["bubblebands.no_such_module.bessel_j_seq",
                              "bubblebands.lattice.NoSuchEngine.table"]
    metrics = tracer.metrics()
    assert metrics["bessel.calls"] == {"value": 0.0, "unit": "count",
                                       "absent": True}
    assert "absent" not in metrics["lattice.table_evals"]
    assert set(metrics) == set(tr.PER_LAYER_METRICS)


def test_every_entry_point_exists_today():
    tracer = tr.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def _raise(*args, **kwargs):
    raise bands.BandNotFoundError("stub failure")


@pytest.mark.parametrize("workload, patch, attempted", [
    (wl.BandsDilute, (cli, "main", _raise), 10),
    (wl.BandsDilute, (cli, "main", lambda argv: 1), 10),
    (wl.BandsNondilute, (bands, "band_structure", _raise), 19),
    (wl.Minnaert, (cli, "main", lambda argv: 1), 9),
])
def test_failed_operations_are_counted_not_raised(
        tmp_path, monkeypatch, workload, patch, attempted):
    monkeypatch.setattr(*patch)
    outcome = workload(7, tmp_path).run_round()
    assert (outcome.attempted, outcome.failed) == (attempted, attempted)
    assert workload(7, tmp_path).check([outcome], "digest") != []
