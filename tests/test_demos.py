"""The quick demos run end to end through the public API."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, closing", [
    ("capacity_report.py", "capacity estimate of the band-1 peak"),
    ("resonance_error.py", "log-log slope of rel_error against delta"),
])
def test_quick_demo_runs(script, closing, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], DEMOS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert closing in capsys.readouterr().out
