"""Command-line interface: config handling, CSV schemas, exit codes."""

import gc
import json
import math

import numpy as np
import pytest

from bubblebands import cli
from bubblebands.bands import BandNotFoundError, bands_at
from bubblebands.capacity import capacity_disk, capacity_quasi, minnaert_frequency
from bubblebands.cli import RunConfig, UsageError, load_config, main
from bubblebands.lattice import M_POINT
from bubblebands.multipole import DiskCrystal, MaterialParams, ZeroAlphaError


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_is_valid_and_dilute():
    config = RunConfig()
    assert config.radius == 0.05
    assert config.material.delta == pytest.approx(2e-4)
    assert config.truncation_N == 7


def test_config_rejects_nonpositive_numbers():
    with pytest.raises(UsageError):
        RunConfig(radius=-0.1)


def test_config_rejects_oversized_truncation_and_radius():
    with pytest.raises(UsageError):
        RunConfig(truncation_N=13)
    with pytest.raises(UsageError):
        RunConfig(radius=0.5)


def test_config_rejects_boolean_disguised_as_integer():
    with pytest.raises(UsageError):
        RunConfig(truncation_N=True)


def test_config_requires_minimum_path_resolution_and_drops_cutoff_key(
        tmp_path, capsys):
    with pytest.raises(UsageError):
        RunConfig(path_resolution=2)
    # A key the program does not read is rejected, not silently ignored.
    for key, value in (("spectral_cutoff", 120), ("scan_step", 2e-3),
                       ("lattice_tol", 1e-8)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: value}))
        assert main(["capacity", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err


def test_load_config_merges_file_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"radius": 0.25, "truncation_N": 3}))
    config = load_config(str(path), "bands", output_path="out.csv")
    assert config.radius == 0.25
    assert config.truncation_N == 3
    assert config.output_path == "out.csv"
    assert config.rho == 5000.0  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"radiu": 0.25}))
    with pytest.raises(UsageError):
        load_config(str(path), "bands")


@pytest.mark.parametrize("command, key, value", [
    ("compare", "rho", 10.0),
    ("compare", "path_resolution", 9),
    ("dilute", "radius", 0.1),
    ("capacity", "omega_max", 1.0),
])
def test_config_key_the_subcommand_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"truncation_N": 3, key: value}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"not read by {command}" in err and key in err


@pytest.mark.parametrize("command, values", [
    ("bands", {"radius": 0.05, "rho": 5000.0, "kappa": 5000.0, "rho_b": 1.0,
               "kappa_b": 1.0, "truncation_N": 5, "path_resolution": 3,
               "omega_max": 5.0, "output_path": "bands.csv"}),
    ("bands", {"path_resolution": 3}),
    ("compare", {"radius": 0.0125, "truncation_N": 3}),
    ("capacity", {"radius": 0.0125, "truncation_N": 3}),
    ("dilute", {"truncation_N": 3, "path_resolution": 4, "omega_max": 0.3}),
])
def test_config_keys_the_subcommand_reads_are_accepted(tmp_path, command, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    config = load_config(str(path), command)
    assert all(getattr(config, key) == value for key, value in values.items())


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(UsageError):
        load_config(str(path), "bands")
    with pytest.raises(UsageError):
        load_config(str(tmp_path / "missing.json"), "bands")


def test_load_config_rejects_non_object_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(UsageError):
        load_config(str(path), "bands")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_zero_bloch_vector_is_a_usage_error(capsys):
    assert main(["capacity", "--alpha", "0,0"]) == 2
    assert "nonzero" in capsys.readouterr().err
    assert main(["compare", "--alpha", "0,0"]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_capacity_at_zero_bloch_vector_raises_in_the_library():
    with pytest.raises(ZeroAlphaError):
        capacity_quasi((0.0, 0.0), 0.05, 3)


def test_malformed_alpha_is_a_usage_error(capsys):
    assert main(["capacity", "--alpha", "1.0"]) == 2
    assert main(["capacity", "--alpha", "5.0,0.0"]) == 2
    assert main(["capacity", "--alpha", "a,b"]) == 2


@pytest.mark.parametrize("argv", [
    ["bands", "--alpha", "1,0"],
    ["dilute", "--alpha", "1,0"],
    ["compare", "--threads", "2"],
    ["capacity", "--threads", "2"],
    ["bands", "--threads", "2"],
    ["dilute", "--threads", "2"],
    ["capacity", "--output", "x.txt"],
])
def test_flags_a_subcommand_does_not_use_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unreachable_band_ceiling_is_a_computation_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "truncation_N": 3, "path_resolution": 3, "omega_max": 0.05,
        "output_path": str(tmp_path / "bands.csv"),
    }))
    assert main(["bands", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "path point" in err and "s=" in err


def test_slow_host_band_search_finds_band_two_at_the_corner(tmp_path):
    # Host speed 0.01 puts every band next to an empty-lattice line; the
    # frequencies past k ~ 12.1 (omega 0.121) get no count.  Band 2 at M
    # lies 8e-6 above the fourfold line 0.044429 at 0.044437 (finite
    # elements: 0.044438).  The double band 0.102041 above it is bands
    # 11 and 12.
    out = tmp_path / "bands.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "rho": 10000, "kappa": 1, "omega_max": 0.3, "truncation_N": 3,
        "path_resolution": 3, "output_path": str(out),
    }))
    assert main(["bands", "--config", str(config)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
            if line and line[0].isdigit()]
    at_m = [float(row[4]) for row in rows
            if np.allclose([float(row[1]), float(row[2])], [np.pi, np.pi])
            and row[3] == "2"]
    assert at_m == [pytest.approx(0.044437, abs=1e-6)]


def _raise_band_not_found(*args, **kwargs):
    raise BandNotFoundError("no band in reach")


def test_dilute_band_search_failure_is_a_computation_error(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "band_structure", _raise_band_not_found)
    out = tmp_path / "dilute.csv"
    assert main(["dilute", "--radii", "0.05", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radius 0.05: no band in reach")
    assert not out.exists()


def test_compare_missing_resonance_is_a_warning_row(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "bands_at", _raise_band_not_found)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"radius": 0.0125, "truncation_N": 3}))
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", str(config), "--output", str(out),
                 "--contrasts", "100,300"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:3]]
    assert [row[0] for row in rows] == ["100", "300"]
    assert all(row[2] == "" and row[4] == "" for row in rows)
    assert all(float(row[3]) > 0.0 for row in rows)
    assert lines[3:] == [
        "# warnings: contrast 100: no band in reach",
        "# warnings: contrast 300: no band in reach",
    ]


@pytest.mark.parametrize("command, target", [
    (["bands"], "band_structure"),
    (["dilute", "--radii", "0.05"], "band_structure"),
    (["compare", "--contrasts", "100"], "bands_at"),
])
def test_other_band_search_errors_are_not_swallowed(
        command, target, tmp_path, monkeypatch):
    # The handlers turn only a missing band into an error report; anything
    # else a band search raises is a fault of the program and propagates.
    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, target, fail)
    with pytest.raises(RuntimeError, match="unexpected"):
        main([*command, "--output", str(tmp_path / "out.csv")])


# ---------------------------------------------------------------------------
# capacity report
# ---------------------------------------------------------------------------

def test_capacity_report_prints_expected_values(capsys):
    assert main(["capacity"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, rest = line.partition("=")
            values[key.strip()] = rest.strip().split()[0]
    assert float(values["free capacity"]) == pytest.approx(
        -2.0 * math.pi / math.log(0.05), rel=1e-12)
    assert float(values["free capacity"]) == pytest.approx(2.0974, abs=2e-4)
    ratio = float(values["capacity ratio"])
    assert 0.0 < ratio <= 1.0
    # resonance identity: bloch resonance = free resonance / sqrt(ratio)
    assert float(values["bloch resonance"]) == pytest.approx(
        float(values["free resonance"]) / math.sqrt(ratio), rel=1e-12)


@pytest.mark.parametrize("argv, values", [
    (["capacity"], {"radius": 0.0125, "truncation_N": 3}),
    (["compare", "--contrasts", "100"], {"radius": 0.0125, "truncation_N": 3}),
    (["bands"], {"truncation_N": 3, "path_resolution": 3, "omega_max": 5.0}),
])
def test_main_leaves_no_cyclic_garbage(tmp_path, capsys, argv, values):
    # The parser is built once per process: built per call, its reference
    # cycles were left behind for the cycle collector.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    argv = [*argv, "--config", str(config)]
    if argv[0] != "capacity":
        argv += ["--output", str(tmp_path / "out.csv")]
    gc.disable()
    try:
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# compare CSV
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def compare_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    config = tmp / "config.json"
    config.write_text(json.dumps({"radius": 0.0125, "truncation_N": 3}))
    out = tmp / "compare.csv"
    code = main(["compare", "--config", str(config), "--output", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def test_compare_schema_and_monotone_error(compare_csv):
    lines = compare_csv.splitlines()
    assert lines[0] == "contrast,delta,omega_exact,omega_approx,rel_error"
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert [r[0] for r in rows] == ["100", "300", "1000", "3000"]
    rel = [float(r[4]) for r in rows]
    assert all(e > 0 for e in rel)
    assert all(b < a for a, b in zip(rel, rel[1:]))


def test_compare_reports_band_one(compare_csv):
    # Every row is band 1 at M, whichever root lies nearest the estimate: at
    # contrast 100 the double band 3-4 at 4.447142 is nearer the estimate
    # 5.831002 than band 1 is.
    crystal = DiskCrystal(radius=0.0125)
    rows = [line.split(",") for line in compare_csv.splitlines()[1:]
            if not line.startswith("#")]
    for row in rows:
        contrast = float(row[0])
        material = MaterialParams(rho=contrast, kappa=contrast,
                                  rho_b=1.0, kappa_b=1.0)
        (band_one,), _ = bands_at(M_POINT, material, crystal, 3, 8.0,
                                  band_count=1)
        assert float(row[2]) == pytest.approx(band_one, rel=1e-9)
    assert float(rows[0][2]) == pytest.approx(3.9225247243, rel=1e-9)


def test_compare_delta_column_is_reciprocal_contrast(compare_csv):
    for line in compare_csv.splitlines()[1:]:
        if line.startswith("#"):
            continue
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(1.0 / float(fields[0]),
                                                 rel=1e-14)


def test_compare_scaling_slope_is_near_linear(compare_csv):
    rows = [line.split(",") for line in compare_csv.splitlines()[1:]
            if line and not line.startswith("#")]
    deltas = np.array([float(r[1]) for r in rows])
    errors = np.array([float(r[4]) for r in rows])
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert 0.6 <= slope <= 1.4


# ---------------------------------------------------------------------------
# bands CSV
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def bands_csv_pair(tmp_path_factory):
    """Two identical small `bands` runs for schema and determinism checks."""
    tmp = tmp_path_factory.mktemp("bands")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "truncation_N": 3, "path_resolution": 3, "omega_max": 5.0,
    }))
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp / name
        code = main(["bands", "--config", str(config), "--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    return outputs


def test_bands_reruns_are_byte_identical(bands_csv_pair):
    first, second = bands_csv_pair
    assert first == second


def test_bands_schema_and_zone_centre_convention(bands_csv_pair):
    lines = bands_csv_pair[0].decode("utf-8").splitlines()
    assert lines[0] == "s,alpha_x,alpha_y,band,omega"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert first[3] == "1"
    assert float(first[4]) == 0.0
    # every path sample carries bands 1 and 2 in order
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(data) == 2 * (3 * 3 + 1)
    assert [row[3] for row in data[:2]] == ["1", "2"]


def test_bands_footer_reports_an_open_gap(bands_csv_pair):
    footer = [line for line in bands_csv_pair[0].decode().splitlines()
              if line.startswith("#")]
    values = {line.split("=")[0]: line.split("=")[1] for line in footer}
    gap_lo = float(values["# gap_lo"])
    gap_hi = float(values["# gap_hi"])
    assert float(values["# omega_star"]) == gap_lo
    assert gap_hi > gap_lo


def test_bands_line_endings_are_lf_only(bands_csv_pair):
    assert b"\r" not in bands_csv_pair[0]


# ---------------------------------------------------------------------------
# dilute CSV
# ---------------------------------------------------------------------------

def test_dilute_row_identities(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "truncation_N": 3, "path_resolution": 4, "omega_max": 0.3,
    }))
    out = tmp_path / "dilute.csv"
    code = main(["dilute", "--config", str(config), "--radii", "0.25",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "radius,omega_star,omega_M,ratio"
    radius, omega_star, omega_free, ratio = map(float, lines[1].split(","))
    assert radius == 0.25
    crystal = DiskCrystal(radius=0.25)
    expected_free = minnaert_frequency(1e-3, 1.0, capacity_disk(0.25),
                                       crystal.area)
    assert omega_free == expected_free  # exact plumbing identity
    assert ratio == pytest.approx(omega_star / omega_free, rel=1e-14)
    assert "# warnings" not in "\n".join(lines)  # maximum attained at corner


def test_dilute_rejects_bad_radii():
    assert main(["dilute", "--radii", "0.6"]) == 2
    assert main(["dilute", "--radii", ""]) == 2


@pytest.mark.parametrize("argv", [
    ["compare", "--contrasts", "100,inf"],
    ["compare", "--contrasts", "1e400"],
    ["dilute", "--contrast", "inf"],
])
def test_infinite_contrast_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert "usage error: contrast inf" in capsys.readouterr().err
    assert not out.exists()
