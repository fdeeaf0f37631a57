"""Command-line front end: JSON-configured experiment runs with CSV output.

Four subcommands map onto the package's capabilities:

``bands``
    Sweep the closed zone-boundary path and write the two lowest bands as
    CSV rows ``s,alpha_x,alpha_y,band,omega`` plus summary footer comments
    ``# omega_star=``, ``# gap_lo=``, ``# gap_hi=``.
``compare``
    For a list of density contrasts, compare the capacity-based resonance
    prediction against the refined characteristic frequency at one Bloch
    vector; rows ``contrast,delta,omega_exact,omega_approx,rel_error``.
``dilute``
    Shrink the bubble at fixed contrast and report how the first-band
    maximum approaches the free resonance; rows
    ``radius,omega_star,omega_M,ratio``.
``capacity``
    Print free and quasi-periodic capacities, their ratio, and the two
    resonance frequencies for one Bloch vector.

All numeric output uses 17-significant-digit scientific notation (exact
double roundtrip), files are UTF-8 with LF line endings, and repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bands import BandNotFoundError, BandStructure, band_structure, resonance_near
from .capacity import (
    SingularSystemError,
    capacity_disk,
    capacity_quasi,
    minnaert_frequency,
)
from .lattice import M_POINT, as_bloch
from .multipole import DiskCrystal, MaterialParams

__all__ = [
    "ComputationError",
    "RunConfig",
    "UsageError",
    "load_config",
    "main",
    "run_bands",
    "run_capacity",
    "run_compare",
    "run_dilute",
]


class UsageError(Exception):
    """Bad flags, malformed config, or invalid parameter combinations."""


class ComputationError(Exception):
    """The requested computation could not be completed."""


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment parameters, JSON-loadable with flag overrides.

    Defaults describe the dilute reference crystal (small bubble, contrast
    5000).  The root-search grid and tolerances are fixed module constants
    of ``bands`` and ``lattice``, not configuration.
    """

    radius: float = 0.05
    rho: float = 5000.0
    kappa: float = 5000.0
    rho_b: float = 1.0
    kappa_b: float = 1.0
    truncation_N: int = 7
    path_resolution: int = 30
    omega_max: float = 5.0
    output_path: str | None = None

    def __post_init__(self) -> None:
        numeric = ("radius", "rho", "kappa", "rho_b", "kappa_b", "omega_max")
        for name in numeric:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise UsageError(f"config field {name!r} must be positive")
        for name in ("truncation_N", "path_resolution"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"config field {name!r} must be an integer")
        if self.truncation_N < 1 or self.truncation_N > 12:
            raise UsageError("truncation_N must lie in 1..12")
        if self.path_resolution < 3:
            raise UsageError("path_resolution must be at least 3")
        if self.radius >= 0.5:
            raise UsageError("radius must be below 0.5 (half the period)")

    @property
    def material(self) -> MaterialParams:
        return MaterialParams(rho=self.rho, kappa=self.kappa,
                              rho_b=self.rho_b, kappa_b=self.kappa_b)

    @property
    def crystal(self) -> DiskCrystal:
        return DiskCrystal(radius=self.radius)


#: The config keys each subcommand reads; ``bands`` reads every one.
_COMMAND_KEYS: dict[str, frozenset[str]] = {
    "bands": frozenset(f.name for f in fields(RunConfig)),
    "compare": frozenset(
        {"radius", "rho_b", "kappa_b", "truncation_N", "output_path"}),
    "dilute": frozenset({"rho_b", "kappa_b", "truncation_N", "path_resolution",
                         "omega_max", "output_path"}),
    "capacity": frozenset(
        {"radius", "rho", "kappa", "rho_b", "kappa_b", "truncation_N"}),
}


def load_config(path: str | None, command: str, **overrides) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file, and overrides.

    A key of the file that the subcommand ``command`` does not read
    (``_COMMAND_KEYS``) is a usage error that names the subcommand.
    """
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        unread = set(raw) - _COMMAND_KEYS[command]
        if unread:
            raise UsageError(
                f"config keys not read by {command}: {sorted(unread)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    float_fields = ("radius", "rho", "kappa", "rho_b", "kappa_b", "omega_max")
    for name in float_fields:
        if name in values:
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"config field {name!r} must be a number")
            values[name] = float(value)
    if "output_path" in values and values["output_path"] is not None \
            and not isinstance(values["output_path"], str):
        raise UsageError("config field 'output_path' must be a string")
    return RunConfig(**values)


def _fmt(value: float) -> str:
    # 17 significant digits: scientific notation that roundtrips doubles
    return format(float(value), ".16e")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sweep(config: RunConfig, material: MaterialParams, crystal: DiskCrystal,
           band_count: int, prefix: str = "") -> BandStructure:
    """The path sweep of ``config``, or a ``ComputationError`` led by ``prefix``."""
    try:
        structure = band_structure(
            material, crystal, config.truncation_N,
            resolution=config.path_resolution, band_count=band_count,
            omega_max=config.omega_max,
        )
    except BandNotFoundError as exc:
        raise ComputationError(f"{prefix}{exc}") from exc
    if structure.failures:
        s, alpha, reason = structure.failures[0]
        raise ComputationError(
            f"{prefix}band search failed at path point s={s:.6f}, "
            f"alpha=({alpha[0]:.6f}, {alpha[1]:.6f}): {reason}"
        )
    return structure


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def run_bands(config: RunConfig) -> Path:
    """Write the two-band path sweep as CSV; returns the output path."""
    structure = _sweep(config, config.material, config.crystal, 2)
    lines = ["s,alpha_x,alpha_y,band,omega"]
    for point in structure.points:
        for band, omega in enumerate(point.omegas, start=1):
            lines.append(
                f"{_fmt(point.s)},{_fmt(point.alpha[0])},"
                f"{_fmt(point.alpha[1])},{band},{_fmt(omega)}"
            )
    lines.append(f"# omega_star={_fmt(structure.omega_star)}")
    if structure.gap is not None:
        lines.append(f"# gap_lo={_fmt(structure.gap[0])}")
        lines.append(f"# gap_hi={_fmt(structure.gap[1])}")
    else:
        lines.append("# gap_lo=")
        lines.append("# gap_hi=")
    out = Path(config.output_path or "bands.csv")
    _write_lines(out, lines)
    return out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _nonzero_bloch(alpha, command: str) -> np.ndarray:
    """``alpha`` as a Bloch vector; the capacity needs it nonzero."""
    bloch = as_bloch(alpha)
    if float(np.hypot(bloch[0], bloch[1])) == 0.0:
        raise UsageError(f"{command} requires a nonzero Bloch vector")
    return bloch


def _contrast_material(config: RunConfig, contrast: float) -> MaterialParams:
    """The bubble fluid of ``config`` in a host ``contrast`` times denser and stiffer.

    A contrast whose host density or stiffness is not finite is a usage
    error.
    """
    try:
        return MaterialParams(rho=contrast * config.rho_b,
                              kappa=contrast * config.kappa_b,
                              rho_b=config.rho_b, kappa_b=config.kappa_b)
    except ValueError as exc:
        raise UsageError(f"contrast {contrast:g}: {exc}") from exc


def run_compare(config: RunConfig, contrast_list, alpha=None) -> Path:
    """Compare predicted vs refined resonance over a contrast list."""
    bloch = _nonzero_bloch(M_POINT if alpha is None else alpha, "compare")
    contrasts = [float(c) for c in contrast_list]
    if not contrasts or any(not c > 1.0 for c in contrasts):
        raise UsageError("contrasts must all exceed 1")
    materials = [_contrast_material(config, c) for c in contrasts]
    try:
        cap = capacity_quasi(bloch, config.radius, config.truncation_N)
    except SingularSystemError as exc:
        raise ComputationError(str(exc)) from exc
    crystal = config.crystal
    lines = ["contrast,delta,omega_exact,omega_approx,rel_error"]
    warnings: list[str] = []
    for contrast, material in zip(contrasts, materials):
        delta = 1.0 / contrast
        approx = minnaert_frequency(material.delta, material.v_b, cap.cap,
                                    crystal.area)
        try:
            exact = resonance_near(approx, bloch, material, crystal,
                                   config.truncation_N)
        except BandNotFoundError as exc:
            warnings.append(f"contrast {contrast:g}: {exc}")
            lines.append(f"{contrast:g},{_fmt(delta)},,{_fmt(approx)},")
            continue
        rel_error = abs(exact - approx) / exact
        lines.append(f"{contrast:g},{_fmt(delta)},{_fmt(exact)},"
                     f"{_fmt(approx)},{_fmt(rel_error)}")
    for warning in warnings:
        lines.append(f"# warnings: {warning}")
    out = Path(config.output_path or "compare.csv")
    _write_lines(out, lines)
    return out


# ---------------------------------------------------------------------------
# dilute
# ---------------------------------------------------------------------------

def run_dilute(config: RunConfig, radius_list, *,
               contrast: float = 1000.0) -> Path:
    """Sweep bubble radii at fixed contrast; report omega_star / omega_M."""
    radii = [float(r) for r in radius_list]
    if not radii or any(not 0.0 < r < 0.5 for r in radii):
        raise UsageError("radii must lie in (0, 0.5)")
    if not contrast > 1.0:
        raise UsageError("contrast must exceed 1")
    material = _contrast_material(config, contrast)
    lines = ["radius,omega_star,omega_M,ratio"]
    warnings: list[str] = []
    for radius in radii:
        crystal = DiskCrystal(radius=radius)
        structure = _sweep(config, material, crystal, 1, f"radius {radius:g}: ")
        free_resonance = minnaert_frequency(material.delta, material.v_b,
                                            capacity_disk(radius),
                                            crystal.area)
        ratio = structure.omega_star / free_resonance
        if not np.allclose(structure.argmax_alpha, M_POINT, atol=1e-9):
            warnings.append(
                f"radius {radius:g}: first-band maximum attained at "
                f"alpha=({structure.argmax_alpha[0]:.6f}, "
                f"{structure.argmax_alpha[1]:.6f}), not the zone corner"
            )
        lines.append(f"{_fmt(radius)},{_fmt(structure.omega_star)},"
                     f"{_fmt(free_resonance)},{_fmt(ratio)}")
    for warning in warnings:
        lines.append(f"# warnings: {warning}")
    out = Path(config.output_path or "dilute.csv")
    _write_lines(out, lines)
    return out


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def run_capacity(config: RunConfig, alpha) -> str:
    """Render the capacity / resonance report for one Bloch vector."""
    bloch = _nonzero_bloch(alpha, "capacity")
    try:
        quasi = capacity_quasi(bloch, config.radius, config.truncation_N)
    except SingularSystemError as exc:
        raise ComputationError(str(exc)) from exc
    free_cap = capacity_disk(config.radius)
    material = config.material
    area = config.crystal.area
    free_resonance = minnaert_frequency(material.delta, material.v_b,
                                        free_cap, area)
    bloch_resonance = minnaert_frequency(material.delta, material.v_b,
                                         quasi.cap, area)
    return "\n".join([
        "capacity report",
        f"  radius           = {config.radius:g}",
        f"  alpha            = ({bloch[0]:.15g}, {bloch[1]:.15g})",
        f"  multipole order  = {quasi.order_max}",
        f"  solve residual   = {quasi.residual:.3e}",
        f"  free capacity    = {_fmt(free_cap)}",
        f"  bloch capacity   = {_fmt(quasi.cap)}",
        f"  capacity ratio   = {_fmt(free_cap / quasi.cap)}    (free/bloch)",
        f"  free resonance   = {_fmt(free_resonance)}",
        f"  bloch resonance  = {_fmt(bloch_resonance)}"
        "    (= free resonance / sqrt(capacity ratio))",
    ])


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_alpha(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--alpha expects two comma-separated numbers: ax,ay")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--alpha components must be numbers: {exc}") from exc
    try:
        return as_bloch(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_list(text: str, what: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"--{what} must be comma-separated numbers") from exc
    if not values:
        raise UsageError(f"--{what} must name at least one value")
    return values


def _add_common(parser: argparse.ArgumentParser, *, output: bool = True) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file overriding the built-in defaults")
    if output:
        parser.add_argument("--output", metavar="FILE",
                            help="output file path (overrides config output_path)")


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", metavar="AX,AY",
                        help="Bloch vector components in [-pi, pi]")


@functools.cache  # once per process: parsing leaves it as it was, and it holds cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblebands",
        description=("Subwavelength band structures of a square crystal of "
                     "fluid bubbles."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bands = sub.add_parser(
        "bands", help="sweep the zone-boundary path, write band CSV",
        description=("CSV schema: header `s,alpha_x,alpha_y,band,omega`; one "
                     "row per path sample and band (band is 1-based, floats "
                     "in 17-significant-digit scientific notation); footer "
                     "`# omega_star=`, `# gap_lo=`, `# gap_hi=` (the gap "
                     "fields are left empty when the first two bands "
                     "overlap). Deterministic: reruns are byte-identical."),
    )
    _add_common(bands)

    compare = sub.add_parser(
        "compare", help="predicted vs computed resonance over contrasts",
        description=("CSV schema: header `contrast,delta,omega_exact,"
                     "omega_approx,rel_error`; one row per contrast; on a "
                     "per-contrast failure the omega_exact and rel_error "
                     "fields are left empty and a `# warnings:` footer names "
                     "the contrast. The Bloch vector defaults to the zone "
                     "corner (pi, pi)."),
    )
    _add_common(compare)
    _add_alpha(compare)
    compare.add_argument("--contrasts", default="100,300,1000,3000",
                         metavar="C1,C2,...",
                         help="density contrasts (default 100,300,1000,3000)")

    dilute = sub.add_parser(
        "dilute", help="first-band maximum vs bubble radius at fixed contrast",
        description=("CSV schema: header `radius,omega_star,omega_M,ratio` "
                     "with ratio = omega_star/omega_M; one row per radius at "
                     "fixed density contrast (--contrast, default 1000)."),
    )
    _add_common(dilute)
    dilute.add_argument("--radii", default="0.25,0.1,0.05", metavar="R1,R2,...",
                        help="bubble radii in (0, 0.5) (default 0.25,0.1,0.05)")
    dilute.add_argument("--contrast", type=float, default=1000.0, metavar="C",
                        help="fixed density contrast (default 1000)")

    capacity = sub.add_parser(
        "capacity", help="print capacities and resonance frequencies",
        description=("Prints the free and quasi-periodic capacities, their "
                     "ratio, and the derived resonance frequencies for one "
                     "Bloch vector (--alpha, default the zone corner; must "
                     "be nonzero)."),
    )
    _add_common(capacity, output=False)   # prints its report, writes no file
    _add_alpha(capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = getattr(args, "output", None)  # all but capacity
        config = load_config(args.config, args.command, output_path=output)
        alpha = getattr(args, "alpha", None)  # only compare and capacity
        if alpha is not None:
            alpha = _parse_alpha(alpha)
        if args.command == "bands":
            out = run_bands(config)
            print(f"wrote {out}")
        elif args.command == "compare":
            contrasts = _parse_list(args.contrasts, "contrasts")
            out = run_compare(config, contrasts, alpha)
            print(f"wrote {out}")
        elif args.command == "dilute":
            radii = _parse_list(args.radii, "radii")
            out = run_dilute(config, radii, contrast=args.contrast)
            print(f"wrote {out}")
        else:
            print(run_capacity(config, alpha if alpha is not None else M_POINT))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
