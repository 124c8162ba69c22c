"""Command-line front end: teleport, predict, simulate and scan subcommands.

Outputs are deterministic and machine readable. Every output starts with a
run manifest (``# key = value`` lines for CSV, a manifest object for JSON
lines) carrying the subcommand, tool version and the fully resolved
parameters, so any run can be reproduced from its own output.

Exit codes: 0 success, 1 invalid input or configuration, 2 a numerical
invariant was violated at runtime.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__, reaction, teleport
from .reaction import AXIS_VECTORS, ExperimentConfig, TargetSpec
from .spinalg import InvariantError, SpinAlgebraError, bloch_from, density_from
from .teleport import POLICIES, BeamState, CorrectionPolicy

_CONFIG_KEYS = (
    "beam_direction",
    "beam_magnitude",
    "epsilon",
    "k_transfer",
    "target",
    "events",
    "seed",
    "beam_energy_mev",
    "analyzer_axes",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for numerical
    # invariant violations, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Table cell rendering: 12 significant digits."""
    return format(float(value), ".12g")


def _exact(value: float) -> str:
    """Manifest/config rendering: shortest float repr, round-trips exactly."""
    return repr(float(value))


def _parse_axis_name(text: str) -> np.ndarray | None:
    sign = 1.0
    name = text.strip()
    if name.startswith(("+", "-")):
        sign = -1.0 if name[0] == "-" else 1.0
        name = name[1:]
    if name in AXIS_VECTORS:
        return sign * np.array(AXIS_VECTORS[name])
    return None


def parse_beam_spec(text: str) -> np.ndarray:
    """Beam direction from an axis name (x|y|z, optional sign) or "theta,phi" degrees."""
    vector = _parse_axis_name(text)
    if vector is not None:
        return vector
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"beam spec {text!r} is neither an axis name nor 'theta,phi' in degrees")
    angles = [float(p) for p in parts]
    if not np.isfinite(angles).all():
        raise ValueError(f"beam_direction angles {text!r} must be finite degrees")
    theta, phi = np.radians(angles)
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def _parse_vector3(text: str, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} must be three comma-separated numbers, got {text!r}")
    return np.array([float(p) for p in parts])


def _parse_direction_value(text: str) -> np.ndarray:
    vector = _parse_axis_name(text)
    if vector is not None:
        return vector
    return _parse_vector3(text, "beam_direction")


def _parse_axes_value(text: str) -> tuple[np.ndarray, ...]:
    axes = []
    for token in text.split(";"):
        vector = _parse_axis_name(token)
        axes.append(vector if vector is not None else _parse_vector3(token, "analyzer axis"))
    return tuple(axes)


def _parse_axes_flag(text: str) -> tuple[np.ndarray, ...]:
    axes = []
    for token in text.split(","):
        vector = _parse_axis_name(token)
        if vector is None:
            raise ValueError(f"--axes takes axis names like x,y,z; got {token!r}")
        axes.append(vector)
    return tuple(axes)


def _parse_target_value(text: str) -> TargetSpec:
    return TargetSpec(*_parse_vector3(text, "target populations p+,p0,p-"))


def beam_label(direction: np.ndarray) -> str:
    """Axis name when the direction is axis-aligned, else "theta,phi" in degrees."""
    for name, axis in AXIS_VECTORS.items():
        axis = np.array(axis)
        if np.allclose(direction, axis, atol=1e-9):
            return name
        if np.allclose(direction, -axis, atol=1e-9):
            return f"-{name}"
    theta = np.degrees(np.arccos(np.clip(direction[2], -1.0, 1.0)))
    phi = np.degrees(np.arctan2(direction[1], direction[0]))
    return f"{_fmt(theta)},{_fmt(phi)}"


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        values[key] = value
    return values


_VALUE_PARSERS = {
    "beam_direction": _parse_direction_value,
    "beam_magnitude": float,
    "epsilon": float,
    "k_transfer": float,
    "target": _parse_target_value,
    "events": int,
    "seed": int,
    "beam_energy_mev": float,
    "analyzer_axes": _parse_axes_value,
}


def resolve_config(file_values: dict[str, str], overrides: dict[str, object]) -> ExperimentConfig:
    """Defaults, then config-file values, then flag overrides."""
    kwargs: dict[str, object] = {}
    for key, text in file_values.items():
        kwargs[key] = _VALUE_PARSERS[key](text)
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def config_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Config serialized as (key, value) text pairs; parses back to itself."""
    items = [
        ("beam_direction", ",".join(_exact(c) for c in config.beam_direction)),
        ("beam_magnitude", _exact(config.beam_magnitude)),
        ("epsilon", _exact(config.epsilon)),
        ("k_transfer", _exact(config.k_transfer)),
        ("target", ",".join(_exact(p) for p in (config.target.p_plus, config.target.p_zero, config.target.p_minus))),
        ("events", str(config.events)),
    ]
    if config.seed is not None:
        items.append(("seed", str(config.seed)))
    items.append(("beam_energy_mev", _exact(config.beam_energy_mev)))
    items.append(("analyzer_axes", ";".join(",".join(_exact(c) for c in axis) for axis in config.analyzer_axes)))
    return items


def _manifest(subcommand: str, params: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [("subcommand", subcommand), ("version", __version__)] + params


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _json_value(value):
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def _emit(args, manifest: list[tuple[str, str]], header: list[str], rows: list[list],
          row_type: str, tail_lines: Iterable[str] = ()) -> None:
    """Write manifest and table rows (native, unformatted values), then stream the
    finished, newline-terminated ``tail_lines`` as they are produced."""
    if args.format == "csv":
        lines = [f"# {key} = {value}" for key, value in manifest]
        lines.append(",".join(header))
        lines.extend(",".join(_cell(value) for value in row) for row in rows)
    else:
        lines = [json.dumps({"type": "manifest", **dict(manifest)})]
        lines.extend(
            json.dumps({"type": row_type, **{key: _json_value(value) for key, value in zip(header, row)}})
            for row in rows
        )
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as handle:
        handle.writelines(line + "\n" for line in lines)
        handle.writelines(tail_lines)


def _collect_overrides(args) -> dict[str, object]:
    overrides: dict[str, object] = {
        "beam_magnitude": args.magnitude,
        "epsilon": args.epsilon,
        "k_transfer": args.kyy,
    }
    if args.beam is not None:
        overrides["beam_direction"] = parse_beam_spec(args.beam)
    if args.target is not None:
        overrides["target"] = _parse_target_value(args.target)
    if getattr(args, "events", None) is not None:
        overrides["events"] = args.events
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "axes", None) is not None:
        overrides["analyzer_axes"] = _parse_axes_flag(args.axes)
    return overrides


def _load_config(args) -> ExperimentConfig:
    file_values: dict[str, str] = {}
    if args.config:
        with open(args.config) as handle:
            file_values = parse_config_text(handle.read())
    return resolve_config(file_values, _collect_overrides(args))


def cmd_teleport(args) -> int:
    direction = parse_beam_spec(args.beam)
    policy = CorrectionPolicy.parse(args.correction)
    result = teleport.run_postselected(BeamState.from_direction(direction), policy)
    pre = bloch_from(density_from(result.neutron_pre))
    post = bloch_from(density_from(result.neutron_post))
    manifest = _manifest("teleport", [("beam", args.beam), ("correction", args.correction)])
    header = ["outcome", "probability", "pre_px", "pre_py", "pre_pz",
              "post_px", "post_py", "post_pz", "fidelity_pre", "fidelity_post"]
    row = [result.outcome.value, result.probability,
           pre.px, pre.py, pre.pz, post.px, post.py, post.pz,
           result.fidelity_pre, result.fidelity_post]
    _emit(args, manifest, header, [row], row_type="protocol")
    return 0


def cmd_predict(args) -> int:
    config = _load_config(args)
    prediction = reaction.predict(config)
    label = beam_label(config.beam_direction)
    beam = config.beam_bloch()
    header = ["beam_axis", "beam_px", "beam_py", "beam_pz", "model",
              "neutron_px", "neutron_py", "neutron_pz", "enhancement"]
    rows = []
    for model, vector in (("qt", prediction.qt_bloch), ("conventional", prediction.conventional_bloch)):
        rows.append([label, float(beam[0]), float(beam[1]), float(beam[2]), model,
                     vector.px, vector.py, vector.pz, prediction.enhancement])
    _emit(args, _manifest("predict", config_items(config)), header, rows, row_type="prediction")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if config.seed is None:
        raise ValueError("simulate requires an explicit --seed (or a seed in the config file)")
    estimates = reaction.simulate(config)
    header = ["axis_x", "axis_y", "axis_z", "p_hat", "sigma", "n_events"]
    rows = [
        [float(e.axis[0]), float(e.axis[1]), float(e.axis[2]), e.p_hat, e.sigma, e.n_events]
        for e in estimates
    ]
    # The estimates precede the events, so JSON lines draws the seeded stream
    # a second time and streams it, instead of holding every event.
    event_lines = () if args.format == "csv" else (
        f'{{"type": "event", "event_id": {r.event_id}, "accepted": {"true" if r.accepted else "false"}, '
        f'"axis_index": {r.axis_index}, "spin_outcome": {r.spin_outcome}}}\n'
        for r in reaction.event_records(config)
    )
    _emit(args, _manifest("simulate", config_items(config)), header, rows,
          row_type="estimate", tail_lines=event_lines)
    return 0


_SCAN_BEAMS = ("x", "-x", "y", "-y", "z", "-z")


def cmd_scan(args) -> int:
    header = ["beam_axis", "policy", "probability", "fidelity_pre", "fidelity_post"]
    rows = []
    for beam_name in _SCAN_BEAMS:
        state = BeamState.from_direction(parse_beam_spec(beam_name))
        for policy in POLICIES.values():
            result = teleport.run_postselected(state, policy)
            rows.append([beam_name, policy.name, result.probability,
                         result.fidelity_pre, result.fidelity_post])
    _emit(args, _manifest("scan", []), header, rows, row_type="scan")
    return 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: standard output)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="output format")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--beam", help="beam axis (x|y|z, optional sign; write --beam=-x for negative axes) or 'theta,phi' in degrees")
    parser.add_argument("--magnitude", type=float, help="beam polarization magnitude in [0, 1]")
    parser.add_argument("--epsilon", type=float, help="contamination fraction of the selected sample")
    parser.add_argument("--kyy", type=float, help="conventional y->y' polarization transfer coefficient")
    parser.add_argument("--target", help="target sublevel populations p+,p0,p-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinport", description="Spin-teleportation polarimetry toolkit")
    parser.add_argument("--version", action="version", version=f"spinport {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_teleport = subparsers.add_parser("teleport", help="run the post-selected protocol for one beam state")
    p_teleport.add_argument("--beam", required=True,
                            help="beam axis (x|y|z, optional sign; write --beam=-x for negative axes) or 'theta,phi' in degrees")
    p_teleport.add_argument("--correction", choices=tuple(POLICIES), default="sigma_z",
                            help="correction policy applied to the selected branch")
    _add_output_flags(p_teleport)
    p_teleport.set_defaults(func=cmd_teleport)

    p_predict = subparsers.add_parser("predict", help="analytic neutron-polarization predictions")
    _add_config_flags(p_predict)
    _add_output_flags(p_predict)
    p_predict.set_defaults(func=cmd_predict)

    p_simulate = subparsers.add_parser("simulate", help="Monte Carlo event sample and polarimetry estimates")
    _add_config_flags(p_simulate)
    p_simulate.add_argument("--events", type=int, help="number of events to generate")
    p_simulate.add_argument("--seed", type=int, help="random seed (required)")
    p_simulate.add_argument("--axes", help="comma-separated analyzer axis names, e.g. x,y,z")
    _add_output_flags(p_simulate)
    p_simulate.set_defaults(func=cmd_simulate)

    p_scan = subparsers.add_parser("scan", help="correction-policy fidelity scan over the six beam axes")
    _add_output_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"spinport: numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except (SpinAlgebraError, ValueError, OSError) as exc:
        print(f"spinport: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
