"""Command-line front end: teleport, predict, simulate and scan subcommands.

Outputs are deterministic and machine readable. Every output starts with a
run manifest (``# key = value`` lines for CSV, a manifest object for JSON
lines) carrying the subcommand, tool version and the fully resolved
parameters, so any run can be reproduced from its own output.

Exit codes: 0 success, 1 invalid input or configuration, 2 a numerical
invariant was violated at runtime, 141 the reader closed the output.
Importing this module makes the interpreter freeze its garbage collector at
shutdown. The final collections then skip every object a run leaves behind,
and cycles still alive at exit are not collected. The atexit handlers, the
flush of stdout and stderr and the exit-141 path still run.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, reaction, teleport
from .reaction import AXIS_VECTORS, ExperimentConfig, TargetSpec
from .spinalg import InvariantError, SpinAlgebraError, bloch_from, density_from
from .teleport import POLICIES, BeamState

# at shutdown, not in main, so in-process callers of main stay unfrozen
atexit.register(gc.freeze)

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


def _parse_axis_or_vector(text: str, what: str) -> np.ndarray:
    vector = _parse_axis_name(text)
    if vector is not None:
        return vector
    return _parse_vector3(text, what)


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


def _floats(values) -> str:
    return ",".join(_exact(c) for c in values)


#: Every ``ExperimentConfig`` key, in manifest order, with how its config-file
#: text parses and how its manifest value renders; the rendering parses back.
_CONFIG_FIELDS = {
    "beam_direction": (lambda text: _parse_axis_or_vector(text, "beam_direction"), _floats),
    "beam_magnitude": (float, _exact),
    "epsilon": (float, _exact),
    "k_transfer": (float, _exact),
    "target": (_parse_target_value, lambda t: _floats((t.p_plus, t.p_zero, t.p_minus))),
    "events": (int, str),
    "seed": (int, str),
    "beam_energy_mev": (float, _exact),
    "analyzer_axes": (
        lambda text: tuple(_parse_axis_or_vector(token, "analyzer axis") for token in text.split(";")),
        lambda axes: ";".join(map(_floats, axes)),
    ),
}

#: Flags whose grammar differs from the config-file text of their key.
_FLAG_PARSERS = {
    "beam_direction": parse_beam_spec,
    "analyzer_axes": _parse_axes_flag,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines, each key at most once; ``#`` starts a comment."""
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if key in key_lines:
            raise ValueError(f"config key {key!r} repeated on lines {key_lines[key]} and {lineno}")
        values[key], key_lines[key] = value, lineno
    return values


def resolve_config(file_values: dict[str, str], flag_values: dict[str, str | None],
                   file_name: str | None = None) -> ExperimentConfig:
    """Defaults, then config-file values, then flag values (text; None for a flag not given).

    Only the values that win are parsed: a file value whose flag is given is
    never read. A refusal of a file value names its key, and ``file_name``
    when that is given.
    """
    in_file = "" if file_name is None else f"config file {file_name!r}: "
    file_values = {key: text for key, text in file_values.items() if flag_values.get(key) is None}
    texts = [(key, text, _CONFIG_FIELDS[key][0], in_file) for key, text in file_values.items()]
    texts += [(key, text, _FLAG_PARSERS.get(key, _CONFIG_FIELDS[key][0]), "")
              for key, text in flag_values.items() if text is not None]
    kwargs: dict[str, object] = {}
    for key, text, parse, source in texts:
        try:
            kwargs[key] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{source}config key {key} = {text!r}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        # ExperimentConfig tests each field on its own, so a file value it refuses is refused alone too
        for key, text in file_values.items():
            try:
                ExperimentConfig(**{key: kwargs[key]})
            except ValueError as refusal:
                raise ValueError(f"{in_file}config key {key} = {text!r}: {refusal}") from exc
        raise


def config_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Config serialized as (key, value) text pairs; parses back to itself."""
    return [(key, render(getattr(config, key))) for key, (_, render) in _CONFIG_FIELDS.items()
            if getattr(config, key) is not None]


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
          row_type: str, tail_text: Iterable[str] = ()) -> None:
    """Write manifest and table rows (native, unformatted values), then stream
    ``tail_text``, pieces of finished, newline-terminated lines, as they are produced."""
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
        handle.writelines(tail_text)
        handle.flush()  # a closed reader fails here, inside main's try, not in the flush at exit


def _load_config(args) -> ExperimentConfig:
    file_values: dict[str, str] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                file_values = parse_config_text(handle.read())
            except UnicodeDecodeError as exc:
                raise ValueError(f"config file {args.config!r} is not UTF-8 text: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"config file {args.config!r}: {exc}") from exc
    return resolve_config(file_values, {key: getattr(args, key, None) for key in _CONFIG_FIELDS}, args.config)


def cmd_teleport(args) -> int:
    policy = POLICIES[args.correction]
    result = teleport.run_postselected(BeamState.from_direction(parse_beam_spec(args.beam)), policy)
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


#: Event lines joined into one string per write. A batch's line strings, its
#: text and the encoded copy add to peak RSS: 1.5 MB at 4096 lines, 3.2 MB at
#: 8192, which write no faster.
_EVENT_BATCH = 4096


def _event_text(records: Iterable[reaction.EventRecord], n_axes: int) -> Iterator[str]:
    """The records' JSON lines, joined in batches of ``_EVENT_BATCH`` lines.

    Each line is its event id followed by one of ``2 * n_axes * 2`` tails,
    built once and looked up as ``tails[accepted][axis_index][spin_outcome]``;
    entry 0 of the innermost list is unused, so spin -1 is its last entry.
    """
    tails = [[[None] + [f', "accepted": {accepted}, "axis_index": {axis}, "spin_outcome": {spin}}}\n'
                        for spin in (1, -1)]
              for axis in range(n_axes)]
             for accepted in ("false", "true")]
    lines = (f'{{"type": "event", "event_id": {r.event_id}{tails[r.accepted][r.axis_index][r.spin_outcome]}'
             for r in records)
    while batch := "".join(itertools.islice(lines, _EVENT_BATCH)):
        yield batch


def cmd_simulate(args) -> int:
    config = _load_config(args)
    estimates = reaction.simulate(config)
    header = ["axis_x", "axis_y", "axis_z", "p_hat", "sigma", "n_events"]
    rows = [
        [float(e.axis[0]), float(e.axis[1]), float(e.axis[2]), e.p_hat, e.sigma, e.n_events]
        for e in estimates
    ]
    # The estimates precede the events, so JSON lines draws the seeded stream
    # a second time and streams it in batches, instead of holding every event.
    event_text = () if args.format == "csv" else _event_text(
        reaction.event_records(config), len(config.analyzer_axes))
    _emit(args, _manifest("simulate", config_items(config)), header, rows,
          row_type="estimate", tail_text=event_text)
    return 0


_SCAN_BEAMS = ("x", "-x", "y", "-y", "z", "-z")
_BEAM_HELP = "beam axis (x|y|z, optional sign; write --beam=-x for negative axes) or 'theta,phi' in degrees"


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
    parser.add_argument("--beam", dest="beam_direction", help=_BEAM_HELP)
    parser.add_argument("--magnitude", dest="beam_magnitude", help="beam polarization magnitude in [0, 1]")
    parser.add_argument("--epsilon", help="contamination fraction of the selected sample")
    parser.add_argument("--kyy", dest="k_transfer", help="conventional y->y' polarization transfer coefficient")
    parser.add_argument("--target", help="target sublevel populations p+,p0,p-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinport", description="Spin-teleportation polarimetry toolkit")
    parser.add_argument("--version", action="version", version=f"spinport {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_teleport = subparsers.add_parser("teleport", help="run the post-selected protocol for one beam state")
    p_teleport.add_argument("--beam", required=True, help=_BEAM_HELP)
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
    p_simulate.add_argument("--events", help="number of events to generate")
    p_simulate.add_argument("--seed", help="random seed (required)")
    p_simulate.add_argument("--axes", dest="analyzer_axes", help="comma-separated analyzer axis names, e.g. x,y,z")
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
    except BrokenPipeError:  # 141 as the shell reports SIGPIPE; the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InvariantError as exc:
        print(f"spinport: numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except (SpinAlgebraError, ValueError, OSError) as exc:
        print(f"spinport: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
