"""Command-line front end: teleport, predict, simulate and scan subcommands.

Outputs are deterministic and machine readable. Every output starts with a
run manifest (``# key = value`` lines for CSV, a manifest object for JSON
lines) carrying the subcommand, tool version and the fully resolved
parameters, so any run can be reproduced from its own output.

Exit codes: 0 success, 1 invalid input or configuration, 2 a numerical
invariant was violated at runtime, 141 the reader closed the output. A JSON-lines
``simulate`` of two or more event chunks, where the process may run on two or
more CPUs, forks one worker that formats every other chunk; a worker that ends
early or exits nonzero is an error naming its status, exit 1.
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
import json
import os
import signal
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__, reaction, teleport
from .reaction import AXIS_VECTORS, ExperimentConfig, TargetSpec
from .spinalg import InvariantError, bloch_from, density_from, unit_vector
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


#: Every axis name the command line reads after ``strip()``: each of ``reaction.AXIS_VECTORS`` bare, with "+" and
#: with "-", as a read-only direction. "-" negates every component, so "-x" is (-1.0, -0.0, -0.0).
_AXES = {sign_text + name: unit_vector(sign * np.array(vector), name) for name, vector in AXIS_VECTORS.items()
         for sign_text, sign in (("", 1.0), ("+", 1.0), ("-", -1.0))}

#: The canonical names, without "+": the labels ``beam_label`` gives and the beams ``scan`` runs, in table order.
_AXIS_LABELS = tuple(name for name in _AXES if not name.startswith("+"))


def _numbers(text: str, n: int, refusal: str) -> np.ndarray:
    """Exactly ``n`` comma-separated numbers; ``refusal`` is the error for any other count."""
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(refusal)
    return np.array([float(p) for p in parts])


def parse_beam_spec(text: str) -> np.ndarray:
    """Beam direction from an axis name (x|y|z, optional sign) or "theta,phi" degrees."""
    if (axis := _AXES.get(text.strip())) is not None:
        return axis.copy()
    angles = _numbers(text, 2, f"beam spec {text!r} is neither an axis name nor 'theta,phi' in degrees")
    if not np.isfinite(angles).all():
        raise ValueError(f"beam_direction angles {text!r} must be finite degrees")
    theta, phi = np.radians(angles)
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def _parse_vector3(text: str, what: str) -> np.ndarray:
    return _numbers(text, 3, f"{what} must be three comma-separated numbers, got {text!r}")


def _parse_axis_or_vector(text: str, what: str) -> np.ndarray:
    axis = _AXES.get(text.strip())
    return _parse_vector3(text, what) if axis is None else axis


def _parse_axes_flag(text: str) -> tuple[np.ndarray, ...]:
    axes = []
    for token in text.split(","):
        if (axis := _AXES.get(token.strip())) is None:
            raise ValueError(f"--axes takes axis names like x,y,z; got {token!r}")
        axes.append(axis)
    return tuple(axes)


def beam_label(direction: np.ndarray) -> str:
    """Axis name when the direction is axis-aligned, else "theta,phi" in degrees."""
    for name in _AXIS_LABELS:
        if np.allclose(direction, _AXES[name], atol=1e-9):
            return name
    theta = np.degrees(np.arctan2(np.hypot(direction[0], direction[1]), direction[2]))
    phi = np.degrees(np.arctan2(direction[1], direction[0]))
    return f"{_fmt(theta)},{_fmt(phi)}"


def _floats(values) -> str:
    return ",".join(_exact(c) for c in values)


class _Key(NamedTuple):
    flag: str | None
    help: str | None
    parse: Callable[[str], object]
    render: Callable[[object], str]
    flag_parse: Callable[[str], object] | None = None
    simulate_only: bool = False


_BEAM_HELP = "beam axis (x|y|z, optional sign; write --beam=-x for negative axes) or 'theta,phi' in degrees"

#: Every ``ExperimentConfig`` key, in field order, which is also the manifest's order: its flag (None for
#: none), the flag's help, how its config-file text parses, how its manifest value renders (the rendering
#: parses back), how its flag text parses where that grammar differs, and whether only ``simulate`` takes it.
_CONFIG_FIELDS = {
    "beam_direction": _Key("--beam", _BEAM_HELP, lambda text: _parse_axis_or_vector(text, "beam_direction"),
                           _floats, parse_beam_spec),
    "beam_magnitude": _Key("--magnitude", "beam polarization magnitude in [0, 1]", float, _exact),
    "epsilon": _Key("--epsilon", "contamination fraction of the selected sample", float, _exact),
    "k_transfer": _Key("--kyy", "conventional y->y' polarization transfer coefficient", float, _exact),
    "target": _Key("--target", "target sublevel populations p+,p0,p-",
                   lambda text: TargetSpec(*_parse_vector3(text, "target populations p+,p0,p-")),
                   lambda t: _floats((t.p_plus, t.p_zero, t.p_minus))),
    "events": _Key("--events", "number of events to generate", int, str, simulate_only=True),
    "seed": _Key("--seed", "random seed (required)", int, str, simulate_only=True),
    "beam_energy_mev": _Key(None, None, float, _exact),
    "analyzer_axes": _Key(
        "--axes", "comma-separated analyzer axis names, e.g. x,y,z",
        lambda text: tuple(_parse_axis_or_vector(token, "analyzer axis") for token in text.split(";")),
        lambda axes: ";".join(map(_floats, axes)), _parse_axes_flag, simulate_only=True,
    ),
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

    Only the values that win are parsed, in field order: a file value whose
    flag is given is never read. The first text that does not parse, else the
    first value ``ExperimentConfig`` refuses, names its key and text, and
    ``file_name`` when it came from the file; a flag value refused after it
    parsed keeps the bare message.
    """
    in_file = "" if file_name is None else f"config file {file_name!r}: "
    kwargs: dict[str, object] = {}
    for key, field in _CONFIG_FIELDS.items():
        if flag_values.get(key) is not None:
            text, parse, source = flag_values[key], field.flag_parse or field.parse, ""
        elif key in file_values:
            text, parse, source = file_values[key], field.parse, in_file
        else:
            continue
        try:
            kwargs[key] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{source}config key {key} = {text!r}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        if flag_values.get(exc.key) is None:
            raise ValueError(f"{in_file}config key {exc.key} = {file_values[exc.key]!r}: {exc}") from exc
        raise


def config_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Config serialized as (key, value) text pairs; parses back to itself."""
    return [(key, field.render(value)) for key, field in _CONFIG_FIELDS.items()
            if (value := getattr(config, key)) is not None]


def _manifest(subcommand: str, params: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [("subcommand", subcommand), ("version", __version__)] + params


def _cell(value) -> str:
    """One CSV cell; text holding a comma, a quote or a line break is quoted, inner quotes doubled (RFC 4180)."""
    text = _fmt(value) if isinstance(value, float) else str(value)
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    with open(args.out, "w", newline="") if args.out is not None else contextlib.nullcontext(sys.stdout) as handle:
        handle.writelines(line + "\n" for line in lines)
        handle.writelines(tail_text)
        handle.flush()  # a closed reader fails here, inside main's try, not in the flush at exit


def _load_config(args) -> ExperimentConfig:
    file_values: dict[str, str] = {}
    if args.config is not None:  # an empty --config= is refused as a missing file, not read as no file
        with open(args.config, encoding="utf-8-sig") as handle:  # a byte-order mark is read as UTF-8's, not as text
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


#: Events per JSON-lines chunk: drawn together, formatted into one string and
#: written at once; the draw's bits do not depend on it. A chunk's line strings,
#: its text and the encoded copy add to peak RSS: 1.5 MB at 4096 events, 3.2 MB
#: at 8192, which write no faster.
_EVENT_BATCH = 4096


def _chunk_text(records: Iterable[reaction.EventRecord], tails: list) -> str:
    """One chunk's records as JSON lines, joined into one string: each line is its event id and its tail."""
    return "".join([f'{{"type": "event", "event_id": {r.event_id}{tails[r.accepted][r.axis_index][r.spin_outcome]}'
                    for r in records])


def _chunk_texts(config: ExperimentConfig, first: int, step: int) -> Iterator[str]:
    """The text of chunks ``first``, ``first + step``, ...; only those chunks are drawn.

    Each line is its event id followed by one of ``2 * n_axes * 2`` tails,
    built once and looked up as ``tails[accepted][axis_index][spin_outcome]``;
    entry 0 of the innermost list is unused, so spin -1 is its last entry.
    """
    tails = [[[None] + [f', "accepted": {accepted}, "axis_index": {axis}, "spin_outcome": {spin}}}\n'
                        for spin in (1, -1)]
              for axis in range(len(config.analyzer_axes))]
             for accepted in ("false", "true")]
    for records in reaction._record_chunks(config, _EVENT_BATCH, first, step):
        yield _chunk_text(records, tails)


class _Worker:
    """A forked copy of this process that formats chunks 1, 3, 5, ... of the run's events and sends each chunk's
    text through a pipe, after its length in 8 little-endian bytes; pipe backpressure keeps about one chunk in
    flight. The worker runs only that loop and leaves through ``os._exit``, so no atexit handler runs, no
    inherited buffer is flushed and nothing goes to stderr; once its reader is gone it ends at its next write."""

    def __init__(self, pid: int, pipe) -> None:
        self.pid, self.pipe = pid, pipe

    @classmethod
    def fork(cls, config: ExperimentConfig) -> "_Worker | None":
        """The running worker; None where there is no ``os.fork`` or ``os.sched_getaffinity``, where this
        process may run on fewer than two CPUs, or when ``os.fork`` raises ``OSError``."""
        if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            return None
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    for text in _chunk_texts(config, 1, 2):
                        data = text.encode()
                        pipe.write(len(data).to_bytes(8, "little"))
                        pipe.write(data)
                        pipe.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def receive(self) -> str:
        """The worker's next chunk; an ``OSError`` naming its status when it ended before sending it whole."""
        header = self.pipe.read(8)
        size = int.from_bytes(header, "little")
        data = self.pipe.read(size) if len(header) == 8 else b""
        if len(header) < 8 or len(data) < size:
            raise OSError(f"the JSON-lines worker process ended early, with status {self.reap()}")
        return data.decode()

    def reap(self) -> int:
        """Close the pipe and wait for the worker: its exit status, or minus the signal that ended it."""
        self.pipe.close()
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def kill(self) -> None:
        """End and reap the worker, unless it is reaped already."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self.reap()


def _event_text(config: ExperimentConfig) -> Iterator[str]:
    """Each ``_EVENT_BATCH``-event chunk of the run's events as one string of JSON lines, in order.

    With two or more chunks, and where ``_Worker.fork`` can start one, a worker draws and formats the odd chunks
    while this process draws and formats the even ones; otherwise this process formats every chunk in one loop.
    The worker is reaped however the generator ends: the normal end waits for it and raises ``OSError`` if
    it exited nonzero, any other end kills it first.
    """
    chunks = -(-config.events // _EVENT_BATCH)
    worker = _Worker.fork(config) if chunks > 1 else None
    step = 1 if worker is None else 2
    try:
        own = _chunk_texts(config, 0, step)
        for index in range(chunks):
            yield next(own) if index % step == 0 else worker.receive()
        if worker is not None and (status := worker.reap()) != 0:
            raise OSError(f"the JSON-lines worker process ended with status {status}")
    finally:
        if worker is not None:
            worker.kill()


def cmd_simulate(args) -> int:
    config = _load_config(args)
    estimates = reaction.simulate(config)
    header = ["axis_x", "axis_y", "axis_z", "p_hat", "sigma", "n_events"]
    rows = [
        [float(e.axis[0]), float(e.axis[1]), float(e.axis[2]), e.p_hat, e.sigma, e.n_events]
        for e in estimates
    ]
    # The estimates precede the events, so JSON lines draws the seeded stream a second
    # time, in _EVENT_BATCH-event chunks written one at a time, instead of holding every event.
    # Closing the generator on every way out of _emit reaps its worker; CSV never starts it.
    with contextlib.closing(_event_text(config)) as event_text:
        _emit(args, _manifest("simulate", config_items(config)), header, rows,
              row_type="estimate", tail_text=() if args.format == "csv" else event_text)
    return 0


def cmd_scan(args) -> int:
    header = ["beam_axis", "policy", "probability", "fidelity_pre", "fidelity_post"]
    rows = []
    for beam_name in _AXIS_LABELS:
        state = BeamState.from_direction(_AXES[beam_name])
        for policy in POLICIES.values():
            result = teleport.run_postselected(state, policy)
            rows.append([beam_name, policy.name, result.probability,
                         result.fidelity_pre, result.fidelity_post])
    _emit(args, _manifest("scan", []), header, rows, row_type="scan")
    return 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: standard output)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="output format")


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

    for name, help_text, func in (("predict", "analytic neutron-polarization predictions", cmd_predict),
                                  ("simulate", "Monte Carlo event sample and polarimetry estimates", cmd_simulate)):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key = value config file")
        for key, field in _CONFIG_FIELDS.items():
            if field.flag and (name == "simulate" or not field.simulate_only):
                sub.add_argument(field.flag, dest=key, help=field.help)
        _add_output_flags(sub)
        sub.set_defaults(func=func)

    p_scan = subparsers.add_parser("scan", help="correction-policy fidelity scan over the six beam axes")
    _add_output_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # 141 as the shell reports SIGPIPE; the flush at exit then writes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InvariantError as exc:
        print(f"spinport: numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"spinport: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
