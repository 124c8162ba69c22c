"""Workload definitions: sizes, inputs generated from the seed, and output checks.

Shared by the runner (``run.py``) and the workload child (``child.py``).
Importing this module imports neither spinport nor numpy; functions that
need spinport take its modules as arguments.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("mc_csv", "mc_jsonl", "protocol")

#: Events and output format of each Monte Carlo workload. ``protocol`` runs
#: no Monte Carlo; its traced run measures the MC layers at the small size
#: given here so that every traced run reports every layer.
MC_SIZE = {
    "mc_csv": (500_000, "csv"),
    "mc_jsonl": (200_000, "jsonl"),
    "protocol": (100_000, "csv"),
}

#: Seconds of beams per protocol child; a run starts children until its time is up.
PROTOCOL_SEGMENT_S = 2.0
#: A protocol child times the reference kernel between blocks of this many seconds of beams.
PROTOCOL_BLOCK_S = 1.0
#: Seconds one pass of the ``reference_s`` kernel takes on the 2-core virtual
#: machine of the committed baseline when its host is not contended.
REFERENCE_S = 0.019
#: ``reference_s`` keeps the fastest of this many passes, which drops a pass
#: that an interrupt happened to slow.
REFERENCE_PASSES = 3
#: The byte-identity check needs repeats, so a run makes at least this many invocations.
MIN_INVOCATIONS = 3
#: Beam states the protocol loop cycles through.
BEAM_POOL = 1024
#: Beams in each half (untraced, traced) of a traced run.
TRACE_BEAMS = 500
#: Untraced and traced halves of the protocol probe alternate in this many blocks.
TRACE_BLOCKS = 10

SIGMA_LIMIT = 5.0
PROBABILITY_TOL = 1e-12
FIDELITY_TOL = 1e-10


def mc_inputs(seed: int) -> dict[str, object]:
    """Beam direction, polarization, contamination and simulation seed drawn from ``seed``."""
    rng = random.Random(seed)
    theta = math.degrees(math.acos(rng.uniform(-1.0, 1.0)))
    phi = rng.uniform(-180.0, 180.0)
    return {
        "beam": f"{theta!r},{phi!r}",
        "magnitude": rng.uniform(0.5, 1.0),
        "epsilon": rng.uniform(0.0, 0.1),
        "kyy": rng.uniform(-0.2, 0.2),
        "seed": rng.randrange(2**32),
    }


def simulate_argv(workload: str, seed: int, out: Path) -> list[str]:
    """``spinport`` arguments of one Monte Carlo invocation."""
    events, fmt = MC_SIZE[workload]
    inputs = mc_inputs(seed)
    return [
        "simulate",
        f"--seed={inputs['seed']}",
        f"--events={events}",
        f"--beam={inputs['beam']}",
        f"--magnitude={inputs['magnitude']!r}",
        f"--epsilon={inputs['epsilon']!r}",
        f"--kyy={inputs['kyy']!r}",
        "--axes=x,y,z",
        f"--format={fmt}",
        f"--out={out}",
    ]


def mc_config(workload: str, seed: int, cli, reaction):
    """The ``ExperimentConfig`` that ``simulate_argv`` asks the command for."""
    events, _ = MC_SIZE[workload]
    inputs = mc_inputs(seed)
    return reaction.ExperimentConfig(
        beam_direction=cli.parse_beam_spec(inputs["beam"]),
        beam_magnitude=inputs["magnitude"],
        epsilon=inputs["epsilon"],
        k_transfer=inputs["kyy"],
        events=events,
        seed=inputs["seed"],
    )


def check_mc_output(data: bytes, workload: str, seed: int, cli, reaction) -> list[str]:
    """Problems found in one ``simulate`` output; an empty list means correct.

    Each axis estimate must lie within 5 sigma of the analytic prediction
    projected on that axis, the accepted events must total N/4 within
    5 sigma, and JSON-lines output must hold exactly N event lines.
    """
    events, fmt = MC_SIZE[workload]
    lines = data.decode().splitlines()
    if not lines:
        return ["no output"]
    if fmt == "csv":
        table = [line.split(",") for line in lines if not line.startswith("#")]
        header, rows = table[0], table[1:]
        estimates = [dict(zip(header, row)) for row in rows]
        problems = []
    else:
        records = [json.loads(line) for line in lines if '"type": "event"' not in line]
        estimates = [r for r in records if r.get("type") == "estimate"]
        event_lines = len(lines) - len(records)
        problems = [] if event_lines == events else [f"{event_lines} event lines, expected {events}"]
    qt = reaction.predict(mc_config(workload, seed, cli, reaction)).qt_bloch
    expected_bloch = (qt.px, qt.py, qt.pz)
    if len(estimates) != 3:
        return problems + [f"{len(estimates)} estimates, expected 3"]
    accepted = 0
    for row in estimates:
        axis = [float(row[k]) for k in ("axis_x", "axis_y", "axis_z")]
        n = int(row["n_events"])
        accepted += n
        expected = sum(a * b for a, b in zip(axis, expected_bloch))
        sigma = math.sqrt(max(1.0 - expected**2, 1e-12) / max(n, 1))
        p_hat = float(row["p_hat"])
        if not abs(p_hat - expected) <= SIGMA_LIMIT * sigma:
            problems.append(f"axis {axis}: p_hat {p_hat} vs prediction {expected} (sigma {sigma})")
    sigma_accepted = math.sqrt(events * 0.25 * 0.75)
    if not abs(accepted - events / 4) <= SIGMA_LIMIT * sigma_accepted:
        problems.append(f"{accepted} accepted events, expected {events / 4} +- {SIGMA_LIMIT} sigma")
    return problems


def protocol_inputs(seed: int, count: int) -> tuple[list[tuple[float, float, float]], int]:
    """``count`` random unit beam directions and a base for the per-beam sampling seeds."""
    rng = random.Random(seed)
    directions = []
    while len(directions) < count:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-6:
            directions.append(tuple(c / norm for c in v))
    return directions, rng.randrange(2**62)


def build_beams(seed: int, count: int, teleport, reaction) -> tuple[list, int]:
    """Beam states and prediction configs for the protocol loop."""
    directions, seed_base = protocol_inputs(seed, count)
    beams = [
        (teleport.BeamState.from_direction(d), reaction.ExperimentConfig(beam_direction=d))
        for d in directions
    ]
    return beams, seed_base


def run_beam(beam, config, sample_seed: int, teleport, reaction) -> tuple:
    """One beam of the protocol workload; modules are looked up per call so wrappers apply."""
    return (
        teleport.run_postselected(beam, teleport.NO_CORRECTION),
        teleport.run_postselected(beam, teleport.SIGMA_Z),
        teleport.run_postselected(beam, teleport.RY_PI),
        teleport.run_sampled(beam, teleport.SIGMA_Z, sample_seed),
        reaction.predict(config),
    )


def beam_ok(results: tuple) -> bool:
    """Every run has probability 1/4 and the sigma_z correction is exact."""
    none, sigma_z, ry_pi, sampled, _prediction = results
    return all(
        abs(r.probability - 0.25) <= PROBABILITY_TOL for r in (none, sigma_z, ry_pi, sampled)
    ) and abs(sigma_z.fidelity_post - 1.0) <= FIDELITY_TOL


def reference_s() -> float:
    """Wall time of a fixed kernel that uses neither spinport nor numpy.

    The host of the baseline runs the same work up to 2x slower in phases
    that last from seconds to tens of minutes. CPU time slows just as much,
    so the cause is contention for the processor, not time stolen by the
    hypervisor, and this kernel slows by about the same factor as the
    workloads. Each timing is scaled by ``scale`` of the kernel times
    measured right before and after it.
    """
    passes = []
    for _ in range(REFERENCE_PASSES):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        # Short lists, so that the kernel adds little to a child's peak RSS.
        for first in range(0, 10_000, 1_000):
            json.dumps([{"i": i, "x": i * 0.5, "s": str(i)} for i in range(first, first + 1_000)])
        passes.append(time.perf_counter() - start)
    return min(passes)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference timings into one at ``REFERENCE_S``."""
    return 2 * REFERENCE_S / (before + after)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating between samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]
