"""Workload child: imports spinport from the checkout, builds its inputs, runs one mode.

    python3 perfbench/child.py simulate WORKLOAD SEED OUT
    python3 perfbench/child.py protocol SEED FIRST_BEAM SECONDS
    python3 perfbench/child.py trace    WORKLOAD SEED TMPDIR

Every mode first writes ``ready`` on its own line once spinport is imported
and the inputs are built; the runner times set-up up to that line. The
``simulate`` mode then runs the ``spinport`` command, ``cli.main(argv)``, and
exits with its code. The ``protocol`` and ``trace`` modes write one JSON
object as their last line. The runner sets ``PYTHONPATH`` to the checkout's
``src``.
"""

from __future__ import annotations

import sys
import time

_start = time.perf_counter()
from spinport import cli, reaction, teleport  # noqa: E402  (timed: cli.import_s)

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
from collections import Counter  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, instrument, layer_self_s  # noqa: E402


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _check_import() -> None:
    origin = Path(cli.__file__).resolve()
    if wl.SRC.resolve() not in origin.parents:
        raise SystemExit(f"spinport imported from {origin}, not from {wl.SRC}")


def simulate(workload: str, seed: int, out: Path) -> int:
    """One ``spinport simulate`` invocation, as the command line would run it."""
    argv = wl.simulate_argv(workload, seed, out)
    _ready()
    return cli.main(argv)


def protocol(seed: int, first: int, seconds: float) -> dict:
    """Run beams ``first``, ``first + 1``, ... for ``seconds``: per-beam latency and failures.

    Beams run in blocks, with the reference kernel timed before the first
    block and after each one, so that ``reference_s`` has one entry more
    than ``latency_ns`` has blocks.
    """
    beams, seed_base = wl.build_beams(seed, wl.BEAM_POOL, teleport, reaction)
    _ready()
    clock = time.perf_counter_ns
    blocks, references, failed, i = [], [wl.reference_s()], 0, first
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        latencies = []
        block_end = min(clock() + int(wl.PROTOCOL_BLOCK_S * 1e9), deadline)
        while clock() < block_end:
            beam, config = beams[i % len(beams)]
            t0 = clock()
            try:
                results = wl.run_beam(beam, config, seed_base + i, teleport, reaction)
            except (ValueError, ArithmeticError):
                results = None
            latencies.append(clock() - t0)
            failed += results is None or not wl.beam_ok(results)
            i += 1
        blocks.append(latencies)
        references.append(wl.reference_s())
    return {"failed": failed, "latency_ns": blocks, "reference_s": references}


def _beam_loop(beams, first: int, stop: int, seed_base: int) -> tuple[float, int]:
    failed = 0
    start = time.perf_counter()
    for i in range(first, stop):
        beam, config = beams[i]
        try:
            failed += not wl.beam_ok(wl.run_beam(beam, config, seed_base + i, teleport, reaction))
        except (ValueError, ArithmeticError):
            failed += 1
    return time.perf_counter() - start, failed


def _cli_run(argv) -> tuple[float, int]:
    start = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - start, code


def _p50_us(spans, name: str) -> float:
    durations = [end - start for span_name, start, end, _ in spans if span_name == name]
    return wl.percentile(durations, 50) / 1e3 if durations else 0.0


def trace(workload: str, seed: int, tmp: Path) -> dict:
    """Per-layer metrics: untraced and traced halves of a protocol probe and one MC run."""
    beams, seed_base = wl.build_beams(seed, wl.TRACE_BEAMS, teleport, reaction)
    events, fmt = wl.MC_SIZE[workload]
    config = wl.mc_config(workload, seed, cli, reaction)
    plain_out, traced_out = tmp / f"plain.{fmt}", tmp / f"traced.{fmt}"
    _ready()

    # Untraced and traced blocks alternate, so a drift in machine speed
    # shows in both halves of the overhead rather than in its difference.
    tracer = Tracer()
    plain_beams_s = traced_beams_s = 0.0
    failed = 0
    n = len(beams)
    for block in range(wl.TRACE_BLOCKS):
        first, stop = block * n // wl.TRACE_BLOCKS, (block + 1) * n // wl.TRACE_BLOCKS
        elapsed, block_failed = _beam_loop(beams, first, stop, seed_base)
        plain_beams_s += elapsed
        failed += block_failed
        with tracer:
            instrument(tracer)
            elapsed, block_failed = _beam_loop(beams, first, stop, seed_base)
        traced_beams_s += elapsed
        failed += block_failed
    beam_spans = len(tracer.spans)

    start = time.perf_counter()
    reaction.simulate(config)
    simulate_s = time.perf_counter() - start
    tracemalloc.start()
    try:
        reaction.simulate(config)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plain_cli_s, plain_code = _cli_run(wl.simulate_argv(workload, seed, plain_out))

    with tracer:
        instrument(tracer)
        traced_cli_s, traced_code = _cli_run(wl.simulate_argv(workload, seed, traced_out))

    plain_bytes = plain_out.read_bytes() if plain_code == 0 else b""
    traced_bytes = traced_out.read_bytes() if traced_code == 0 else None
    problems = wl.check_mc_output(plain_bytes, workload, seed, cli, reaction)
    cli_failed = bool(problems) + (traced_bytes != plain_bytes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    spans = tracer.spans
    protocol_spans = spans[:beam_spans]
    calls = Counter(name for name, *_ in protocol_spans)
    self_s = layer_self_s(spans)
    metrics = {
        "spinalg.self_s": self_s["spinalg"],
        "spinalg.ket_constructions_per_beam": calls["spinalg.Ket"] / n,
        "spinalg.tensor_us_p50": _p50_us(protocol_spans, "spinalg.tensor"),
        "spinalg.apply_us_p50": _p50_us(protocol_spans, "spinalg.apply"),
        "bellkit.self_s": self_s["bellkit"],
        "bellkit.decompose_12_calls_per_beam": calls["bellkit.decompose_12"] / n,
        "bellkit.decompose_12_us_p50": _p50_us(protocol_spans, "bellkit.decompose_12"),
        "teleport.self_s": self_s["teleport"],
        "teleport.run_postselected_us_p50": _p50_us(protocol_spans, "teleport.run_postselected"),
        "teleport.run_sampled_us_p50": _p50_us(protocol_spans, "teleport.run_sampled"),
        "teleport.fidelity_calls_per_beam": calls["teleport.fidelity"] / n,
        "reaction.simulate_s": simulate_s,
        "reaction.simulate_ns_per_event": simulate_s / events * 1e9,
        "reaction.records_per_event": tracer.counts["reaction.EventRecord"] / events,
        "reaction.simulate_peak_alloc_mb": peak_alloc / 2**20,
        "reaction.predict_us_p50": _p50_us(protocol_spans, "reaction.predict"),
        "cli.self_s": self_s["cli"],
        "cli.out_bytes": len(plain_bytes),
        "cli.import_s": IMPORT_S,
        "trace.protocol_overhead_us_per_beam": (traced_beams_s - plain_beams_s) / n * 1e6,
        "trace.cli_overhead_s": traced_cli_s - plain_cli_s,
    }
    return {
        "attempted": 2 * n + 2,
        "failed": failed + cli_failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> None:
    _check_import()
    mode = argv[0]
    if mode == "simulate":
        sys.exit(simulate(argv[1], int(argv[2]), Path(argv[3])))
    if mode == "protocol":
        result = protocol(int(argv[1]), int(argv[2]), float(argv[3]))
    elif mode == "trace":
        result = trace(argv[1], int(argv[2]), Path(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
