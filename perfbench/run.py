"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload {mc_csv,mc_jsonl,protocol} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it measures the ``spinport`` under
``src/`` next to this directory. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run. It prints one ``name value unit`` line per metric, a line of
machine facts, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It exits 1 when a
correctness check fails and 2 when it cannot run at all.

Every timing of an end-to-end run is scaled to the host's uncontended
speed by a reference kernel timed next to it (``workloads.reference_s``).
One child process runs at a time and the runner itself starts no threads.
Peak RSS is read per child with ``os.wait4``; ``RUSAGE_CHILDREN`` would
report the high-water mark of every child so far.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

CHILD = Path(__file__).resolve().parent / "child.py"


def listed_metrics(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run reports, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BenchError(RuntimeError):
    """The run cannot produce a result (spinport missing, a child crashed)."""


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(wl.SRC)}


def _reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` and return its own peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def _spawn_child(*args: str) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its ``ready`` line; return it and its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, env=_env())
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line != b"ready\n":
        proc.stdout.close()
        _reap(proc)
        raise BenchError(f"child {args[0]} exited with code {proc.returncode} before it was ready")
    return proc, setup_s


def _finish_child(proc: subprocess.Popen) -> tuple[dict, float]:
    """Read a child's JSON result line, wait for it; return the result and its peak RSS."""
    lines = proc.stdout.read().decode().splitlines()
    proc.stdout.close()
    rss_mb = _reap(proc)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with code {proc.returncode} without a result")
    return json.loads(lines[-1]), rss_mb


def run_simulate(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Until time is up: one child per ``spinport simulate`` invocation.

    A child's time from spawn to ``ready`` is a ``setup_s`` sample, and its
    time from ``ready`` until it has been reaped is the invocation's time.
    Both are scaled by the reference kernel timed before and after the child.
    The first invocation of a run is checked but not timed: in five trial
    runs it took 1.0x to 1.6x the median time of the others.
    """
    events, fmt = wl.MC_SIZE[workload]
    out = tmp / f"simulate.{fmt}"
    setups, walls, raw_walls, rss, cycles = [], [], [], [], []
    failed, reference, first_output = 0, None, None
    references = [wl.reference_s()]
    loop_start = time.perf_counter()
    while len(walls) < wl.MIN_INVOCATIONS or (
        time.perf_counter() - loop_start + statistics.median(cycles) <= seconds
    ):
        cycle_start = time.perf_counter()
        out.unlink(missing_ok=True)
        proc, setup_s = _spawn_child("simulate", workload, str(seed), str(out))
        start = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        rss.append(_reap(proc))
        raw_walls.append(time.perf_counter() - start)
        references.append(wl.reference_s())
        cycles.append(time.perf_counter() - cycle_start)
        speed = wl.scale(references[-2], references[-1])
        walls.append(raw_walls[-1] * speed)
        setups.append(setup_s * speed)
        if proc.returncode != 0 or not out.exists():
            failed += 1
            continue
        data = out.read_bytes()
        digest = hashlib.sha256(data).digest()
        if reference is None:
            reference, first_output = digest, data
        elif digest != reference:
            print(f"check failed: invocation {len(walls)} output differs from the first", file=sys.stderr)
            failed += 1
    out.unlink(missing_ok=True)

    if first_output is not None:
        sys.path.insert(0, str(wl.SRC))
        from spinport import cli, reaction

        problems = wl.check_mc_output(first_output, workload, seed, cli, reaction)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            failed = len(walls)
    return {"attempted": len(walls), "failed": failed, "items_per_op": events, "setup_s": setups[1:],
            "op_s": walls[1:], "raw_op_s": raw_walls[1:], "reference_s": references, "rss_mb": rss}


def run_protocol(seed: int, seconds: float) -> dict:
    """Until time is up: one child that sets up, then runs beams for a fixed segment.

    Each child's own set-up is a ``setup_s`` sample, scaled by the reference
    kernel the child times right after it; each block of beams is scaled by
    the kernel timed before and after the block. Beam indices and sampling
    seeds continue from one child to the next.
    """
    setups, raw_setups, latencies, raw_latencies, references, rss, failed = [], [], [], [], [], [], 0
    loop_start = time.perf_counter()
    while not setups or (
        time.perf_counter() - loop_start + statistics.median(raw_setups) + wl.PROTOCOL_SEGMENT_S <= seconds
    ):
        proc, setup_s = _spawn_child("protocol", str(seed), str(len(latencies)), str(wl.PROTOCOL_SEGMENT_S))
        result, rss_mb = _finish_child(proc)
        child_references = result["reference_s"]
        raw_setups.append(setup_s)
        setups.append(setup_s * wl.scale(child_references[0], child_references[0]))
        rss.append(rss_mb)
        for block, before, after in zip(result["latency_ns"], child_references, child_references[1:]):
            speed = wl.scale(before, after)
            raw_latencies.extend(ns / 1e9 for ns in block)
            latencies.extend(ns / 1e9 * speed for ns in block)
        references.extend(child_references)
        failed += result["failed"]
    return {"attempted": len(latencies), "failed": failed, "items_per_op": 1, "setup_s": setups,
            "op_s": latencies, "raw_op_s": raw_latencies, "reference_s": references, "rss_mb": rss}


def end_to_end(run: dict) -> dict[str, float]:
    """The end-to-end metrics of one run from its scaled samples.

    The latency is the median: an MC run holds too few invocations for a
    tail percentile with ten samples beyond it.
    """
    op_s = run["op_s"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "items_per_s": run["items_per_op"] * len(op_s) / sum(op_s),
        "latency_ms_p50": statistics.median(op_s) * 1e3,
        "peak_rss_mb": statistics.median(run["rss_mb"]),
    }


def _git_commit(root: Path) -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(load_average: tuple[float, float, float]) -> dict:
    """Facts recorded next to every result; ``src_lines`` is information, not a metric."""
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "load_average_at_start": load_average,
        "git_commit": _git_commit(wl.ROOT),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(wl.SRC.rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_average = os.getloadavg()

    if not (wl.SRC / "spinport" / "__init__.py").is_file():
        print(f"perfbench: no spinport package under {wl.SRC}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=wl.ROOT) as tmp:
            if args.trace:
                proc, _ = _spawn_child("trace", args.workload, str(args.seed), tmp)
                result, _ = _finish_child(proc)
            elif args.workload == "protocol":
                result = run_protocol(args.seed, args.seconds)
            else:
                result = run_simulate(args.workload, args.seed, args.seconds, Path(tmp))
            if not args.trace:
                result["metrics"] = end_to_end(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = listed_metrics(args.trace)
    if set(result["metrics"]) != set(units):
        print(f"perfbench: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    for name, unit in units.items():
        print(f"{args.workload:9} {name:38} {result['metrics'][name]:>16.6g} {unit}")
    if not args.trace:
        raw_op_s = result["raw_op_s"]
        print(f"{args.workload:9} {'samples':38} {len(raw_op_s):>16d} count")
        for q in (90, 99):
            print(f"{args.workload:9} {f'latency_ms_p{q} (information)':38} "
                  f"{wl.percentile(result['op_s'], q) * 1e3:>16.6g} ms")
        print(f"{args.workload:9} {'items_per_s unscaled (information)':38} "
              f"{result['items_per_op'] * len(raw_op_s) / sum(raw_op_s):>16.6g} 1/s")
        print(f"{args.workload:9} {'reference_ms (information)':38} "
              f"{statistics.median(result['reference_s']) * 1e3:>16.6g} ms")
    print(f"{args.workload:9} {'error_rate':38} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"facts": machine_facts(load_average)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
