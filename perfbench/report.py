"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 1,2,3 [--seconds S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, for
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` is given, and prints
each metric by name with its unit: the median over the seeds and the
spread, that is the distance between the first and third quartiles as a
share of the median. With ``--out`` it also writes every run, the summary
and the machine facts as JSON. Exits 1 when any run fails or any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict | None]:
    """One ``run.py`` invocation; returns its result and facts, or ``None`` when it printed none."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        return None, None
    facts = next((json.loads(line)["facts"] for line in lines if line.startswith('{"facts"')), None)
    return json.loads(lines[-1]), facts


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    ok, runs, facts, summary = True, [], None, {}
    for workload in wl.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result, run_facts = run_once(workload, seed, args.seconds, args.trace)
            facts = facts or run_facts
            runs.append({"workload": workload, "seed": seed, "trace": args.trace, "result": result})
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED {result and (result['failed'], result['attempted'])}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:9} {name:38} {s['median']:>14.6g} {s['unit']:6} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(
            {"facts": facts, "seconds": args.seconds, "seeds": seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
