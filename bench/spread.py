"""Run the benchmark once per seed and summarise each metric across runs.

    python3 bench/spread.py --workload contested --seeds 1-10 [--trace 0|1] [--json OUT]

Runs ``bench/run.py`` for each seed in turn (never two at once) with
``run_seconds`` from ``BENCHMARK.json``, then prints, per metric, the median
and quartiles of the per-run values and the spread: the distance between the
quartiles as a share of the median, which is what the metric's ``bound`` in
``BENCHMARK.json`` is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)
    out = {}
    for name, metric in runs[0]["metrics"].items():
        out[name] = summary([r["metrics"][name]["value"] for r in runs])
        s = out[name]
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound:.2f}" + \
            (" OVER A THIRD" if s["spread"] > bound / 3 else "")
        print(f"{name:50s} {s['median']:14.4f} {metric['unit']:10s} "
              f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f} {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "metrics": out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
