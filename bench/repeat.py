"""Repeat the benchmark over seeds and summarize each metric.

Usage:
    python3 bench/repeat.py --seeds 1-10 --out bench/baseline.json
    python3 bench/repeat.py --seeds 1-5 --workload walk_long --trace 1

Runs ``bench/run.py`` once per workload and seed, each in a fresh process,
for the ``run_seconds`` of BENCHMARK.json.  Prints, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile range as a share of the median; ``--out`` also writes every
run's values and the provenance line to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=run.ROOT, check=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            report["provenance"] = json.loads(lines[0].removeprefix("# provenance "))
            runs.append(dict(seed=seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
                             metrics={k: v["value"] for k, v in result["metrics"].items()}))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "iqr_share": (q3 - q1) / median if median else None}
            if args.trace == 0:
                print(f"  {workload} {name}: median {median:.6g}, "
                      f"IQR/median {summary[name]['iqr_share']:.4f}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
