"""trapwalk benchmark: one seeded workload per fresh child process.

Usage:
    python3 bench/run.py --workload classify_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--workload all`` (the default) runs every workload in turn, and
``--tiny`` shrinks every input so that a run takes seconds.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed, with
``--trace 1`` its per-layer metrics.  Each metric goes on its own line with
its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_build")
SETUP_RUNS = 9  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion; its set-up time is measured from spawn."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec['workload']}-", dir=WORK_ROOT)
    argv = [sys.executable, CHILD, json.dumps(dict(spec, workdir=workdir))]
    try:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{spec['workload']} child exceeded the time limit") from None
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']} child exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def layer_values(traced: dict) -> dict:
    """Per-layer values from the traced child's spans and counters."""
    layers, counters = traced["layers"], traced["counters"]
    ops = traced["ops"]  # operations of the traced passes only
    values = {
        "setup.import_s": traced["import_s"],
        "setup.inputs_s": traced["inputs_s"],
        "trace.ops_per_s": traced["ops_per_s"],
        "trace.untraced_ops_per_s": traced["untraced_ops_per_s"],
        "trace.overhead_frac": 1.0 - traced["ops_per_s"] / traced["untraced_ops_per_s"],
        "check.trapped_weight_gap_max": traced["worst_gap"],
    }
    for name, span in layers.items():
        layer = name.split(".")[0]
        values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + span["calls"]
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + span["self_s"]
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
        values[f"{name}.per_op"] = span["calls"] / ops
    for name in ("walk.step.bytes_computed", "walk.step.occupied_frac",
                 "walk.write_distribution_csv.rows"):
        values[name] = counters.get(name, 0)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, inject_bad: int = 0) -> tuple[dict, dict]:
    """One benchmark run: returns (result line, extra information)."""
    bench = load_spec()
    deadline = time.monotonic() + DEADLINE_S
    base = dict(workload=workload, seed=seed, tiny=tiny, inject_bad=inject_bad,
                trace=False, setup_only=False)
    if trace:  # fixed work, not ``seconds``: see child._traced_phase
        main = spawn(dict(base, seconds=seconds, trace=True), deadline)
        values = layer_values(main)
        wanted = bench["per_layer"]
    else:
        setups = [spawn(dict(base, seconds=0, setup_only=True), deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        main = spawn(dict(base, seconds=seconds), deadline)
        setups.append(main["setup_s"])
        values = {"ops_per_s": main["ops_per_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    info = {key: main[key] for key in ("rates", "timed_s", "errors", "numpy", "blas")}
    if not trace:
        info["setups_s"] = setups
    info["failed_frac"] = main["failed"] / main["attempted"]
    return result, info


def provenance() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    caches = {}
    try:
        done = subprocess.run(["lscpu"], capture_output=True, text=True, check=False,
                              env=dict(os.environ, LC_ALL="C"))
        for line in done.stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip().endswith("cache"):
                caches[key.strip()] = value.strip()
    except OSError:
        pass
    return {"commit": commit, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "caches": caches}


def main(argv=None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]] \
        if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else []
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test (bench/smoke.py)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trapwalk", "__init__.py")):
        print(f"error: no trapwalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print(f"# provenance {json.dumps(provenance())}")
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result, info = measure(workload, args.seed, args.seconds, bool(args.trace),
                                   tiny=args.tiny)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"# {workload} seed {args.seed} trace {args.trace} {json.dumps(info)}")
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        print(f"{workload} failed_frac {info['failed_frac']!r} fraction")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
