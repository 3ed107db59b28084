"""Smoke test of the benchmark: every workload at tiny size, in seconds.

Usage: python3 bench/smoke.py

Checks that the untraced and the traced run print every metric of
BENCHMARK.json with its unit and end with a well-formed result line, that
the per-layer controls hold (layers a workload does not use report zero
calls), that two traced runs of one seed give identical counts, and that a non-unitary coin injected into classify_sweep is counted
as a failed operation instead of crashing the run.
"""

import json
import os
import subprocess
import sys

import run

CONTROLS = {  # layer metrics that must read zero on a workload
    "classify_sweep": ("walk.step.calls", "classify.trapped_weight.calls"),
    "walk_long": ("classify.classify_coin.calls", "laurent.localized_cells.calls"),
    "coin_report": ("walk.simulate.calls",),
}

COUNTS = (".calls", ".per_op", ".bytes_computed", ".occupied_frac", ".rows")


def check_printed(trace: int, spec: dict):
    done = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "bench", "run.py"), "--tiny",
         "--seconds", "1", "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=170)
    wanted = spec["per_layer" if trace else "end_to_end"]
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(spec["workloads"]), done.stdout
    for workload, result in zip(spec["workloads"], results):
        name = workload["name"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert list(result["metrics"]) == [m["name"] for m in wanted], result
        for metric in wanted:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"], (name, metric, value)
            line = f"{name} {metric['name']} {value['value']!r} {metric['unit']}"
            assert line in lines, line
        assert f"{name} failed_frac 0.0 fraction" in lines, name
        if trace:
            for control in CONTROLS[name]:
                assert result["metrics"][control]["value"] == 0, (name, control)
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values()), result
    return results


def check_counts_repeat(spec: dict, first: list):
    """Traced runs do fixed work, so counts must repeat exactly for a seed."""
    again = check_printed(1, spec)
    for a, b in zip(first, again):
        counts = {name for name in a["metrics"] if name.endswith(COUNTS)}
        assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}


def check_injected_failure():
    result, info = run.measure("classify_sweep", 7, 1.0, trace=False, tiny=True,
                               inject_bad=1)
    assert result["failed"] == 1 and not result["correct"], result
    assert info["failed_frac"] == 1 / result["attempted"], info
    assert "NotUnitaryError" in info["errors"][0], info


def main() -> int:
    spec = run.load_spec()
    check_printed(0, spec)
    check_counts_repeat(spec, check_printed(1, spec))
    check_injected_failure()
    print("bench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
