"""One workload in a fresh, single-threaded process (started by run.py).

Usage: python3 bench/child.py '<spec JSON>'

The spec names the workload, seed, seconds, trace flag, size, work
directory and whether to stop once set up.  Set-up covers the imports,
generating the inputs and one warm-up operation; the child records
CLOCK_MONOTONIC at ready, so the parent can time set-up from the moment it
started the process.  The timed phase runs whole passes until ``seconds``
of timed work have accumulated, with one closed-loop caller; a traced run
instead alternates a fixed number of traced and untraced passes.  The last
line of stdout is the result as JSON.
"""

import json
import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "TRAPWALK_THREADS")
MAX_REPORTED_ERRORS = 5


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


class Tally:
    """Operations attempted, completed and failed over some passes, with their time."""

    def __init__(self):
        self.timed = 0.0
        self.rates, self.completed, self.attempted, self.failed = [], 0, 0, 0

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.timed


def _run_pass(workload, tally: Tally, errors: list, tracer=None):
    """One closed-loop pass: run every item, then check the outputs untimed.

    With a tracer, spans are recorded while the items run, not while they
    are checked.
    """
    items = workload.next_pass()
    outputs = []
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    for item in items:
        try:
            outputs.append(workload.run(item))
        except Exception as exc:  # a failed operation is counted, not raised
            outputs.append(exc)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    done = 0
    for item, output in zip(items, outputs):
        tally.attempted += item.ops
        try:
            if isinstance(output, Exception):
                raise output
            workload.check(item, output)
            done += item.ops
        except Exception as exc:
            tally.failed += item.ops
            if len(errors) < MAX_REPORTED_ERRORS:
                errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
    tally.timed += elapsed
    tally.completed += done
    tally.rates.append(done / elapsed)


def _timed_phase(workload, seconds: float, errors: list) -> Tally:
    """Whole untraced passes until ``seconds`` of timed work have accumulated."""
    tally = Tally()
    while tally.timed < seconds or not tally.rates:
        _run_pass(workload, tally, errors)
    return tally


def _traced_phase(workload, tracer, errors: list) -> tuple[Tally, Tally]:
    """A fixed number of traced passes, each followed by an untraced one.

    The fixed work makes every count exact for a seed; alternating with
    the tracer off lets both sides of the overhead meet the same host.
    """
    traced, untraced = Tally(), Tally()
    for _ in range(workload.trace_passes):
        _run_pass(workload, traced, errors, tracer)
        _run_pass(workload, untraced, errors)
    return traced, untraced


def main() -> int:
    spec = json.loads(sys.argv[1])
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import trapwalk
    import workloads  # imports numpy and the trapwalk layers
    t1 = time.perf_counter()
    if not os.path.abspath(trapwalk.__file__).startswith(src + os.sep):
        raise SystemExit(f"trapwalk imported from {trapwalk.__file__}, not {src}")

    inject = {"inject_bad": spec["inject_bad"]} if spec["inject_bad"] else {}
    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["workdir"], spec["tiny"], **inject)
    t2 = time.perf_counter()
    warm = workload.warmup_item()
    try:
        workload.check(warm, workload.run(warm))
    except Exception as exc:  # counted when the timed passes meet it again
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    result = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
    }
    if not spec["setup_only"]:
        errors = []
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            tally, untraced = _traced_phase(workload, tracer, errors)
            result.update(layers=tracer.summary(), counters=tracer.counters,
                          untraced_ops_per_s=untraced.ops_per_s)
            attempted = tally.attempted + untraced.attempted
            failed = tally.failed + untraced.failed
        else:
            tally = _timed_phase(workload, spec["seconds"], errors)
            attempted, failed = tally.attempted, tally.failed
        import resource
        result.update(
            ops_per_s=tally.ops_per_s,
            ops=tally.attempted,
            rates=tally.rates,
            timed_s=tally.timed,
            attempted=attempted,
            failed=failed,
            errors=errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            worst_gap=getattr(workload, "worst_gap", 0.0),
            numpy=sys.modules["numpy"].__version__,
            blas=_blas(),
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
