"""Benchmark of centralizer-lab: one workload per run, one JSON line out.

Run from the root of a checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload toda-n4 --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions in spans, reports per-layer metrics and writes
the spans to ``perfbench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import os

# Before numpy is imported anywhere: dense kernels here are 4x4 to 8x8, and
# BLAS threads only slow them down.  The check command keeps its default
# worker pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CENTRALIZER_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7
REFERENCE_MATRIX = np.array([[1.0, 0.5j, 0.0, 0.2], [1.0, -0.3, 0.4j, 0.0],
                             [0.0, 1.0, 0.7, 0.1j], [0.3, 0.0, 1.0, -0.4]], dtype=complex)
# Top-level operations whose inclusive time is reported per operation.
OPERATIONS = ("toda.in_flow_domain", "toda.toda_flow", "toda.embed",
              "toda.embed_inverse", "centralizer.cjl_pullback_deviation")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("toda-n4", "cjl-n6", "check-n2-4"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, make the first call, print 'ready'")
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Fresh interpreter to first finished call, the median of several."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def reference_seconds(calls: int, every_cpu: bool = False) -> float:
    """Median time of one run of a fixed kernel of small dense numpy work
    and interpreter work, the mix the library's operations are made of.

    The host's slowdowns strike one CPU at a time.  With ``every_cpu`` the
    kernel runs pinned to each CPU this process may use in turn, and the
    mean over the CPUs is returned: the reference for work spread over
    threads on all of them.
    """
    if every_cpu:
        allowed = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(reference_seconds(calls))
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(per_cpu)
    a0 = REFERENCE_MATRIX
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        a = a0
        for _ in range(25):
            values = np.linalg.eigvals(a)
            product = a @ np.linalg.inv(a)
            a = a0 + 1e-3 * np.diag(np.diagonal(product, 1), k=1)
            total = 0.0
            for v in values:
                total += abs(v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None):
    """Closed loop of whole rounds until ``seconds`` have passed.

    The reference kernel runs between operations; each operation's
    reference time is the mean of the runs just before and just after it,
    so its latency can be read in units of what the host gave the process
    at that moment.  Returns the items and outputs of the operations that
    succeeded, their latencies, their reference times, whether each was
    traced, and the failures.  With a tracer, every other operation runs
    traced, so one run gives both sides of the tracing overhead.
    """
    items, outputs, latencies, refs, traced, failures = [], [], [], [], [], []
    reference_seconds(3)  # warm-up
    ref_before = reference_seconds(workload.reference_calls, workload.threaded)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            item = workload.draw()
            op = len(latencies) + len(failures)
            on = tracer is not None and op % 2 == 0
            if on:
                tracer.op = op
                tracer.install()
            t0 = time.perf_counter()
            ok = False
            try:
                out = workload.run(item)
                elapsed = time.perf_counter() - t0
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{type(exc).__name__}: {exc}")
            finally:
                if on:
                    tracer.uninstall()
            ref_after = reference_seconds(workload.reference_calls, workload.threaded)
            if ok:
                latencies.append(elapsed)
                refs.append(0.5 * (ref_before + ref_after))
                traced.append(on)
                items.append(item)
                outputs.append(out)
            ref_before = ref_after
    return items, outputs, latencies, refs, traced, failures


def end_to_end_metrics(args, latencies, refs) -> dict:
    """Set-up time, peak memory, and the cost of one operation in units of
    the reference kernel timed around it.

    The shared host slows stretches of a run, and whole runs, by half or
    more; the slowdown hits the operation and the reference kernel alike,
    so their ratio keeps the program's own speed.
    """
    costs = [lat / ref for lat, ref in zip(latencies, refs)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_seconds(args), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "op_cost_mean": (statistics.fmean(costs), "ref"),
    }


def layer_metrics(tracer, workload, outputs, latencies, refs, traced) -> dict:
    """Per-layer counts and times, each per traced workload operation."""
    on = [lat for lat, t in zip(latencies, traced) if t]
    off = [lat for lat, t in zip(latencies, traced) if not t]
    ops = len(on)
    totals = tracer.layer_totals()
    metrics = {}
    for name in tracing.layer_names():
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_ms"] = (1e3 * self_s / ops, "ms")
    for name in OPERATIONS:
        metrics[f"{name}.total_ms"] = (1e3 * totals.get(name, (0, 0.0, 0.0))[2] / ops, "ms")
    samples = totals.get("sampling.sample_flow_domain", (0, 0.0, 0.0))[0]
    tries = tracer.child_calls("sampling.sample_flow_domain", "toda.in_flow_domain")
    metrics["sampling.flow_domain.accept_ratio"] = (samples / tries if tries else 0.0, "ratio")
    untraced_outputs = [out for out, t in zip(outputs, traced) if not t]
    metrics["suites.check_busy_s"] = (workload.busy_seconds(untraced_outputs), "s")
    metrics["trace.spans"] = (tracer.span_count() / ops, "count")
    metrics["trace.op_ms_p50"] = (1e3 * statistics.median(on), "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(on) / statistics.median(off) - 1.0), "%")
    # Wall-clock figures of the untraced half, which move with the speed
    # the host gives the process (reference.ms_p50 shows that speed).
    metrics["untraced.ops_per_s"] = (len(off) / sum(off), "1/s")
    metrics["untraced.op_ms_p50"] = (1e3 * statistics.median(off), "ms")
    p95 = statistics.quantiles(off, n=20, method="inclusive")[18]
    metrics["untraced.op_ms_p95"] = (1e3 * p95, "ms")
    metrics["reference.ms_p50"] = (1e3 * statistics.median(refs), "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "centralizer_lab" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed % 2 ** 64, OUT)
    workload.first_call()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    oracles.self_test()
    tracer = tracing.Tracer() if args.trace else None
    items, outputs, latencies, refs, traced, failures = measure(workload, args.seconds, tracer)
    for failure in failures:
        print(f"failed operation: {failure}", file=sys.stderr)
    if not latencies:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = end_to_end_metrics(args, latencies, refs)
    else:
        metrics = layer_metrics(tracer, workload, outputs, latencies, refs, traced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    errors = workload.check(items, outputs)
    for error in errors[:20]:
        print(f"incorrect: {error}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": len(latencies) + len(failures),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
