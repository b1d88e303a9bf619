"""lmisolve benchmark.

    python3 perfbench/run.py --workload lmi-dense --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Builds certified inputs from --seed, then repeats the workload for as long
as another run fits in --seconds, counted from its first (warm-up) run.
Each workload run is followed by one call of the workload's reference
kernel (`reference` in workloads.py, about 0.4 s). With --trace 0 it
reports the end-to-end metrics of untraced runs: run_rel (median over runs
of a run's wall time, from in-memory inputs to every solution and output
file, divided by the mean time of the reference calls just before and after
it), setup_s (median of the runs' set-up parts, in seconds) and
peak_rss_mb. The median wall time run_s and its tail are printed too. With
--trace 1 it alternates untraced and traced workload runs and reports
per-layer metrics (medians over the traced runs), the kernel sweep, and
trace.overhead_frac (traced over untraced median run_rel, minus 1).

run_rel, not run_s, is the gated metric because on a shared host the load
of other tenants changes the speed of the whole machine for tens of seconds
at a time, so run_s of identical work drifts between runs of the benchmark
by far more than a useful bound. The reference slows with the workload, so
the ratio keeps the program's own cost and drops most of the drift.

Every solve is then checked, untimed, against the benchmark's own arrays;
fail_frac is printed, and the exit code is 1 when any solve failed. The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}. Results, the machine record and (when traced) the spans are
written under .perfbench_out/.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("lmi-dense", "sdp-pd")
END_TO_END_UNITS = {"run_rel": "ref", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "calls": "count", "evals": "count", "iterations": "count", "phases": "count",
    "ms": "ms", "flop": "flop", "us_per_eval": "us", "self_us_per_iter": "us",
    "evals_per_iter": "1/iter", "halved_frac": "frac", "overhead_frac": "frac",
    "trace_bytes": "B",
}
# share of --seconds given to the kernel sweep in a traced run
SWEEP_SHARE = 0.15


def _unit(name):
    return END_TO_END_UNITS.get(name) or LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def _tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def machine_record(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
    }


def _summary(workload, name, value, samples):
    line = f"{workload} {name} = {value!r} {_unit(name)}"
    if samples is None:
        return line
    line += f" (median of n={len(samples)}"
    tail = _tail(samples)
    if tail is not None:
        line += f"; p{tail[0]:.0f} = {tail[1]!r}"
    return line + ")"


def _wall(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def run_one(args):
    import numpy as np

    import lmisolve

    if Path(lmisolve.__file__).resolve().parent != SRC / "lmisolve":
        print(f"error: imported lmisolve from {lmisolve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from sweep import kernel_sweep
    from tracing import Tracer, layer_metrics, median_metrics
    from workloads import WORKLOADS as CLASSES

    machine = machine_record(np)
    print("machine " + json.dumps(machine), flush=True)
    work = OUT_DIR / f"work-{args.workload}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = CLASSES[args.workload](args.seed, work)
        start = time.perf_counter()
        outcomes = [wl.run_once()]  # warm-up: checked and counted, not reported
        plain, plain_rel, traced, traced_rel, layers = [], [], [], [], []
        tracer = Tracer() if args.trace else None
        sweep, sweep_samples = ({}, {})
        if tracer:
            sweep, sweep_samples = kernel_sweep(args.seed, SWEEP_SHARE * args.seconds)
        refs = [_wall(wl.reference)]

        def measure(runs, rels, ctx=contextlib.nullcontext()):
            with ctx:
                runs.append(wl.run_once())
            refs.append(_wall(wl.reference))
            rels.append(runs[-1].run_s / (0.5 * (refs[-2] + refs[-1])))

        deadline, last = start + args.seconds, 0.0
        while not plain or time.perf_counter() + last < deadline:
            begun = time.perf_counter()
            # traced runs alternate with untraced ones, each going first in turn
            if not tracer or len(traced) % 2:
                measure(plain, plain_rel)
            if tracer:
                tracer.run_id = f"{args.workload}-s{args.seed}-r{len(traced)}"
                first_span, first_solve = len(tracer.spans), len(tracer.solves)
                measure(traced, traced_rel, tracer.installed())
                layers.append(layer_metrics(tracer.spans[first_span:], tracer.solves[first_solve:],
                                            traced[-1].trace_bytes))
                if len(traced) % 2:
                    measure(plain, plain_rel)
            last = time.perf_counter() - begun
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes += plain + traced
    run_s = [o.run_s for o in plain]
    if tracer:
        samples = dict({k: [r[k] for r in layers] for k in layers[0]}, **sweep_samples)
        metrics = dict(median_metrics(layers), **sweep)
        overhead = statistics.median(traced_rel) / statistics.median(plain_rel) - 1.0
        metrics["trace.overhead_frac"] = overhead
        tracer.write_csv(OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv")
    else:
        samples = {"run_rel": plain_rel, "run_s": run_s, "setup_s": [o.setup_s for o in plain]}
        metrics = {k: statistics.median(samples[k]) for k in ("run_rel", "setup_s")}
        print(_summary(args.workload, "run_s", statistics.median(run_s), run_s))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [f for o in outcomes for f in o.failures]
    attempted = sum(o.attempted for o in outcomes)
    for f in failures:
        print(f"FAILED {args.workload}: {f}", file=sys.stderr)
    for name, value in metrics.items():
        print(_summary(args.workload, name, value, samples.get(name)))
    print(f"{args.workload} fail_frac = {len(failures) / attempted!r} "
          f"({len(failures)} of {attempted} solves)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, samples=samples, reference_s=refs,
                  failures=failures)
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lmisolve" / "__init__.py").is_file():
        print(f"error: lmisolve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
