"""lensmimo benchmark: one workload per process, a closed loop of fixed-size jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client and one thread: library calls take threads=1 and the BLAS and
OpenMP pools are pinned to one thread before NumPy loads. Job i uses seed
N + i; job 0 is an untimed warm-up. Each job is timed alone and checked
after its clock stops. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: end-to-end metrics
with --trace 0, per-layer metrics from wrapped module boundaries with
--trace 1. See README.md in this directory.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Set-up calibration: a fresh interpreter importing NumPy, and a fixed
# constant near its time on the reference box.
NUMPY_IMPORT = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]
NUMPY_IMPORT_REF_S = 0.17

UNITS = {
    "setup_s": "s", "job_p50_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
    "array_model.profile_s": "s", "array_model.profile_elements": "count",
    "harness.block_s": "s", "harness.chunks": "count", "harness.chunk_bytes_max": "B",
    "harness.reduce_s": "s", "harness.self_s": "s", "stochastic.sample_s": "s",
    "stochastic.mc_s": "s", "stochastic.quad_s": "s", "interference.sweep_s": "s",
    "interference.scalar_call_us": "us", "interference.scalar_calls": "count",
    "interference.null_s": "s", "cli.self_s": "s", "cli.bytes_written": "B",
    "selfcheck.self_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_program():
    """Import lensmimo from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import lensmimo

    if Path(lensmimo.__file__).resolve().parent.parent != src:
        raise ImportError(f"lensmimo loaded from {lensmimo.__file__}, not from {src}")
    import workloads

    return workloads


def _spawn_until_ready(cmd) -> float:
    """Seconds from spawning cmd to the monotonic time it prints once ready."""
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - started


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of the time to the first job being ready.

    Each probe is paired with a fresh interpreter that imports NumPy alone,
    and reported in reference seconds like the job times (README).
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    ratios = [_spawn_until_ready(probe) / _spawn_until_ready(NUMPY_IMPORT)
              for _ in range(SETUP_PROBES)]
    return statistics.median(ratios) * NUMPY_IMPORT_REF_S


def _median_metrics(per_job: list) -> dict:
    return {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, workdir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.probe:
        wl.make_job(args.seed)
        print(time.monotonic())
        return 0

    setup_s = None if args.trace else _setup_seconds(args)

    tracer = restore = None
    if args.trace:
        import tracing
        from lensmimo import cli, harness, selfcheck

        tracer = tracing.Tracer()
        restore = tracer.install({"harness": harness, "cli": cli, "selfcheck": selfcheck})

    attempted = failed = 0
    durations, ratios, layer_metrics, job_spans = [], [], [], []
    try:
        index = 0
        started = None
        while started is None or time.monotonic() - started < args.seconds:
            job = wl.make_job(args.seed + index)
            first_span = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.counts.clear()
            attempted += 1
            try:
                t0 = time.perf_counter()
                wl.calibrate()
                t1 = time.perf_counter()
                outputs = wl.run(job)
                t2 = time.perf_counter()
                wl.calibrate()
                t3 = time.perf_counter()
                problems = wl.check(job, outputs)
                written = wl.bytes_written(job)
            except Exception:  # a job that raises is one failed operation
                problems = [traceback.format_exc()]
            finally:
                wl.cleanup(job)
            if problems:
                failed += 1
                print(f"job {index} (seed {args.seed + index}) failed:", *problems[:5], sep="\n  ", file=sys.stderr)
            elif started is not None:
                durations.append(t2 - t1)
                ratios.append(2.0 * (t2 - t1) / ((t1 - t0) + (t3 - t2)))
                if tracer:
                    m = tracer.job_metrics(first_span)
                    m["cli.bytes_written"] = written
                    layer_metrics.append(m)
                    job_spans.append((first_span, len(tracer.spans)))
            if started is None:  # job 0 warmed up caches; the clock starts now
                started = time.monotonic()
            index += 1
    finally:
        if restore:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    pooled = wl.pooled()
    for problem in pooled:
        print(f"pooled check failed: {problem}", file=sys.stderr)
    correct = bool(durations) and not pooled

    if not durations:
        values = {}
    elif args.trace:
        values = _median_metrics(layer_metrics)
        _write_trace(args, tracer, job_spans, durations, statistics.median(ratios) * wl.cal_ref_s)
    else:
        # Job times in reference seconds: each job's wall time over the mean
        # of the calibrations run just before and after it, times a fixed
        # constant near the calibration's time on the reference box. Host
        # load moves both alike (README).
        values = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(ratios) * wl.cal_ref_s,
            "items_per_s": wl.items * len(ratios) / (sum(ratios) * wl.cal_ref_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = statistics.median(durations)
        print(f"wall-clock job p50 {raw:.6f} s; calibrated {values['job_p50_s']:.6f} s", file=sys.stderr)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(args, tracer, job_spans, durations, calibrated_p50) -> None:
    """JSON lines: a header, then one [job, span, parent, name, start_s, end_s]
    per span of the timed jobs, times from the first timed job's start."""
    t0 = tracer.spans[job_spans[0][0]][1] if job_spans[0][1] > job_spans[0][0] else 0.0
    header = {"workload": args.workload, "seed": args.seed, "jobs": len(durations),
              "wall_job_p50_s": statistics.median(durations), "job_p50_s": calibrated_p50,
              "columns": ["job", "span", "parent", "name", "start_s", "end_s"]}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{args.workload}.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for job, (a, b) in enumerate(job_spans):
            for i in range(a, b):
                name, start, end, parent = tracer.spans[i]
                fh.write(json.dumps([job, i, parent, name, round(start - t0, 7), round(end - t0, 7)]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
