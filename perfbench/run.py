"""quidlab benchmark: one workload per run, JSON result on the last stdout line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload attack-cell --seed 1 --seconds 30 --trace 0

quidlab is imported from ``src/`` next to this directory, never from an
installed copy. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
spends half the run untraced and half with spans on, and prints the
per-layer metrics plus the tracing overhead. README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from spans import LAYER_METRICS, Recorder
from workloads import BATCH, SIZES, WORKLOADS, Tally

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ITERATIONS = 3
MEASURE_CAP_S = 120.0  # stop starting iterations here, so a run ends well within 180 s


def environment() -> dict:
    """Commit, interpreter, numpy/BLAS build and thread settings, CPU and caches."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration", blas.get("version")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload, ctx, seconds, tally, rng, recorder=None, setup=None):
    """Run iterations until `seconds` pass; returns the per-iteration phase times.

    With `setup`, every iteration starts from a fresh timed set-up, so set-up
    time is sampled across the whole run rather than only at its start.
    """
    samples, memo = [], {}
    started = time.perf_counter()
    while len(samples) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > MEASURE_CAP_S:
            break
        if setup is not None:
            ctx = setup()
        gc.collect()  # garbage of the previous iteration is not this one's cost
        if recorder is not None:
            recorder.new_iteration()
            recorder.enabled = True
        try:
            times, artifacts = workload.iteration(ctx)
        except Exception:  # a failing program is a result, not a crash of the benchmark
            tally.op(False, "iteration raised: " + traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if recorder is not None:
                recorder.enabled = False
        tally.attempted += workload.ops_per_iteration
        workload.check(ctx, artifacts, tally, rng, memo)  # outside the timed region
        samples.append(times)
    return samples


def run(args, size: str) -> dict:
    workload = WORKLOADS[args.workload]
    sizes = SIZES[size]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tally = Tally()
    rng = np.random.Generator(np.random.PCG64(args.seed))
    try:
        setup_times = []

        def timed_setup():
            gc.collect()
            start = time.perf_counter()
            ctx = workload.setup(args.seed, sizes, workdir)
            setup_times.append(time.perf_counter() - start)
            return ctx

        for _ in range(sizes["setup_reps"]):
            ctx = timed_setup()
        seconds = args.seconds / 2 if args.trace else args.seconds
        samples = measure(workload, ctx, seconds, tally, rng,
                          setup=None if args.trace else timed_setup)
        if not samples:
            raise RuntimeError("no iteration completed; see the errors above")
        phases = [statistics.median(s[i] for s in samples) for i in range(2)]
        lines = [f"workload {workload.name} seed {args.seed} iterations {len(samples)}"]
        lines.append("samples " + json.dumps([[round(t, 4) for t in s] for s in samples]))
        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),  # warm-up reps + one per iteration
                "phase1_s": (phases[0], "s"),
                "phase2_s": (phases[1], "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            named = {workload.phases[0]: phases[0], workload.phases[1]: phases[1]}
            if workload.name == "ess-scan":
                named["scan_s"] = statistics.median(sum(s) for s in samples)
            lines += [f"metric {k} {v:.6f} s (median of {len(samples)})" for k, v in named.items()]
        else:
            untraced = statistics.median(sum(s) for s in samples)
            spans_dir = os.path.join(workdir, "spans")
            os.makedirs(spans_dir)
            recorder = Recorder(spans_dir, step_batch=BATCH)
            recorder.enabled = True
            ctx = workload.setup(args.seed, sizes, workdir, tracer=recorder)
            recorder.enabled = False
            from_setup = recorder.layer_metrics()
            recorder.clear()
            traced = measure(workload, ctx, seconds, tally, rng, recorder)
            if not traced:
                raise RuntimeError("no traced iteration completed; see the errors above")
            per_iter = recorder.layer_metrics()
            values = {k: from_setup[k] + per_iter[k] / len(traced) for k in per_iter}
            states = values["encode.states"]
            values["encode.unique_ratio"] = (
                (states - values["encode.reencoded_states"]) / states if states else 0.0
            )
            overhead = statistics.median(sum(s) for s in traced) - untraced
            values["trace.overhead_s"] = overhead
            values["trace.overhead_frac"] = overhead / untraced
            units = {name: unit for name, unit, _target in LAYER_METRICS}
            metrics = {k: (values[k], units[k]) for k in units}
            lines[0] += f" (untraced) + {len(traced)} traced"
            lines.append("per-layer values: set-up once plus the mean of one traced iteration")
        failed_frac = tally.failed / max(tally.attempted, 1)
        lines.append(f"metric failed_frac {failed_frac:.6f} fraction "
                     f"({tally.failed} of {tally.attempted} operations and checks)")
        lines += [f"metric {k} {v!r} {unit}" for k, (v, unit) in metrics.items()]
        lines += [f"FAILED {what}" for what in tally.failures]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    return {
        "lines": lines,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quidlab", "__init__.py")):
        print(f"error: no quidlab sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quidlab

    if not os.path.abspath(quidlab.__file__).startswith(SRC + os.sep):
        print(f"error: quidlab resolved to {quidlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    out = run(args, size)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
