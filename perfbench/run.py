#!/usr/bin/env python3
"""Run one binloc benchmark workload and print its result.

From the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

The workload runs in this process, from one thread of control, with one
BLAS thread. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, timed in this process's CPU time; ``--trace 1`` wraps
binloc's layers in timing spans and reports the per-layer metrics instead.
The last line of standard output is the result as one JSON object. The
environment record, failure messages and (when traced) the spans go to
``perfbench/_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median
# One BLAS thread: the desk-scale GEMMs gain nothing measurable from a second
# thread on a 2-CPU host, and when the host takes one CPU away every call of
# a two-thread BLAS waits for the slowed thread, which doubles run-to-run
# spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed ops run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "mini"), default="full",
                   help="mini shrinks every input for the self-test")
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    """Pin BLAS to ``BLAS_THREADS`` threads; must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_runtime_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import inspect

    import numpy
    import scipy

    from binloc.model import BinauralTransformer

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dtype = inspect.signature(BinauralTransformer).parameters["dtype"].default
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_runtime_threads(),
                 **{var: os.environ[var] for var in BLAS_VARS}},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "dtype": numpy.dtype(dtype).name,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def end_to_end(samples: dict, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one untraced run, in CPU time.

    A throughput is pooled over the run's calls of its stage (samples over
    time, summed); ``transfer_s`` is the median call and the rollout
    figures are percentiles of every rollout call in the run.
    """
    import numpy as np

    def pooled(key):
        return sum(n for n, _ in samples[key]) / sum(t for _, t in samples[key])

    rollout = samples["rollout_ms"]
    return {
        "train_samples_per_s": (pooled("train"), "samples/s"),
        "val_ad_deg": (samples["val_ad_deg"][0], "deg"),
        "render_samples_per_s": (pooled("render"), "samples/s"),
        "transfer_s": (statistics.median(samples["transfer_s"]), "s"),
        "eval_samples_per_s": (pooled("eval"), "samples/s"),
        "rollout_ms_p50": (float(np.percentile(rollout, 50)), "ms"),
        "rollout_ms_p90": (float(np.percentile(rollout, 90)), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(args, work: Path) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics
    from workloads import SCALES, WORKLOADS, OpFailed, Runner

    tracer = Tracer() if args.trace else None
    runner = Runner(work / "cli.log", tracer)
    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale])
    setup_s, op_s = [], []  # CPU seconds per set-up, wall seconds per op

    def timed(label, step):
        """Run one set-up or op; returns its wall and CPU seconds."""
        path = work / label
        path.mkdir()
        if tracer is not None:
            tracer.run_id = label
        start, start_cpu = time.perf_counter(), time.process_time()
        step(runner, path)
        return time.perf_counter() - start, time.process_time() - start_cpu

    completed = False
    try:
        if tracer is not None:
            tracer.install()
            setup_s.append(timed("setup", workload.setup)[1])
        deadline = time.perf_counter() + args.seconds
        while True:
            # untraced set-ups are spread over the run, one before each of
            # the first ops, so that they meet the same host conditions as
            # the ops; they do not count against the ops' time
            if tracer is None and len(setup_s) < SETUPS:
                wall, cpu = timed(f"setup{len(setup_s)}", workload.setup)
                setup_s.append(cpu)
                deadline += wall
            # a traced run alternates traced and untraced ops; the untraced
            # ones are the base of the tracing overhead
            if tracer is not None and len(op_s) % 2 == 0:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            label = f"op{len(op_s)}"
            op_s.append(timed(label, workload.op)[0])
            shutil.rmtree(work / label)
            # start another op only if it should end before the deadline
            if ((tracer is None or len(op_s) >= 2)
                    and time.perf_counter() + statistics.median(op_s) > deadline):
                break
        while tracer is None and len(setup_s) < SETUPS:
            setup_s.append(timed(f"setup{len(setup_s)}", workload.setup)[1])
        completed = True
    except OpFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics = {}
    if completed and tracer is not None:
        nodes = {n for _, cmd, n in tracer.samples["engine.tape_nodes"] if cmd == "train"}
        runner.check(runner.attempted, len(nodes) == 1,
                     f"tape nodes per train step differ: {sorted(nodes)}")
        traced_s, untraced_s = op_s[0::2], op_s[1::2]
        overhead_ms = (statistics.median(traced_s) - statistics.median(untraced_s)) * 1e3
        metrics = layer_metrics(tracer, len(setup_s), len(traced_s), overhead_ms)
        tracer.write(HERE / "_out" / f"{args.workload}-seed{args.seed}-spans.jsonl")
    elif completed:
        metrics = end_to_end(runner.samples, setup_s)
    detail = {
        "ops": len(op_s),
        "op_s": op_s,
        "setup_s": setup_s,
        "untraced_op_s": op_s[1::2] if tracer else [],
        "samples": runner.samples,
        "error_rate": runner.failed / max(runner.attempted, 1),
        "failures": {str(k): v for k, v in runner.failures.items()},
    }
    result = {
        "correct": completed and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import binloc.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import binloc from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, detail = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "environment": environment(args.seed), **detail, "result": result}
    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: {detail['ops']} ops, "
          f"error_rate {detail['error_rate']:.4g}, record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
