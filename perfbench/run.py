"""Run one sphloss benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from the
checkout's ``src/``, never from an installed copy, and the command fails
without printing a result when ``src/sphloss`` is missing.  ``--trace 0``
reports the end-to-end metrics declared in ``BENCHMARK.json``, with times
scaled to a reference CPU speed on most workloads (see ``workloads``);
``--trace 1`` reports the per-layer metrics from a traced run and writes its
spans to ``.perfbench-out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The process exits 1
when a correctness check fails and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def pin_blas_threads():
    """One BLAS thread, set before numpy is imported.  With two, OpenBLAS's
    worker spins between calls and competes with the per-example Python
    loops: on a 2-CPU machine train-bound ran at 3.4k examples/s with two
    threads and 5.3k with one, and no workload was more than 10% faster
    with two."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def fail_setup(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout_package():
    src = ROOT / "src"
    if not (src / "sphloss" / "__init__.py").is_file():
        fail_setup(f"no sphloss package under {src}")
    sys.path.insert(0, str(src))
    import sphloss

    if Path(sphloss.__file__).resolve().parent != (src / "sphloss").resolve():
        fail_setup(f"imported sphloss from {sphloss.__file__}, not {src}")


def environment(args) -> dict:
    import numpy as np

    from workloads import MIN_JOBS, REF_PROBE_S, WARMUP_JOBS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "processes": 1,
        "warmup_jobs": WARMUP_JOBS,
        "min_jobs": MIN_JOBS,
        "ref_probe_s": REF_PROBE_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_checkout_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not args.seconds >= 0:
        parser.error("--seconds must be >= 0")

    env = environment(args)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    jobs = result.jobs
    env["measured_jobs"] = len(jobs)
    env["traced_jobs"] = sum(j.spans is not None for j in jobs)
    env["median_speed"] = statistics.median(j.speed for j in jobs)
    if args.trace:
        metrics = workloads.per_layer_metrics(result)
    else:
        metrics = workloads.end_to_end_metrics(result)
    correct = not result.problems

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "problems": result.problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "finish": result.finish,
        "jobs": [
            {k: getattr(j, k) for k in ("setup_s", "wall_s", "train_s", "train_examples",
                                        "eval_s", "eval_rows", "test_negll", "attempted",
                                        "failed", "probe_s", "gram_drift", "problems")}
            for j in jobs
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for i, j in enumerate(jobs):
                for span in j.span_log or ():
                    f.write(json.dumps([i, *span]) + "\n")

    print("env " + json.dumps(env))
    for p in result.problems:
        print(f"FAIL {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
