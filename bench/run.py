"""smartpaste benchmark: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload {paste-hybrid,eval-avgg,train-hybrid}
        --seed N --seconds S --trace {0,1}

Set-up makes the inputs from the seed.  The measured phase then runs whole
rounds of the workload's operations, one after another, until S seconds have
passed; every round repeats the same operations.  The outputs are checked
afterwards.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs exactly one round
with every traced layer function wrapped, so call counts repeat from run to
run, reports the per-layer metrics, and writes the spans to
.bench_out/spans-<workload>-seed<N>.jsonl.  See bench/README.md.
"""

import time

# Set-up is timed from here, the first statement the interpreter runs.
T0 = time.perf_counter()

import os  # noqa: E402

# Before numpy is imported (through the program): single-threaded BLAS and
# OpenMP, never more threads than processors.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("paste-hybrid", "eval-avgg", "train-hybrid")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="smartpaste benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True)
                          .encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import spans  # noqa: E402
    import workloads  # noqa: E402  (imports the program)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ops = workloads.Ops(tracer)
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.setup(args.seed, workdir, ops)
        setup_s = time.perf_counter() - T0

        start = time.perf_counter()
        rounds = 0
        while True:
            workload.run_round()
            rounds += 1
            if tracer is not None \
                    or time.perf_counter() - start >= args.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        failures = workload.failures()
        outputs = workload.outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops.durations)
    failed = sum(1 for c in getattr(workload, "exit_codes", []) if c != 0)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), "
          f"{attempted} operations in {wall:.3f} s; outputs "
          f"{digest(outputs)}", file=sys.stderr)
    print("operation seconds: "
          + " ".join(f"{d:.3f}" for d in ops.durations), file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / wall, "ops/s"),
            "op_p50_s": (statistics.median(ops.durations), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "accuracy": (workload.accuracy(), "fraction"),
        }
    else:
        layer = tracer.layer_metrics()
        decided = workload.placeholder_count()
        layer["taskgen.jsonl_bytes"] = getattr(workload, "jsonl_bytes", 0)
        layer["infer.rank_single.per_placeholder"] = \
            layer["infer.rank_single.calls"] / decided if decided else 0.0
        metrics = {name: (layer[name], unit)
                   for name, unit in spans.per_layer_metric_names()}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
            meta={"workload": args.workload, "seed": args.seed,
                  "wall_s": wall, "outputs": digest(outputs)})

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
