"""The outputs `tests/test_golden_outputs.py` pins, and the script that
records them in `tests/golden_outputs.json`:

    PYTHONPATH=src python3 tests/golden_outputs.py

It records the Python and numpy versions, one round of each benchmark
workload on the seeds in `RUNS` (the outputs digest that `bench/run.py`
prints and the failures its checks report), and sha256 digests of
`dump-dataflow` and `dump-usage-vectors` output on a fixed small corpus.
A change that moves an output on purpose runs the script again and says
which entries moved and why."""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from smartpaste import cli, evaluation, train

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
PATH = os.path.join(HERE, "golden_outputs.json")

# (workload, seed): seeds 0-2 of each workload, and the paste seeds whose
# pastes do not type-check (their failures are recorded as they are)
RUNS = [(w, s) for w in ("paste-hybrid", "eval-avgg", "train-hybrid")
        for s in range(3)] \
    + [("paste-hybrid", s) for s in (83, 105, 721, 1405)]

# the corpus the dumps read: `generate --profile mixed --seed 4`
CORPUS = {"seed": 4, "projects": 4, "files_per_project": 2}
DUMP_LIMIT = 40


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


@contextlib.contextmanager
def _restored(*attrs):
    """Put back each (module, name) attribute on exit: the workloads
    replace them with capturing wrappers."""
    saved = [(module, name, getattr(module, name)) for module, name in attrs]
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def run_workload(name, seed, workdir):
    """One round of a benchmark workload in this process: (outputs digest,
    failures), the digest as `bench/run.py` computes it."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads
    with _restored((cli, "paste"), (evaluation, "icm"),
                   (train, "train_step")):
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed, workdir, workloads.Ops())
        workload.run_round()
        failures = workload.failures()
        outputs = workload.outputs()
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True)
                            .encode()).hexdigest()
    return digest, failures


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def dump_digests(workdir):
    """sha256 of `dump-dataflow` over every file of the corpus, in path
    order, and of `dump-usage-vectors --limit DUMP_LIMIT` over its
    instances with each bench checkpoint."""
    corpus = os.path.join(workdir, "corpus")
    data = os.path.join(workdir, "instances.jsonl")
    _cli_output(["generate", "--profile", "mixed",
                 "--seed", str(CORPUS["seed"]),
                 "--projects", str(CORPUS["projects"]),
                 "--files-per-project", str(CORPUS["files_per_project"]),
                 "--out", corpus])
    _cli_output(["extract", "--corpus", corpus, "--out", data])
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(corpus)
                   for f in fs)
    outputs = {"dump-dataflow": "".join(
        _cli_output(["dump-dataflow", "--file", f]) for f in files)}
    for model in ("avgg", "hybrid"):
        outputs[f"dump-usage-vectors {model}"] = _cli_output([
            "dump-usage-vectors", "--data", data,
            "--model", os.path.join(BENCH, "checkpoints", f"{model}.json"),
            "--limit", str(DUMP_LIMIT)])
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in outputs.items()}


def main():
    record = dict(versions(), runs=[], dumps={})
    with tempfile.TemporaryDirectory() as workdir:
        for name, seed in RUNS:
            digest, failures = run_workload(name, seed, workdir)
            record["runs"].append({"workload": name, "seed": seed,
                                   "digest": digest, "failures": failures})
            print(f"{name} seed {seed}: {digest[:8]}, "
                  f"{len(failures)} failure(s)")
        record["dumps"] = dump_digests(workdir)
    with open(PATH, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
