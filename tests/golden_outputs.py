"""The outputs `tests/test_golden_outputs.py` pins, and the script that
records them in `tests/golden_outputs.json`:

    PYTHONPATH=src python3 tests/golden_outputs.py

It records the Python and numpy versions, one round of each benchmark
workload on the seeds in `RUNS` (the outputs digest that `bench/run.py`
prints and the failures its checks report), sha256 digests of
`dump-dataflow` and `dump-usage-vectors` output on a fixed small corpus,
of what the MiniLang front end makes of generated programs and of
mutants of them, and of pastes whose rankings hold exact ties.
A change that moves an output on purpose runs the script again and says
which entries moved and why."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import sys
import tempfile

import numpy as np

from smartpaste import cli, evaluation, generator, infer, train
from smartpaste.minilang import (CheckError, LexError, ParseError,
                                 compile_source)
from smartpaste.models import Hyper, ModelParams, build_vocab

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

# the front end's inputs: every profile's corpus of these seeds, and
# seeded mutants of its files
FRONT_END = {"seeds": range(3), "projects": 2, "files_per_project": 2,
             "mutants": 1500}


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


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True)
                          .encode()).hexdigest()


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
    return _digest(outputs), failures


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


def front_end_inputs():
    """The generated files of every profile, then `FRONT_END["mutants"]`
    mutants of them: one space-separated word deleted, duplicated or
    swapped with another."""
    sources = [source for profile in generator.PROFILES
               for seed in FRONT_END["seeds"]
               for files in generator.generate_corpus(
                   seed, FRONT_END["projects"],
                   FRONT_END["files_per_project"], profile).values()
               for _, source in files]
    rng = random.Random(0)
    mutants = []
    for _ in range(FRONT_END["mutants"]):
        words = rng.choice(sources).split(" ")
        i, j = rng.randrange(len(words)), rng.randrange(len(words))
        edit = rng.randrange(3)
        if edit == 0:
            del words[i]
        elif edit == 1:
            words.insert(i, words[i])
        else:
            words[i], words[j] = words[j], words[i]
        mutants.append(" ".join(words))
    return sources + mutants


def _fields(value):
    """A dataclass instance's field values in order."""
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def _node(value):
    """An AST node as its class name and its fields in order."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [_node(v) for v in _fields(value)]
    if isinstance(value, (list, tuple)):
        return [_node(v) for v in value]
    return value


def front_end_result(source):
    """Every field of every token, the symbols, the lattice and the AST
    that `compile_source` makes of `source`, or the error it raises."""
    try:
        program = compile_source(source)
    except (LexError, ParseError, CheckError) as e:
        return [type(e).__name__, str(e), vars(e)]
    return [[_fields(t) for t in program.tokens],
            [_fields(s) for s in program.symbols],
            {t: sorted(s) for t, s in program.lattice.supers.items()},
            _node(program.ast)]


def front_end_digest():
    return _digest([front_end_result(s) for s in front_end_inputs()])


def loc_paste_digests():
    """sha256 of each paste of `inputs.paste_requests(0)` by a freshly
    seeded `loc` model: its same-type candidates score alike, so the
    rankings hold exact ties and the output follows ICM's tie-break."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import inputs
    out = {}
    for req in inputs.paste_requests(0):
        inst = infer.make_paste_instance(req.target, req.snippet, req.line,
                                         req.col)
        types, lexemes = build_vocab([inst])
        params = ModelParams("loc", Hyper(hidden=8), types, lexemes, seed=0)
        text, best, _ = infer.paste(req.target, req.snippet, req.line,
                                    req.col, params)
        out[req.name] = _digest([text, sorted(best.mapping.items()),
                                 best.total_log_prob,
                                 sorted(best.rankings.items())])
    return out


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
    record["front_end"] = front_end_digest()
    record["loc_pastes"] = loc_paste_digests()
    with open(PATH, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
