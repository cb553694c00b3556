"""The three workloads.  Each makes its inputs from the seed in `setup`,
runs one round of operations per `run_round` call (the same operations every
round), and checks the outputs of its rounds in `failures`."""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from typing import List

import corpus
import checks
import inputs
from smartpaste import cli, evaluation, taskgen
from smartpaste import train as training
from smartpaste.models import Hyper, ModelParams, build_vocab

CHECKPOINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "checkpoints")
RESTARTS = 5
MAX_SWEEPS = 10


class Ops:
    """Times operations and stamps the tracer's operation id on the spans
    recorded while one runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations: List[float] = []

    def run(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.durations)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = None


class PasteHybrid:
    """Paste requests through the `paste` command entry point, in process:
    the test suite's pasted-loop fixture plus loops of the same size cut
    from held-out programs and pasted back where they were cut.  One
    operation is one request."""

    checkpoint = os.path.join(CHECKPOINTS, "hybrid.json")
    ACCURACY_FLOOR = 0.75

    def setup(self, seed: int, workdir: str, ops: Ops):
        self.ops = ops
        self.requests = inputs.paste_requests(seed)
        self.argv = []
        for k, req in enumerate(self.requests):
            paths = {}
            for part in ("target", "snippet"):
                paths[part] = os.path.join(workdir, f"{k}.{part}.ml0")
                with open(paths[part], "w") as f:
                    f.write(getattr(req, part))
            self.argv.append([
                "paste", "--target", paths["target"],
                "--snippet", paths["snippet"], "--at", f"{req.line}:{req.col}",
                "--model", self.checkpoint, "--restarts", str(RESTARTS),
                "--max-sweeps", str(MAX_SWEEPS), "--seed", "0",
                "--out", os.path.join(workdir, f"{k}.out.ml0")])
        self.results = []  # per request: (rewritten, assignment, instance)
        paste = cli.paste

        def captured(*args, **kwargs):
            result = paste(*args, **kwargs)
            self.results.append(result)
            return result
        cli.paste = captured
        self.rounds = []
        self.exit_codes = []

    def run_round(self):
        outputs = []
        for argv in self.argv:
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.ops.run(cli.main, argv)
            self.exit_codes.append(code)
            if code == 0:
                with open(argv[-1]) as f:
                    outputs.append(f.read())
            else:
                outputs.append(None)
        self.rounds.append(outputs)
        return outputs

    def placeholder_count(self) -> int:
        return sum(len(r.truth) for r in self.requests)

    def accuracy(self) -> float:
        hits = 0
        for req, (_, best, inst) in zip(self.requests, self.results):
            got = checks.chosen_names(inst, best.mapping)
            hits += sum(g == w for g, w in zip(got, req.truth))
        return hits / self.placeholder_count()

    def failures(self) -> List[str]:
        out = [f"paste exited with {c}" for c in self.exit_codes if c != 0]
        n = len(self.requests)
        for k, (req, (rewritten, best, inst)) in enumerate(
                zip(self.requests, self.results)):
            out += checks.paste_failures(req, rewritten, best, inst)
            if self.rounds[0][k] != rewritten:
                out.append(f"{req.name}: --out file differs from the "
                           f"rewritten program")
        for r, outputs in enumerate(self.rounds[1:], start=1):
            if outputs != self.rounds[0]:
                out.append(f"round {r} rewrote differently from round 0")
        if len(self.results) != n * len(self.rounds):
            out.append(f"{len(self.results)} paste results for "
                       f"{len(self.rounds)} rounds of {n} requests")
        _, best, inst = self.results[0]
        got = checks.chosen_names(inst, best.mapping)
        if got != inputs.FIXTURE_TRUTH:
            out.append(f"fixture inferred {got}, want "
                       f"{inputs.FIXTURE_TRUTH}")
        acc = self.accuracy()
        if acc < self.ACCURACY_FLOOR:
            out.append(f"accuracy {acc:.4f} below {self.ACCURACY_FLOOR}")
        return out

    def outputs(self):
        return self.rounds[0]


class EvalAvgg:
    """Full-snippet evaluation (`smartpaste eval --mode full-snippet`) over
    held-out instances written to and read back from an instance file.
    One operation is one instance's joint inference."""

    checkpoint = os.path.join(CHECKPOINTS, "avgg.json")
    WHILE_BODIES = 22
    FOR_BODIES = 10
    SMALL = 8

    def setup(self, seed: int, workdir: str, ops: Ops):
        self.params, _ = ModelParams.load(self.checkpoint)
        path = os.path.join(workdir, "instances.jsonl")
        taskgen.write_instances(
            inputs.eval_instances(seed, self.WHILE_BODIES, self.FOR_BODIES,
                                  self.SMALL), path)
        self.jsonl_bytes = os.path.getsize(path)
        self.instances = taskgen.read_instances(path)
        self.results = []  # per icm call: (instance, assignment, trace)
        icm = evaluation.icm

        def timed(inst, params, *args, **kwargs):
            trace = kwargs.setdefault("trace", [])
            best = ops.run(icm, inst, params, *args, **kwargs)
            self.results.append((inst, best, trace))
            return best
        evaluation.icm = timed
        self.reports = []

    def run_round(self):
        report = evaluation.eval_full_snippet(
            self.params, self.instances, restarts=RESTARTS,
            max_sweeps=MAX_SWEEPS, seed=0)
        self.reports.append(report)
        return report

    def placeholder_count(self) -> int:
        return inputs.placeholder_count(self.instances)

    def accuracy(self) -> float:
        return self.reports[0].accuracy

    def first_round(self):
        return self.results[:len(self.instances)]

    def failures(self) -> List[str]:
        out: List[str] = []
        n = len(self.instances)
        if len(self.results) != n * len(self.reports):
            return [f"{len(self.results)} icm calls for {len(self.reports)}"
                    f" rounds of {n} instances"]
        hits = exact = 0
        optimal = eligible = 0
        for k, (inst, best, trace) in enumerate(self.first_round()):
            label = inst.instance_id
            out += checks.dataflow_failures(inst.program, best.mapping,
                                            f"{label} (assignment)")
            out += checks.dataflow_failures(
                inst.program, {t: None for t in best.mapping},
                f"{label} (unbound)")
            out += checks.monotone_failures(trace, label)
            out += checks.ranking_failures(best.rankings, label)
            right = [best.mapping[p.token_index] == p.truth
                     for p in inst.placeholders]
            hits += sum(right)
            exact += all(right)
            is_optimal = checks.map_optimal(inst, self.params, best)
            if is_optimal is not None:
                eligible += 1
                optimal += is_optimal
            for r in range(1, len(self.reports)):
                again = self.results[r * n + k][1]
                if again.mapping != best.mapping \
                        or again.total_log_prob != best.total_log_prob:
                    out.append(f"{label}: round {r} assignment differs")
        report = self.reports[0]
        if hits / report.count != report.accuracy \
                or exact / n != report.extra["exact"]:
            out.append(f"recomputed accuracy {hits / report.count} / exact "
                       f"{exact / n} differ from the report's "
                       f"{report.accuracy} / {report.extra['exact']}")
        if eligible and optimal < checks.MAP_SHARE * eligible:
            out.append(f"ICM reached the exhaustive optimum on {optimal} of "
                       f"{eligible} small instances")
        return out

    def outputs(self):
        return [(inst.instance_id, sorted(best.mapping.items()),
                 best.total_log_prob)
                for inst, best, _ in self.first_round()]


class TrainHybrid:
    """`fit` of a freshly seeded hybrid model on a fixed training subset,
    validated on held-out programs; every round trains the same model from
    the same initialization.  One operation is one optimizer step."""

    TRAIN_ITEMS = 128
    VALID_ITEMS = 64
    EPOCHS = 2
    LR = 3e-3
    GRAD_COORDS = 12

    def setup(self, seed: int, workdir: str, ops: Ops):
        self.seed = seed
        self.train, self.valid = inputs.train_split(
            seed, self.TRAIN_ITEMS, self.VALID_ITEMS)
        self.types, self.lexemes = build_vocab(self.train)
        self.losses: List[List[float]] = []
        step = training.train_step

        def timed(*args, **kwargs):
            loss = ops.run(step, *args, **kwargs)
            self.losses[-1].append(loss)
            return loss
        training.train_step = timed
        self.fits = []

    def run_round(self):
        self.losses.append([])
        self.params = ModelParams("hybrid", Hyper(hidden=16, tree_depth=8),
                                  self.types, self.lexemes,
                                  seed=corpus.TRAIN_SEED)
        result = training.fit(
            self.params, self.train, self.valid,
            training.TrainConfig(epochs=self.EPOCHS, batch_size=8, lr=self.LR,
                                 seed=0, patience=self.EPOCHS))
        self.fits.append(result)
        return result

    def placeholder_count(self) -> int:
        return 0  # training decides no placeholder by joint inference

    def accuracy(self) -> float:
        return self.fits[0].best_valid_acc

    def failures(self) -> List[str]:
        out: List[str] = []
        losses = self.losses[0]
        if not all(math.isfinite(x) for x in losses):
            out.append(f"non-finite step loss in {losses}")
        k = max(1, len(losses) // 3)
        first, last = statistics.mean(losses[:k]), statistics.mean(losses[-k:])
        if not last < first:
            out.append(f"mean loss of the last {k} steps {last:.4f} is not "
                       f"below that of the first {k} {first:.4f}")
        for r, again in enumerate(self.losses[1:], start=1):
            if again != losses:
                out.append(f"round {r} step losses differ from round 0")
        # the item the trained model fits worst has the largest gradients
        item = max(training.make_items(self.valid)[:8],
                   key=lambda it: checks.item_loss(self.params, it).item())
        out += checks.gradient_failures(
            *checks.item_gradients(self.params, item, self.GRAD_COORDS,
                                   seed=self.seed),
            "trained hybrid, worst valid item")
        return out

    def outputs(self):
        return [self.losses[0], self.fits[0].best_valid_acc]


WORKLOADS = {
    "paste-hybrid": PasteHybrid,
    "eval-avgg": EvalAvgg,
    "train-hybrid": TrainHybrid,
}
