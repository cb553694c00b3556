"""Batching, the pooled-softmax training step, and the fit loop."""

import gc
import json
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from smartpaste import dataflow, models, nn
from smartpaste import train as train_module
from smartpaste.minilang import compile_source
from smartpaste.minilang.checker import supertype_closure
from smartpaste.dataflow import dataflow_uses
from smartpaste.models import (Encoder, Hyper, ModelParams, build_vocab,
                               usage_batch)
from smartpaste.taskgen import extract_instances
from smartpaste.train import (ItemCache, NonFiniteLoss, TrainConfig, fit,
                              make_batches, make_items,
                              per_placeholder_accuracy, train_step,
                              truth_rankings)

from conftest import corpus_instances
from rank_reference import reference_rank

# Two programs whose variables have nominal types with three-member
# supertype closures, so type dropout draws at training time.  In the first,
# `w` is declared right after the placeholder `b` of `Mid q = b;`, inside
# that item's own c(t) window: the batched step, which requests every c(t)
# after every walk, and the per-item reference use `w`'s type in different
# orders.
LATTICE_PROGRAMS = ["""\
type Base;
type Mid implements Base;
type Leaf implements Mid;
extern fn use(Base) -> int;
extern fn pick(Mid, Base) -> Mid;
extern fn mk() -> Leaf;
int f(Leaf a, Mid b, Leaf c, int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    Mid q = b;
    Leaf w = mk();
    b = pick(a, q);
    s += use(c) + use(w);
    i++;
  }
  return s + use(a);
}
""", """\
type Base;
type Mid implements Base;
type Leaf implements Mid;
extern fn use(Base) -> int;
extern fn mk() -> Leaf;
int g(Mid m, Base k, int lim) {
  Leaf x = mk();
  int t = use(k);
  for (int j = 0; j < lim; j++) {
    if (use(m) > j) { t += use(x); } else { t += use(k); }
    m = x;
  }
  return t;
}
"""]


@pytest.fixture(scope="module")
def lattice_instances():
    """The largest instance of each lattice program."""
    return [max(extract_instances(compile_source(src), 80),
                key=lambda inst: len(inst.placeholders))
            for src in LATTICE_PROGRAMS]


def reference_train_step(params, batch, adam, cache, lr, rng):
    """The training step one item at a time: each item's own `usage_batch`
    (its own context batch and GRU steps) over a use graph built from
    scratch with its placeholder unbound, not `cache`'s, and its own c(t),
    walked in the reference's own order.  Each item's encoder takes its
    type-dropout seed from `rng` in batch order, as the batched step's
    do."""
    encoders = [Encoder(params, item.instance.program,
                        placeholder_tokens=item.instance.placeholder_tokens,
                        training=True, rng=rng)
                for item in batch]
    usages = []
    for item, enc in zip(batch, encoders):
        ug = dataflow_uses(item.instance.program, {item.token: None})
        usages.append(usage_batch([
            (enc, item.token, v, ug.occurrences.get(v, ()))
            for v in item.candidates]))
    truth_idx = [item.candidates.index(item.truth) for item in batch]
    truth_vecs = [nn.gather(u, i) for u, i in zip(usages, truth_idx)]
    losses = []
    for i, (item, enc) in enumerate(zip(batch, encoders)):
        others = [truth_vecs[j] for j in range(len(batch)) if j != i]
        scores = nn.dot(enc.context_repr(item.token),
                        nn.columns([usages[i]] + others))
        loss, _ = nn.softmax_xent(scores, truth_idx[i])
        losses.append(loss)
    total = nn.mean_of(losses)
    total.backward()
    tensors = params.tensors()
    nn.adam_step(tensors, adam, lr=lr)
    for t in tensors:
        t.zero_grad()
    return total.item()


@pytest.fixture(scope="module")
def loc_setup(tiny_instances):
    insts = tiny_instances[:8]
    types, lexemes = build_vocab(insts)
    return insts, types, lexemes


def fresh_params(types, lexemes, variant="loc", seed=5):
    return ModelParams(variant, Hyper(hidden=8, tree_depth=4),
                       types, lexemes, seed=seed)


class TestBatching:
    def test_items_cover_all_placeholders(self, tiny_instances):
        items = make_items(tiny_instances)
        assert len(items) == sum(len(i.placeholders) for i in tiny_instances)
        assert all(it.truth in it.candidates for it in items)

    def test_batches_partition_items(self, tiny_instances):
        items = make_items(tiny_instances)
        batches = make_batches(items, 4, random.Random(0))
        flat = [it for b in batches for it in b]
        assert sorted(id(i) for i in flat) == sorted(id(i) for i in items)
        assert all(len(b) <= 4 for b in batches)

    def test_shuffle_is_seeded(self, tiny_instances):
        items = make_items(tiny_instances)
        a = make_batches(items, 4, random.Random(3))
        b = make_batches(items, 4, random.Random(3))
        assert [[id(x) for x in batch] for batch in a] == \
            [[id(x) for x in batch] for batch in b]


class TestItemCache:
    def test_items_of_one_program_share_its_truth_graph(self,
                                                        tiny_instances):
        """Every item of a program gets the same (flow, occurrences) pair,
        the flow of that program and every token at its true symbol."""
        items = make_items(tiny_instances)
        cache = ItemCache()
        graphs = {}
        for item in items:
            program = item.instance.program
            graph = graphs.setdefault(id(program), cache.graph(item))
            assert cache.graph(item) is graph
            flow, truth = graph
            assert flow.program is program
            assert truth == dataflow_uses(program).occurrences
        assert len(graphs) < len(items)

    def test_fit_builds_one_flow_per_training_program(self, loc_setup,
                                                      monkeypatch):
        """Two epochs of `fit` construct one `ProgramFlow` per training
        program for their steps, reused across items and epochs."""
        insts, types, lexemes = loc_setup
        built = []
        flow = train_module.ProgramFlow
        monkeypatch.setattr(train_module, "ProgramFlow",
                            lambda program: built.append(program)
                            or flow(program))
        result = fit(fresh_params(types, lexemes), insts, insts[:2],
                     TrainConfig(epochs=2, batch_size=4, seed=2, patience=2))
        assert result.epochs_run == 2
        programs = {id(inst.program) for inst in insts}
        assert len(programs) < len(make_items(insts))
        assert sorted(map(id, built)) == sorted(programs)

    def test_a_step_over_cached_programs_builds_no_flow(self, loc_setup,
                                                        monkeypatch):
        """A training step whose programs are all in `ItemCache` constructs
        no `ProgramFlow`, neither where `train` binds the class nor where
        `models` and `dataflow` do: each item's encoder solves relations
        with its program's flow from the cache.  On an empty cache the
        step builds one flow per program of the batch."""
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes, variant="grud")
        batch = make_items(insts)[:6]
        flow = dataflow.ProgramFlow
        assert models.ProgramFlow is flow and train_module.ProgramFlow is flow
        built = []
        init = flow.__init__

        def counted(self, program):
            built.append(program)
            init(self, program)

        monkeypatch.setattr(flow, "__init__", counted)
        cache = ItemCache()
        adam = nn.AdamState(params.tensors())
        train_step(params, batch, adam, cache, 1e-3, random.Random(0))
        programs = list(dict.fromkeys(id(item.instance.program)
                                      for item in batch))
        assert len(programs) < len(batch)
        assert list(map(id, built)) == programs
        built.clear()
        train_step(params, batch, adam, cache, 1e-3, random.Random(1))
        assert built == []


class TestTrainStep:
    def test_loss_finite_and_params_move(self, loc_setup):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        before = {n: t.data.copy() for n, t in params.named().items()}
        adam = nn.AdamState(params.tensors())
        items = make_items(insts)[:6]
        loss = train_step(params, items, adam, ItemCache(), 1e-2,
                          random.Random(0))
        assert np.isfinite(loss) and loss > 0
        moved = any(not np.array_equal(before[n], t.data)
                    for n, t in params.named().items())
        assert moved

    def test_gradients_cleared_after_step(self, loc_setup):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        adam = nn.AdamState(params.tensors())
        train_step(params, make_items(insts)[:4], adam, ItemCache(), 1e-3,
                   random.Random(0))
        assert all(t.grad is None for t in params.tensors())

    def test_in_batch_normalization_pools_other_truths(self, loc_setup):
        """The same item gets a different loss when other items join the
        batch, because their truth usage vectors enter its softmax."""
        insts, types, lexemes = loc_setup
        items = make_items(insts)[:4]

        def loss_of(batch):
            params = fresh_params(types, lexemes)
            adam = nn.AdamState(params.tensors())
            return train_step(params, batch, adam, ItemCache(), 0.0,
                              random.Random(0))

        alone = loss_of(items[:1])
        assert loss_of(items) != pytest.approx(alone)

    @pytest.mark.parametrize("variant", ["hybrid", "grug"])
    def test_one_batch_matches_items_one_at_a_time(self, lattice_instances,
                                                   variant):
        """Two steps of the batched step against the per-item reference,
        with type dropout 0.5: each walks in its own order, and the draws
        still agree, since each depends on its encoder's seed and symbol
        only.  The losses and every parameter after each Adam step agree to
        1e-12."""
        _check_one_batch_matches_items(lattice_instances, variant)

    @pytest.mark.parametrize("variant", ["hybrid", "grug"])
    def test_one_batch_matches_items_one_closure_member(self, variant):
        """As above on generated `loops` programs, where every supertype
        closure has one member: each type representation is its embedding
        itself, which the windows and type banks of the batch's eight
        encoders all read."""
        insts = corpus_instances(5, 2, 1, "loops")
        assert all(len(supertype_closure(inst.program.lattice,
                                         sym.declared_type)) == 1
                   for inst in insts for sym in inst.program.symbols)
        _check_one_batch_matches_items(insts, variant)

    def test_non_finite_loss_raises(self, loc_setup):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        for t in params.tensors():
            t.data[...] = 1e300
        adam = nn.AdamState(params.tensors())
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train_step(params, make_items(insts)[:2], adam, ItemCache(),
                       1e-3, random.Random(0))

    def test_step_and_validation_leave_no_reference_cycles(self, loc_setup):
        """The step's encoders and tape, and the validation encoders and
        their control-flow graphs, are freed with their last reference, not
        left for the cycle collector."""
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes, variant="hybrid")
        adam = nn.AdamState(params.tensors())
        items = make_items(insts)
        gc.collect()
        gc.disable()
        try:
            train_step(params, items[:8], adam, ItemCache(), 1e-3,
                       random.Random(0))
            per_placeholder_accuracy(params, items)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _check_one_batch_matches_items(instances, variant):
    """Two batches of 8 items: the batched step and the per-item reference
    agree on both losses and on every parameter after each Adam step, to
    1e-12."""
    items = make_items(instances)
    a, b = (items[:4] + items[-4:]), (items[4:8] + items[-8:-4])
    types, lexemes = build_vocab(instances)
    runs = []
    for step in (train_step, reference_train_step):
        params = ModelParams(variant, Hyper(hidden=6, tree_depth=4,
                                            type_dropout=0.5),
                             types, lexemes, seed=2)
        adam = nn.AdamState(params.tensors())
        cache, rng = ItemCache(), random.Random(4)
        losses = [step(params, batch, adam, cache, 1e-2, rng)
                  for batch in (a, b)]
        runs.append((losses, params.named()))
    (got, got_params), (want, want_params) = runs
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-12 * abs(y)
    for name, t in want_params.items():
        assert np.abs(got_params[name].data - t.data).max() <= 1e-12, name


@pytest.mark.parametrize("same_type", [False, True])
@pytest.mark.parametrize("variant", ["loc", "avgg", "grug", "grud", "hybrid"])
def test_truth_rankings_match_rank_single(lattice_instances, tiny_instances,
                                          variant, same_type):
    """All items of an instance ranked in one batch give each item the
    ranking `reference_rank` gives it alone on a fresh encoder: the same
    order and probabilities within 1e-12."""
    insts = lattice_instances + tiny_instances[:6]
    items = make_items(insts)
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=4),
                         *build_vocab(insts), seed=8)
    got = list(truth_rankings(params, items, same_type=same_type))
    kept = [item for item in items if not same_type or len(
        item.instance.placeholders[item.placeholder].same_type_candidates)
        >= 2]
    assert [item for item, _ in got] == kept and kept
    for item, ranked in got:
        inst = item.instance
        ph = inst.placeholders[item.placeholder]
        if same_type:
            ph = replace(ph, candidates=ph.same_type_candidates)
        want = reference_rank(params, inst, ph, {
            p.token_index: p.truth for p in inst.placeholders})
        assert [v for v, _ in ranked] == [v for v, _ in want]
        assert max(abs(p - q) for (_, p), (_, q) in zip(ranked, want)) \
            <= 1e-12


class TestFit:
    def test_loss_decreases_and_accuracy_reported(self, loc_setup):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        logs = []
        result = fit(params, insts, insts,
                     TrainConfig(epochs=4, batch_size=4, lr=1e-2, seed=2,
                                 patience=4),
                     log=logs.append)
        assert len(logs) == result.epochs_run
        assert result.losses[-1] < result.losses[0]
        assert 0.0 <= result.best_valid_acc <= 1.0

    def test_log_is_one_json_object_per_epoch(self, loc_setup):
        insts, types, lexemes = loc_setup
        logs = []
        result = fit(fresh_params(types, lexemes), insts, insts[:3],
                     TrainConfig(epochs=3, batch_size=4, seed=2, patience=3),
                     log=logs.append, start_epoch=2)
        records = [json.loads(line) for line in logs]
        assert [r["epoch"] for r in records] == [2, 3, 4]
        for record, loss in zip(records, result.losses):
            assert set(record) == {"epoch", "loss", "valid_acc", "train_s",
                                   "valid_s", "items_per_s"}
            assert record["loss"] == loss
            assert 0.0 <= record["valid_acc"] <= 1.0
            assert record["train_s"] >= 0 and record["valid_s"] >= 0
            assert record["items_per_s"] > 0

    def test_log_of_an_epoch_without_items_or_elapsed_time(
            self, loc_setup, monkeypatch):
        insts, types, lexemes = loc_setup
        # a clock that does not advance: an epoch takes no measurable time
        monkeypatch.setattr(train_module, "time",
                            SimpleNamespace(monotonic=lambda: 5.0))
        logs = []
        fit(fresh_params(types, lexemes), [], insts[:3],
            TrainConfig(epochs=1, batch_size=4, seed=2, patience=1),
            log=logs.append)
        record = json.loads(logs[0])
        assert record["epoch"] == 0 and record["loss"] == 0.0
        assert record["train_s"] == 0.0 and record["items_per_s"] == 0.0

    def test_deterministic_given_seed(self, loc_setup):
        insts, types, lexemes = loc_setup
        runs = []
        for _ in range(2):
            params = fresh_params(types, lexemes)
            fit(params, insts, insts,
                TrainConfig(epochs=2, batch_size=4, seed=7, patience=2))
            runs.append({n: t.data.copy()
                         for n, t in params.named().items()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name]), name

    def test_early_stopping_and_best_restore(self, loc_setup, tmp_path):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        ckpt = str(tmp_path / "best.json")
        result = fit(params, insts, insts,
                     TrainConfig(epochs=50, batch_size=4, lr=1e-2, seed=2,
                                 patience=2, checkpoint=ckpt))
        assert result.epochs_run <= 50
        # restored parameters reproduce the reported best accuracy
        acc = per_placeholder_accuracy(params, make_items(insts))
        assert acc == pytest.approx(result.best_valid_acc)

    def test_checkpoint_records_epoch(self, loc_setup, tmp_path):
        insts, types, lexemes = loc_setup
        params = fresh_params(types, lexemes)
        ckpt = str(tmp_path / "m.json")
        result = fit(params, insts, insts,
                     TrainConfig(epochs=2, batch_size=4, seed=2, patience=2,
                                 checkpoint=ckpt))
        loaded, cfg = ModelParams.load(ckpt)
        assert cfg["epoch"] == result.best_epoch
        for name, t in loaded.named().items():
            assert np.array_equal(t.data, params.named()[name].data)


def test_accuracy_requires_items(loc_setup):
    insts, types, lexemes = loc_setup
    with pytest.raises(nn.EmptyInput):
        per_placeholder_accuracy(fresh_params(types, lexemes), [])
