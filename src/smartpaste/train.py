"""Training: per-placeholder items, pooled in-batch softmax normalization,
Adam, and early stopping on validation accuracy.

A training step encodes its items' `models.score_key`s under their
programs' true occurrences in `ItemCache` in one `models.usage_batch`;
each item's encoder takes its program's flow from there, so the relations
it solves outlive the step.  Validation ranks as evaluation
does: `truth_rankings` ranks all items of an instance in one
`infer.rank_placeholders` call on one inference `Encoder`, as rows of
ICM's score matrix."""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import nn
from .dataflow import ProgramFlow, occurrences
from .infer import rank_placeholders
from .models import Encoder, ModelParams, score_key, usage_batch
from .taskgen import TaskInstance


class NonFiniteLoss(Exception):
    pass


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    lr: float = 1e-3
    seed: int = 0
    patience: int = 5
    checkpoint: Optional[str] = None

    def __post_init__(self):
        for name in ("epochs", "batch_size", "patience"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and above 0, got {self.lr}")


@dataclass
class Item:
    """One training example: a single placeholder of an instance, all other
    placeholders bound to their truth."""

    instance: TaskInstance
    placeholder: int  # index into instance.placeholders

    def __post_init__(self):
        ph = self.instance.placeholders[self.placeholder]
        self.token = ph.token_index
        self.truth = ph.truth
        self.candidates = ph.candidates


def make_items(instances: Sequence[TaskInstance]) -> List[Item]:
    return [Item(inst, i)
            for inst in instances for i in range(len(inst.placeholders))]


def make_batches(items: List[Item], batch_size: int,
                 rng: random.Random) -> List[List[Item]]:
    order = list(range(len(items)))
    rng.shuffle(order)
    return [[items[i] for i in order[k:k + batch_size]]
            for k in range(0, len(order), batch_size)]


class ItemCache:
    """Each training program's flow and true occurrences, every token at
    its true symbol.  Both are parameter-independent, so they are made
    once and reused across epochs by every item of the program: its step
    reads usages from the occurrences through `models.score_key` with its
    placeholder unbound, and its encoder solves relations with the flow."""

    def __init__(self):
        self._graphs: Dict[int, Tuple[ProgramFlow, dict]] = {}

    def graph(self, item: Item) -> Tuple[ProgramFlow, dict]:
        program = item.instance.program
        if id(program) not in self._graphs:
            self._graphs[id(program)] = (ProgramFlow(program),
                                         occurrences(program))
        return self._graphs[id(program)]


def train_step(params: ModelParams, batch: List[Item], adam: nn.AdamState,
               cache: ItemCache, lr: float, rng: random.Random) -> float:
    """One optimizer step.  Each item's score vector holds its own in-scope
    candidates followed by the truth usage vectors of the other items in the
    batch; the loss is the mean softmax cross-entropy.  Every item has its
    own training `Encoder` (its placeholder tokens, and a type-dropout seed
    from `rng` in batch order), and all items go through one `usage_batch`:
    one tape for the whole batch, whose walk order moves no draw.  From
    `cache`, an item's encoder takes its program's flow, which outlives
    the step, and its usages are its candidates' `score_key`s under the
    program's true occurrences, its token unbound from its truth."""
    graphs = [cache.graph(item) for item in batch]
    encoders = [Encoder(params, item.instance.program,
                        placeholder_tokens=item.instance.placeholder_tokens,
                        training=True, rng=rng, flow=flow)
                for item, (flow, _) in zip(batch, graphs)]
    reprs = usage_batch([
        (enc, *score_key(truth, item.truth, item.token, v))
        for item, enc, (_, truth) in zip(batch, encoders, graphs)
        for v in item.candidates])
    starts = list(accumulate((len(item.candidates) for item in batch),
                             initial=0))
    truth_idx = [item.candidates.index(item.truth) for item in batch]
    truth_cols = [start + i for start, i in zip(starts, truth_idx)]

    losses = []
    for i, (item, enc) in enumerate(zip(batch, encoders)):
        cols = list(range(starts[i], starts[i + 1])) \
            + truth_cols[:i] + truth_cols[i + 1:]
        scores = nn.dot(enc.context_repr(item.token),
                        nn.gather(reprs, cols))
        loss, _ = nn.softmax_xent(scores, truth_idx[i])
        losses.append(loss)
    total = nn.mean_of(losses)
    value = total.item()
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss = {value}")
    total.backward()
    tensors = params.tensors()
    nn.adam_step(tensors, adam, lr=lr)
    for t in tensors:
        t.zero_grad()
    return value


def truth_rankings(params: ModelParams, items: Iterable[Item],
                   same_type: bool = False
                   ) -> Iterator[Tuple[Item, List[Tuple[int, float]]]]:
    """Each item with its ranking, every other placeholder of its instance
    at its truth: the consecutive items of an instance go through one
    `rank_placeholders` call on one inference `Encoder`.  `same_type` ranks
    among the placeholder's same-type candidates instead of all in-scope
    ones, and skips the items with fewer than two."""
    for _, run in groupby(items, key=lambda item: id(item.instance)):
        kept, phs = [], []
        for item in run:
            ph = item.instance.placeholders[item.placeholder]
            if same_type:
                if len(ph.same_type_candidates) < 2:
                    continue
                ph = replace(ph, candidates=ph.same_type_candidates)
            kept.append(item)
            phs.append(ph)
        if not kept:
            continue
        inst = kept[0].instance
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
        truth = {p.token_index: p.truth for p in inst.placeholders}
        yield from zip(kept, rank_placeholders(inst, encoder, phs, truth))


def per_placeholder_accuracy(params: ModelParams,
                             items: Sequence[Item]) -> float:
    """Fraction of items whose truth ranks first among in-scope candidates,
    every other placeholder held at truth (`truth_rankings`)."""
    if not items:
        raise nn.EmptyInput("no items to evaluate")
    correct = sum(ranked[0][0] == item.truth
                  for item, ranked in truth_rankings(params, items))
    return correct / len(items)


@dataclass
class FitResult:
    best_valid_acc: float
    best_epoch: int
    epochs_run: int
    losses: List[float] = field(default_factory=list)


def fit(params: ModelParams, train_instances: Sequence[TaskInstance],
        valid_instances: Sequence[TaskInstance], config: TrainConfig,
        log: Optional[Callable[[str], None]] = None,
        start_epoch: int = 0) -> FitResult:
    """Epoch loop with early stopping on validation per-placeholder accuracy;
    the best parameters are restored (and checkpointed) at the end.  Ties in
    validation accuracy go to the epoch with the lower training loss, so a
    run that plateaus early keeps the sharper later parameters.  `log`
    receives one JSON object per epoch: `epoch`, `loss` (mean training
    loss), `valid_acc`, `train_s` and `valid_s` (wall seconds of the
    training steps and of validation) and `items_per_s` (training items
    per second of `train_s`)."""
    train_items = make_items(train_instances)
    valid_items = make_items(valid_instances)
    cache = ItemCache()
    adam = nn.AdamState(params.tensors())
    best_acc = -1.0
    best_loss = float("inf")
    best_epoch = -1
    best_state: Dict[str, np.ndarray] = {}
    losses = []
    epochs_run = 0
    for epoch in range(start_epoch, start_epoch + config.epochs):
        t0 = time.monotonic()
        epoch_rng = random.Random(f"{config.seed}:epoch:{epoch}")
        batches = make_batches(train_items, config.batch_size, epoch_rng)
        epoch_loss = 0.0
        for batch in batches:
            epoch_loss += train_step(params, batch, adam, cache,
                                     config.lr, epoch_rng) * len(batch)
        epoch_loss /= max(len(train_items), 1)
        losses.append(epoch_loss)
        t1 = time.monotonic()
        acc = per_placeholder_accuracy(params, valid_items)
        epochs_run = epoch - start_epoch + 1
        if log:
            log(json.dumps({
                "epoch": epoch, "loss": epoch_loss, "valid_acc": acc,
                "train_s": round(t1 - t0, 4),
                "valid_s": round(time.monotonic() - t1, 4),
                "items_per_s": round(len(train_items) / (t1 - t0), 2)
                if t1 > t0 else 0.0}))
        if acc > best_acc or (acc == best_acc and epoch_loss < best_loss):
            best_acc = acc
            best_loss = epoch_loss
            best_epoch = epoch
            best_state = {n: t.data.copy()
                          for n, t in params.named().items()}
            if config.checkpoint:
                params.save(config.checkpoint,
                            extra_config={"epoch": epoch,
                                          "valid_acc": acc,
                                          "seed": config.seed})
        elif epoch - best_epoch >= config.patience:
            break
    for n, t in params.named().items():
        t.data[...] = best_state[n]
    return FitResult(best_valid_acc=best_acc, best_epoch=best_epoch,
                     epochs_run=epochs_run, losses=losses)
