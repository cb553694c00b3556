"""Training: per-placeholder items, pooled in-batch softmax normalization,
Adam, and early stopping on validation accuracy."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .dataflow import UseGraph, build_cfg, dataflow_uses
from .models import Encoder, ModelParams
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


def _item_use_graph(item: Item) -> UseGraph:
    """Relations with this item's placeholder unbound; every other token,
    including the instance's other placeholders, keeps its true symbol."""
    prog = item.instance.program
    cfgs = {fn.name: build_cfg(prog, fn) for fn in prog.ast.functions}
    return dataflow_uses(prog, override={item.token: None}, cfgs=cfgs)


class ItemCache:
    """Use graphs are parameter-independent, so they are computed once per
    item and reused across epochs."""

    def __init__(self):
        self._graphs: Dict[int, UseGraph] = {}

    def graph(self, item: Item) -> UseGraph:
        key = id(item)
        if key not in self._graphs:
            self._graphs[key] = _item_use_graph(item)
        return self._graphs[key]


def train_step(params: ModelParams, batch: List[Item], adam: nn.AdamState,
               cache: ItemCache, lr: float, rng: random.Random) -> float:
    """One optimizer step.  Each item's score vector holds its own in-scope
    candidates followed by the truth usage vectors of the other items in the
    batch; the loss is the mean softmax cross-entropy."""
    encoders = [Encoder(params, item.instance.program,
                        placeholder_tokens=item.instance.placeholder_tokens,
                        training=True, rng=rng)
                for item in batch]
    usages = [enc.usage_reprs(cache.graph(item), item.token, item.candidates)
              for item, enc in zip(batch, encoders)]
    truth_idx = [item.candidates.index(item.truth) for item in batch]
    truth_vecs = [nn.gather(u, i) for u, i in zip(usages, truth_idx)]

    losses = []
    for i, (item, enc) in enumerate(zip(batch, encoders)):
        others = [truth_vecs[j] for j in range(len(batch)) if j != i]
        scores = nn.dot(enc.context_repr(item.token),
                        nn.columns([usages[i]] + others))
        loss, _ = nn.softmax_xent(scores, truth_idx[i])
        losses.append(loss)
    total = nn.mean_of(losses) if len(losses) > 1 else losses[0]
    value = total.item()
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss = {value}")
    total.backward()
    tensors = params.tensors()
    nn.adam_step(tensors, adam, lr=lr)
    for t in tensors:
        t.zero_grad()
    return value


def per_placeholder_accuracy(params: ModelParams,
                             items: Sequence[Item],
                             cache: Optional[ItemCache] = None) -> float:
    """Fraction of items whose truth ranks first among in-scope candidates
    (`Encoder.rank`), every other placeholder held at truth."""
    if not items:
        raise nn.EmptyInput("no items to evaluate")
    cache = cache if cache is not None else ItemCache()
    correct = 0
    for item in items:
        enc = Encoder(params, item.instance.program,
                      placeholder_tokens=item.instance.placeholder_tokens)
        ranked = enc.rank(cache.graph(item), item.token, item.candidates)
        correct += ranked[0][0] == item.truth
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
    run that plateaus early keeps the sharper later parameters."""
    train_items = make_items(train_instances)
    valid_items = make_items(valid_instances)
    cache = ItemCache()
    valid_cache = ItemCache()
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
        acc = per_placeholder_accuracy(params, valid_items, valid_cache)
        epochs_run = epoch - start_epoch + 1
        if log:
            log(f"{epoch}\t{epoch_loss:.6f}\t{acc:.4f}\t"
                f"{time.monotonic() - t0:.1f}")
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
