"""Train the checkpoints the benchmark loads, from a seeded loops corpus.

    python3 bench/make_checkpoints.py [--out bench/checkpoints]

Recipe: the loops corpus of generator seed 1 (32 projects x 2 files), four
instances spread over each file's snippets (256 instances), the first 80% for
training and the last 20% as the held-out validation set that early stopping
selects on.  Both models use hidden size 16, batch 8, lr 1e-3 and training
seed 1; `hybrid` uses tree depth 8.  This is the acceptance suite's recipe
for its pasted-loop models on a corpus 2.7 times larger: a hybrid model
trained on the suite's 12 projects recovers the fixture but lands in
role-swapped assignments on most cut loops.  Hybrid training takes several
minutes.
"""

from __future__ import annotations

import argparse
import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import corpus  # noqa: E402
from smartpaste.models import Hyper, ModelParams, build_vocab  # noqa: E402
from smartpaste.train import TrainConfig, fit  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

PROJECTS = 32
RECIPES = [
    ("avgg", Hyper(hidden=16), 3),
    ("hybrid", Hyper(hidden=16, tree_depth=8), 2),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "checkpoints"))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    insts = corpus.spread_instances(
        corpus.compiled_programs(corpus.TRAIN_SEED, PROJECTS, 2))
    n_train = int(0.8 * len(insts))
    train, valid = insts[:n_train], insts[n_train:]
    types, lexemes = build_vocab(insts)
    for variant, hyper, epochs in RECIPES:
        params = ModelParams(variant, hyper, types, lexemes,
                             seed=corpus.TRAIN_SEED)
        path = os.path.join(args.out, f"{variant}.json")
        result = fit(params, train, valid,
                     TrainConfig(epochs=epochs, batch_size=8, lr=1e-3,
                                 seed=corpus.TRAIN_SEED, checkpoint=path),
                     log=lambda line, v=variant: print(f"{v}\t{line}",
                                                       flush=True))
        print(f"{variant}: {len(train)} train / {len(valid)} valid "
              f"instances, best valid accuracy {result.best_valid_acc:.4f} "
              f"at epoch {result.best_epoch} -> {path}", flush=True)


if __name__ == "__main__":
    main()
