"""Command-line interface.

Exit codes: 0 on success, 1 on a task-level failure (bad input data, model
mismatch, inference error), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Dict, List, Optional

from . import evaluation, generator, taskgen, train as training
from .dataflow import dataflow_uses, dump_dataflow
from .infer import NoCandidates, SpliceError, paste
from .minilang import compile_source
from .minilang.checker import CheckError
from .minilang.lexer import LexError
from .minilang.parser import ParseError
from .models import (CONTEXT_ENCODERS, VARIANTS, Encoder, Hyper, ModelParams,
                     VariantError, build_vocab, dump_usage_vectors)


class CliError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get("SMARTPASTE_SEED")
    return int(env) if env else 0


def _add_seed(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="RNG seed (default: $SMARTPASTE_SEED or 0)")


def _read_config_file(path: Optional[str]) -> Dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored."""
    if not path:
        return {}
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"bad config line: {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smartpaste",
        description="Data-flow-sensitive variable inference for pasted "
                    "snippets of MiniLang code.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    _add_seed(p)
    p.add_argument("--projects", type=int, default=10)
    p.add_argument("--files-per-project", type=int, default=4)
    p.add_argument("--profile", default="mixed",
                   choices=sorted(generator.PROFILES))
    p.add_argument("--out", required=True, help="corpus output directory")

    p = sub.add_parser("extract", help="extract task instances from a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output .jsonl path")
    p.add_argument("--max-tokens", type=int, default=80)

    p = sub.add_parser("split", help="split a corpus into train/valid/test")
    _add_seed(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--unseen-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True, help="split JSON output path")

    p = sub.add_parser("train", help="train a model")
    _add_seed(p)
    p.add_argument("--data", required=True, help="training .jsonl")
    p.add_argument("--valid", default=None,
                   help="validation .jsonl (default: the training data)")
    p.add_argument("--variant", default="hybrid", choices=VARIANTS)
    p.add_argument("--context-encoder", default="logbilinear",
                   choices=CONTEXT_ENCODERS)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--config", default=None,
                   help="key=value file overriding the options above")
    p.add_argument("--checkpoint", default="model.json",
                   help="model output path")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue training from")

    p = sub.add_parser("eval", help="evaluate a trained model")
    _add_seed(p)
    p.add_argument("--data", required=True, help="evaluation .jsonl")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--mode", default="all",
                   choices=["per-placeholder", "full-snippet", "same-type",
                            "all"])
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-sweeps", type=int, default=10)

    p = sub.add_parser("paste", help="splice a snippet and infer variables")
    _add_seed(p)
    p.add_argument("--target", required=True, help="target .ml0 file")
    p.add_argument("--snippet", required=True, help="snippet file")
    p.add_argument("--at", required=True, metavar="LINE:COL",
                   help="insertion point in the target file")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--variant", default=None, choices=VARIANTS,
                   help="must match the checkpoint when given")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-sweeps", type=int, default=10)
    p.add_argument("--out", default=None,
                   help="write the rewritten program here (default: stdout)")

    p = sub.add_parser("dump-dataflow",
                       help="print the use relations of a program")
    p.add_argument("--file", required=True, help=".ml0 source file")

    p = sub.add_parser("dump-usage-vectors",
                       help="print usage vectors for an instance file")
    p.add_argument("--data", required=True, help=".jsonl path")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--limit", type=int, default=None,
                   help="only the first N instances")
    return ap


# --- subcommand bodies ------------------------------------------------------

def _cmd_generate(args) -> int:
    generator.generate_corpus(args.seed, args.projects,
                              args.files_per_project, args.profile,
                              out_dir=args.out)
    print(f"wrote {args.projects} projects to {args.out}")
    return 0


def _instances_from_corpus(corpus_dir: str, max_tokens: int
                           ) -> List[taskgen.TaskInstance]:
    out = []
    for project, files in sorted(generator.load_corpus_dir(corpus_dir).items()):
        for name, source in files:
            program = compile_source(source, file_id=f"{project}/{name}")
            out.extend(taskgen.extract_instances(program, max_tokens))
    return out


def _cmd_extract(args) -> int:
    instances = _instances_from_corpus(args.corpus, args.max_tokens)
    taskgen.write_instances(instances, args.out)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def _cmd_split(args) -> int:
    corpus = generator.load_corpus_dir(args.corpus)
    files_by_project = {proj: [f"{proj}/{name}" for name, _ in files]
                        for proj, files in corpus.items()}
    split = taskgen.split_corpus(files_by_project, args.seed,
                                 args.unseen_fraction)
    with open(args.out, "w") as f:
        json.dump({"train": split.train, "valid": split.valid,
                   "test": split.test, "unseen_test": split.unseen_test},
                  f, indent=2, sort_keys=True)
    print(f"split {sum(map(len, files_by_project.values()))} files: "
          f"{len(split.train)} train, {len(split.valid)} valid, "
          f"{len(split.test)} test, {len(split.unseen_test)} unseen")
    return 0


def _cmd_train(args) -> int:
    overrides = _read_config_file(args.config)

    def opt(name, cast, default):
        return cast(overrides[name]) if name in overrides else default

    variant = opt("variant", str, args.variant)
    encoder = opt("context_encoder", str, args.context_encoder)
    train_instances = taskgen.read_instances(args.data)
    valid_instances = taskgen.read_instances(args.valid) if args.valid \
        else train_instances
    if args.resume:
        params, cfg = ModelParams.load(args.resume)
        start_epoch = int(cfg.get("epoch", -1)) + 1
    else:
        hyper = Hyper(hidden=opt("hidden", int, args.hidden),
                      context_encoder=encoder)
        types, lexemes = build_vocab(train_instances)
        params = ModelParams(variant, hyper, types, lexemes, seed=args.seed)
        start_epoch = 0
    config = training.TrainConfig(
        epochs=opt("epochs", int, args.epochs),
        batch_size=opt("batch_size", int, args.batch_size),
        lr=opt("lr", float, args.lr), seed=args.seed,
        patience=opt("patience", int, args.patience),
        checkpoint=args.checkpoint)
    result = training.fit(params, train_instances, valid_instances, config,
                          log=print, start_epoch=start_epoch)
    print(f"best valid accuracy {result.best_valid_acc:.4f} "
          f"at epoch {result.best_epoch}")
    return 0


def _cmd_eval(args) -> int:
    params, _ = ModelParams.load(args.model)
    instances = taskgen.read_instances(args.data)
    sections = {}
    if args.mode in ("per-placeholder", "all"):
        sections["per-placeholder"] = \
            evaluation.eval_per_placeholder(params, instances)
    if args.mode in ("full-snippet", "all"):
        sections["full-snippet"] = evaluation.eval_full_snippet(
            params, instances, restarts=args.restarts,
            max_sweeps=args.max_sweeps, seed=args.seed)
    if args.mode in ("same-type", "all"):
        try:
            sections["same-type"] = \
                evaluation.eval_same_type(params, instances)
        except evaluation.NoDecisions:
            if args.mode == "same-type":
                raise
    print(evaluation.format_report(sections))
    return 0


def _parse_at(at: str) -> tuple:
    try:
        line, col = at.split(":")
        return int(line), int(col)
    except ValueError:
        raise CliError(f"--at expects LINE:COL, got {at!r}")


def _cmd_paste(args) -> int:
    params, _ = ModelParams.load(args.model)
    if args.variant and args.variant != params.variant:
        raise CliError(f"checkpoint was trained for variant "
                       f"{params.variant!r}, not {args.variant!r}")
    line, col = _parse_at(args.at)
    with open(args.target) as f:
        target = f.read()
    with open(args.snippet) as f:
        snippet = f.read()
    rewritten, best, inst = paste(target, snippet, line, col,
                                  params, restarts=args.restarts,
                                  max_sweeps=args.max_sweeps, seed=args.seed)
    for ph in inst.placeholders:
        tok = inst.program.tokens[ph.token_index]
        ranked = best.rankings[ph.token_index]
        shown = ", ".join(f"{inst.program.symbol(s).name}:{p:.3f}"
                          for s, p in ranked)
        print(f"# {tok.line}:{tok.column}  -> "
              f"{inst.program.symbol(best.mapping[ph.token_index]).name}  "
              f"[{shown}]", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            f.write(rewritten)
    else:
        print(rewritten, end="")
    return 0


def _cmd_dump_dataflow(args) -> int:
    with open(args.file) as f:
        program = compile_source(f.read(), file_id=args.file)
    print(dump_dataflow(program, dataflow_uses(program)))
    return 0


def _cmd_dump_usage_vectors(args) -> int:
    params, _ = ModelParams.load(args.model)
    instances = taskgen.read_instances(args.data)
    if args.limit is not None:
        instances = instances[:args.limit]
    for inst in instances:
        enc = Encoder(params, inst.program,
                      placeholder_tokens=inst.placeholder_tokens)
        ug = dataflow_uses(inst.program)
        pairs = [(ph.token_index, v)
                 for ph in inst.placeholders for v in ph.candidates]
        print(dump_usage_vectors(enc, ug, inst.instance_id, pairs))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "extract": _cmd_extract,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "paste": _cmd_paste,
    "dump-dataflow": _cmd_dump_dataflow,
    "dump-usage-vectors": _cmd_dump_usage_vectors,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, CheckError, LexError, ParseError, VariantError,
            SpliceError, NoCandidates, taskgen.NoPlaceholders,
            taskgen.InsufficientData, evaluation.NoDecisions,
            training.NonFiniteLoss, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
