"""Task-instance construction: snippet selection, placeholder substitution,
candidate sets, corpus splits, and the line-delimited JSON instance format."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .minilang import ast
from .minilang.checker import (CheckError, TypeLattice, TypedProgram, check,
                               vars_in_scope)
from .minilang.lexer import LexError, tokenize
from .minilang.parser import ParseError, parse


class NoPlaceholders(Exception):
    pass


class InsufficientData(Exception):
    pass


@dataclass
class Placeholder:
    token_index: int
    truth: int
    candidates: List[int]
    same_type_candidates: List[int]


@dataclass
class TaskInstance:
    program: TypedProgram
    snippet_span: Tuple[int, int]
    placeholders: List[Placeholder]
    instance_id: str = ""

    @property
    def placeholder_tokens(self) -> List[int]:
        return [p.token_index for p in self.placeholders]


def _statement_runs(block: ast.Block) -> List[Tuple[int, int]]:
    """Token intervals of every contiguous run of sibling statements."""
    out = []
    stmts = block.statements
    for i in range(len(stmts)):
        for j in range(i, len(stmts)):
            out.append((stmts[i].span[0], stmts[j].span[1]))
    return out


def select_snippets(program: TypedProgram, max_tokens: int = 80
                    ) -> List[Tuple[int, int]]:
    """Candidate snippet intervals: single-statement subtrees and contiguous
    sibling-statement runs, capped at max_tokens and required to contain at
    least one non-defining variable occurrence."""
    intervals = set()
    for fn in program.ast.functions:
        for stmt in ast.walk_statements(fn.body):
            intervals.add(stmt.span)
            if isinstance(stmt, ast.Block):
                intervals.update(_statement_runs(stmt))

    def qualifies(span: Tuple[int, int]) -> bool:
        lo, hi = span
        if hi - lo + 1 > max_tokens:
            return False
        return any(t.symbol is not None and not t.is_def
                   for t in program.tokens[lo:hi + 1])

    return sorted(s for s in intervals if qualifies(s))


def make_instance(program: TypedProgram, span: Tuple[int, int],
                  instance_id: str = "") -> TaskInstance:
    """Placeholder every non-defining variable occurrence in the span;
    defining occurrences (declarations) keep their identity."""
    placeholders = []
    for tok in program.tokens[span[0]:span[1] + 1]:
        if tok.symbol is None or tok.is_def:
            continue
        truth = tok.symbol
        candidates = sorted(vars_in_scope(program, tok.index))
        truth_type = program.symbol(truth).declared_type
        same_type = [c for c in candidates
                     if program.symbol(c).declared_type == truth_type]
        placeholders.append(Placeholder(
            token_index=tok.index, truth=truth, candidates=candidates,
            same_type_candidates=same_type))
    if not placeholders:
        raise NoPlaceholders(f"no qualifying occurrence in span {span}")
    return TaskInstance(program=program, snippet_span=span,
                        placeholders=placeholders, instance_id=instance_id)


def extract_instances(program: TypedProgram, max_tokens: int = 80
                      ) -> List[TaskInstance]:
    out = []
    for k, span in enumerate(select_snippets(program, max_tokens)):
        out.append(make_instance(program, span,
                                 instance_id=f"{program.file_id}#{k}"))
    return out


# --- serialization ----------------------------------------------------------

def instance_to_json(inst: TaskInstance) -> str:
    p = inst.program
    rec = {
        "program_id": p.file_id,
        "tokens": [
            {"text": t.text, "kind": t.kind,
             **({"symbol_id": t.symbol} if t.symbol is not None else {}),
             **({"is_def": True} if t.is_def else {})}
            for t in p.tokens],
        "types": [{"name": n, "supers": sorted(p.lattice.supers[n])}
                  for n in sorted(p.lattice.supers)],
        "symbols": [{"id": s.id, "name": s.name, "type": s.declared_type}
                    for s in p.symbols],
        "snippet_span": list(inst.snippet_span),
        "placeholders": [
            {"token_index": ph.token_index, "truth": ph.truth,
             "candidates": ph.candidates,
             "same_type_candidates": ph.same_type_candidates}
            for ph in inst.placeholders],
        "instance_id": inst.instance_id,
    }
    return json.dumps(rec, sort_keys=True)


def instance_from_json(line: str) -> TaskInstance:
    """Rebuild a TaskInstance by re-checking the token stream; symbol ids are
    assigned in declaration order and therefore reproduce the record's ids."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    source = " ".join(t["text"] for t in rec["tokens"])
    tokens = tokenize(source)
    lattice = TypeLattice()
    for ty in rec["types"]:
        lattice.add_type(ty["name"], ty["supers"])
    program = check(parse(tokens), tokens, lattice=lattice,
                    file_id=rec["program_id"])
    for s, sr in zip(program.symbols, rec["symbols"]):
        if s.id != sr["id"] or s.name != sr["name"] \
                or s.declared_type != sr["type"]:
            raise ValueError(f"symbol table mismatch for {rec['program_id']}")
    for ph in rec["placeholders"]:
        if not (isinstance(ph["token_index"], int)
                and 0 <= ph["token_index"] < len(tokens)
                and isinstance(ph["truth"], int)
                and _is_int_list(ph["candidates"])
                and _is_int_list(ph["same_type_candidates"])):
            raise ValueError(f"ill-typed placeholder {ph!r:.80}")
    placeholders = [Placeholder(token_index=ph["token_index"],
                                truth=ph["truth"],
                                candidates=ph["candidates"],
                                same_type_candidates=ph["same_type_candidates"])
                    for ph in rec["placeholders"]]
    return TaskInstance(program=program,
                        snippet_span=tuple(rec["snippet_span"]),
                        placeholders=placeholders,
                        instance_id=rec.get("instance_id", ""))


def write_instances(instances: List[TaskInstance], path: str):
    with open(path, "w") as f:
        for inst in instances:
            f.write(instance_to_json(inst) + "\n")


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, int) for e in x)


def read_instances(path: str) -> List[TaskInstance]:
    """Every record of an instance file; a record that is not valid JSON,
    lacks a field, has one of the wrong type or does not compile raises
    ValueError naming the file and line."""
    out = []
    with open(path) as f:
        for number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                out.append(instance_from_json(line))
            except (KeyError, TypeError, ValueError, LexError, ParseError,
                    CheckError) as e:
                raise ValueError(f"{path}:{number}: bad instance record: "
                                 f"{type(e).__name__}: {e}") from e
    return out


# --- splits -----------------------------------------------------------------

@dataclass
class CorpusSplit:
    train: List[str] = field(default_factory=list)
    valid: List[str] = field(default_factory=list)
    test: List[str] = field(default_factory=list)
    unseen_test: List[str] = field(default_factory=list)


def split_corpus(files_by_project: Dict[str, List[str]], seed: int,
                 unseen_fraction: float = 0.0) -> CorpusSplit:
    """Hold out whole projects for unseen_test, then split the remaining
    files 60-5-35 along files."""
    rng = random.Random(seed)
    projects = sorted(files_by_project)
    n_unseen = int(round(unseen_fraction * len(projects)))
    unseen = set(rng.sample(projects, n_unseen)) if n_unseen else set()
    split = CorpusSplit()
    remaining = []
    for proj in projects:
        if proj in unseen:
            split.unseen_test.extend(sorted(files_by_project[proj]))
        else:
            remaining.extend(sorted(files_by_project[proj]))
    rng.shuffle(remaining)
    n = len(remaining)
    n_train = int(round(0.60 * n))
    n_valid = int(round(0.05 * n))
    split.train = remaining[:n_train]
    split.valid = remaining[n_train:n_train + n_valid]
    split.test = remaining[n_train + n_valid:]
    if not split.train or not split.valid or not split.test:
        raise InsufficientData(
            f"empty partition from {n} files ({len(projects)} projects, "
            f"{n_unseen} held out)")
    return split
