"""Task-instance construction: snippet selection, placeholder substitution,
candidate sets, corpus splits, and the versioned line-delimited JSON instance
file: one record per program and one (id, program, span) per instance."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .minilang import ast, compile_source
from .minilang.checker import CheckError, TypedProgram, vars_in_scope
from .minilang.lexer import LexError
from .minilang.parser import ParseError


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
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be at least 1, got {max_tokens}")
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


def make_placeholder(program: TypedProgram, t: int, truth: int = -1
                     ) -> Placeholder:
    """The placeholder at token t: its candidates are the variables in
    scope there, in id order, and its same-type candidates those declared
    with the truth's type, or none when the truth is unknown (-1)."""
    candidates = sorted(vars_in_scope(program, t))
    same_type = []
    if truth != -1:
        truth_type = program.symbol(truth).declared_type
        same_type = [c for c in candidates
                     if program.symbol(c).declared_type == truth_type]
    return Placeholder(token_index=t, truth=truth, candidates=candidates,
                       same_type_candidates=same_type)


def make_instance(program: TypedProgram, span: Tuple[int, int],
                  instance_id: str = "") -> TaskInstance:
    """Placeholder every non-defining variable occurrence in the span;
    defining occurrences (declarations) keep their identity."""
    placeholders = [make_placeholder(program, tok.index, tok.symbol)
                    for tok in program.tokens[span[0]:span[1] + 1]
                    if tok.symbol is not None and not tok.is_def]
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


# --- instance files ---------------------------------------------------------

INSTANCE_FORMAT_VERSION = 1


def write_instances(instances: List[TaskInstance], path: str):
    """A format_version header, then each program (told apart by identity)
    as its file id and token texts just before its first instance, and each
    instance as its id, the number of its program record and its span."""
    numbers: Dict[int, int] = {}  # id(program) -> its program record number
    with open(path, "w") as f:
        f.write(json.dumps({"format_version": INSTANCE_FORMAT_VERSION}) + "\n")
        for inst in instances:
            p = inst.program
            if id(p) not in numbers:
                numbers[id(p)] = len(numbers)
                f.write(json.dumps({"program": p.file_id,
                                    "tokens": [t.text for t in p.tokens]})
                        + "\n")
            f.write(json.dumps({"instance": inst.instance_id,
                                "program": numbers[id(p)],
                                "span": list(inst.snippet_span)}) + "\n")


def _program(rec: dict) -> TypedProgram:
    file_id, texts = rec["program"], rec["tokens"]
    if not (isinstance(file_id, str) and isinstance(texts, list)
            and all(isinstance(t, str) for t in texts)):
        raise ValueError("a program record is a file id and a list of "
                         "token texts")
    return compile_source(" ".join(texts), file_id=file_id)


def _instance(rec: dict, programs: List[TypedProgram]) -> TaskInstance:
    instance_id, n, span = rec["instance"], rec["program"], rec["span"]
    if not (isinstance(instance_id, str) and type(n) is int
            and isinstance(span, list) and len(span) == 2
            and all(type(x) is int for x in span)):
        raise ValueError("an instance record is an id, a program number "
                         "and a span [lo, hi]")
    if not 0 <= n < len(programs):
        raise ValueError(f"program {n} is not one of the {len(programs)} "
                         f"program records above")
    lo, hi = span
    if not 0 <= lo <= hi < len(programs[n].tokens):
        raise ValueError(f"span {span} is not within the "
                         f"{len(programs[n].tokens)} tokens of program {n}")
    return make_instance(programs[n], (lo, hi), instance_id)


def read_instances(path: str) -> List[TaskInstance]:
    """Every instance of an instance file, its placeholders derived by
    make_instance; the instances of one program record share its
    TypedProgram.  A bad header or record raises ValueError naming the file
    and line."""
    programs: List[TypedProgram] = []
    out = []
    with open(path) as f:
        records = ((n, line) for n, line in enumerate(f, start=1)
                   if line.strip())
        for k, (number, line) in enumerate(records):
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not a JSON object")
                if k == 0:
                    if rec != {"format_version": INSTANCE_FORMAT_VERSION}:
                        raise ValueError(
                            f"unsupported format_version "
                            f"{rec.get('format_version')!r}; this reader "
                            f"reads {INSTANCE_FORMAT_VERSION}")
                elif "instance" in rec:
                    out.append(_instance(rec, programs))
                else:
                    programs.append(_program(rec))
            except (KeyError, TypeError, ValueError, LexError, ParseError,
                    CheckError, NoPlaceholders) as e:
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
    if not 0 <= unseen_fraction <= 1:
        raise ValueError(f"unseen_fraction must be in [0, 1], got "
                         f"{unseen_fraction}")
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
