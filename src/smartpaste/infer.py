"""Structured prediction over placeholders: per-placeholder conditional
ranking, iterated conditional modes with restarts, and end-to-end paste."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .dataflow import Cfg, build_cfg, dataflow_uses
from .minilang import ast
from .minilang.checker import (CheckError, TypedProgram, check,
                               vars_in_scope)
from .minilang.lexer import Token, tokenize
from .minilang.parser import ParseError, Parser, parse
from .models import Encoder, ModelParams
from .taskgen import Placeholder, TaskInstance


class SpliceError(Exception):
    pass


class NoCandidates(Exception):
    pass


@dataclass
class Assignment:
    """A total placeholder assignment with its pseudo-log-likelihood and the
    final per-placeholder conditional rankings."""

    mapping: Dict[int, int]  # placeholder token -> SymbolId
    total_log_prob: float = 0.0
    rankings: Dict[int, List[Tuple[int, float]]] = field(default_factory=dict)


def _instance_cfgs(inst: TaskInstance) -> Dict[str, Cfg]:
    return {fn.name: build_cfg(inst.program, fn)
            for fn in inst.program.ast.functions}


def rank_single(inst: TaskInstance, encoder: Encoder, ph: Placeholder,
                context_assignment: Dict[int, int],
                cfgs: Optional[Dict[str, Cfg]] = None
                ) -> List[Tuple[int, float]]:
    """Candidates ranked by conditional probability with every other
    placeholder bound per context_assignment; the usage relations are
    recomputed under that binding (the ranked placeholder itself is unbound).
    Ties break toward the lowest symbol id (`Encoder.rank`)."""
    t = ph.token_index
    override: Dict[int, Optional[int]] = {t: None}
    for other in inst.placeholders:
        if other.token_index != t:
            override[other.token_index] = \
                context_assignment[other.token_index]
    ug = dataflow_uses(inst.program, override=override, cfgs=cfgs)
    return encoder.rank(ug, t, ph.candidates)


def total_log_prob(inst: TaskInstance, encoder: Encoder,
                   mapping: Dict[int, int],
                   cfgs: Optional[Dict[str, Cfg]] = None
                   ) -> Tuple[float, Dict[int, List[Tuple[int, float]]]]:
    """Pseudo-log-likelihood: sum over placeholders of the log conditional
    probability of the assigned symbol given all the others."""
    total = 0.0
    rankings = {}
    for ph in inst.placeholders:
        ranked = rank_single(inst, encoder, ph, mapping, cfgs=cfgs)
        rankings[ph.token_index] = ranked
        prob = dict(ranked)[mapping[ph.token_index]]
        total += math.log(max(prob, 1e-300))
    return total, rankings


def _independent_init(inst: TaskInstance, encoder: Encoder,
                      phs: List[Placeholder],
                      cfgs: Dict[str, Cfg]) -> Dict[int, int]:
    """Each placeholder's argmax with every placeholder unbound; ties break
    toward the lowest symbol id."""
    override: Dict[int, Optional[int]] = {p.token_index: None for p in phs}
    ug = dataflow_uses(inst.program, override=override, cfgs=cfgs)
    init: Dict[int, int] = {}
    for ph in phs:
        init[ph.token_index] = encoder.rank(ug, ph.token_index,
                                            ph.candidates)[0][0]
    return init


def icm(inst: TaskInstance, params: ModelParams, restarts: int = 5,
        max_sweeps: int = 10, rng: Optional[random.Random] = None,
        encoder: Optional[Encoder] = None,
        trace: Optional[List[List[float]]] = None) -> Assignment:
    """Iterated conditional modes: random initialization, sweeps over
    placeholders in token order setting each to its conditional argmax, with
    restarts; returns the restart with the highest pseudo-log-likelihood.

    An argmax update also shifts the relations every other conditional is
    computed from, so a raw update can lower the total; updates that would
    are reverted, which keeps the per-update total non-decreasing within a
    restart.  The first restart starts from the independent per-placeholder
    argmax (every placeholder unbound), which tends to sit in the basin of
    the jointly best assignment; the remaining restarts start random.
    `trace`, when given, collects the per-update totals of each restart."""
    rng = rng if rng is not None else random.Random(0)
    if encoder is None:
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
    cfgs = _instance_cfgs(inst)
    phs = sorted(inst.placeholders, key=lambda p: p.token_index)
    best: Optional[Assignment] = None
    for attempt in range(max(restarts, 1)):
        if attempt == 0:
            mapping = _independent_init(inst, encoder, phs, cfgs)
        else:
            mapping = {p.token_index: rng.choice(p.candidates) for p in phs}
        total, rankings = total_log_prob(inst, encoder, mapping, cfgs=cfgs)
        restart_trace: List[float] = []
        for _sweep in range(max_sweeps):
            changed = False
            for ph in phs:
                t = ph.token_index
                ranked = rank_single(inst, encoder, ph, mapping, cfgs=cfgs)
                top = ranked[0][0]
                if mapping[t] != top:
                    previous = mapping[t]
                    mapping[t] = top
                    new_total, new_rankings = total_log_prob(
                        inst, encoder, mapping, cfgs=cfgs)
                    if new_total >= total:
                        total, rankings = new_total, new_rankings
                        changed = True
                    else:
                        mapping[t] = previous
                restart_trace.append(total)
            if not changed:
                break
        if trace is not None:
            trace.append(restart_trace)
        if best is None or total > best.total_log_prob:
            best = Assignment(mapping=dict(mapping), total_log_prob=total,
                              rankings=rankings)
    return best


# --- paste ------------------------------------------------------------------

def _parse_snippet_statements(snippet_source: str) -> List[ast.Stmt]:
    try:
        tokens = tokenize(snippet_source)
        parser = Parser(tokens)
        stmts = []
        while parser.peek() is not None:
            stmts.append(parser.parse_statement())
        if not stmts:
            raise SpliceError("snippet contains no statements")
        return stmts
    except ParseError as e:
        raise SpliceError(f"snippet does not parse: {e}") from e


def _statement_insertion_index(program: TypedProgram, line: int, col: int
                               ) -> Tuple[ast.Block, int]:
    """Innermost block containing the position, and the statement index
    before which to insert."""
    target_tok = None
    for tok in program.tokens:
        if (tok.line, tok.column) >= (line, col):
            target_tok = tok.index
            break
    if target_tok is None:
        target_tok = len(program.tokens)

    best: Optional[ast.Block] = None
    for fn in program.ast.functions:
        for stmt in ast.walk_statements(fn.body):
            if isinstance(stmt, ast.Block):
                lo, hi = stmt.span
                if lo < target_tok <= hi:
                    if best is None or stmt.span[0] >= best.span[0]:
                        best = stmt
    if best is None:
        raise SpliceError(f"no enclosing block at {line}:{col}")
    index = 0
    for i, s in enumerate(best.statements):
        if s.span[0] < target_tok:
            index = i + 1
    return best, index


def _splice_source(program: TypedProgram, snippet_source: str,
                   line: int, col: int) -> Tuple[str, Tuple[int, int]]:
    """Insert the snippet text at a statement boundary of the target source;
    returns (new source, character span of the snippet)."""
    block, index = _statement_insertion_index(program, line, col)
    if index < len(block.statements):
        anchor_tok = program.tokens[block.statements[index].span[0]]
    else:
        anchor_tok = program.tokens[block.span[1]]  # the closing brace
    # character offset of the anchor token
    offset = 0
    for tok in program.tokens:
        offset += len(tok.leading)
        if tok.index == anchor_tok.index:
            break
        offset += len(tok.text)
    original = "".join(t.leading + t.text for t in program.tokens)
    if hasattr(program.tokens[-1], "trailing"):
        original += program.tokens[-1].trailing  # type: ignore[attr-defined]
    text = snippet_source.strip()
    return original[:offset] + text + "\n" + original[offset:], \
        (offset, offset + len(text))


def make_paste_instance(target_source: str, snippet_source: str,
                        line: int, col: int, file_id: str = "<paste>"
                        ) -> TaskInstance:
    """Splice, placeholderize the snippet's non-defining variable uses, and
    type-check the result with those tokens as typed holes.  The returned
    TaskInstance has truth = -1 for every placeholder."""
    try:
        target = check(parse(tokenize(target_source)), tokenize(target_source))
    except (CheckError, ParseError) as e:
        raise SpliceError(f"target does not compile: {e}") from e
    _parse_snippet_statements(snippet_source)  # validate snippet shape early

    spliced_source, char_span = _splice_source(target, snippet_source,
                                               line, col)
    tokens = tokenize(spliced_source)
    try:
        prog_ast = parse(tokens)
    except ParseError as e:
        raise SpliceError(f"spliced program does not parse: {e}") from e

    # snippet tokens are those inside the character span
    offset = 0
    snippet_tokens = set()
    for tok in tokens:
        offset += len(tok.leading)
        if char_span[0] <= offset < char_span[1]:
            snippet_tokens.add(tok.index)
        offset += len(tok.text)

    # identify variable-use tokens in the snippet syntactically: defining
    # occurrences stay known, every other Var token becomes a hole
    holes = set()
    def_tokens = set()
    for fn in prog_ast.functions:
        for stmt in ast.walk_statements(fn.body):
            if isinstance(stmt, ast.Decl):
                def_tokens.add(stmt.name_token)
            for e in ast.stmt_exprs(stmt):
                for sub in ast.walk_exprs(e):
                    if isinstance(sub, ast.Var) and sub.token in snippet_tokens:
                        holes.add(sub.token)
            if isinstance(stmt, ast.For) and stmt.cond is not None:
                for sub in ast.walk_exprs(stmt.cond):
                    if isinstance(sub, ast.Var) and sub.token in snippet_tokens:
                        holes.add(sub.token)
    holes -= def_tokens
    if not holes:
        raise SpliceError("snippet has no variable uses to infer")

    try:
        program = check(prog_ast, tokens, file_id=file_id,
                        holes=frozenset(holes))
    except CheckError as e:
        raise SpliceError(f"spliced program does not check: {e}") from e

    snippet_span = (min(snippet_tokens), max(snippet_tokens))
    placeholders = []
    for t in sorted(holes):
        candidates = sorted(vars_in_scope(program, t))
        if not candidates:
            raise NoCandidates(f"no variable in scope at token {t}")
        placeholders.append(Placeholder(token_index=t, truth=-1,
                                        candidates=candidates,
                                        same_type_candidates=[]))
    return TaskInstance(program=program, snippet_span=snippet_span,
                        placeholders=placeholders, instance_id=file_id)


def paste(target_source: str, snippet_source: str, line: int, col: int,
          params: ModelParams, restarts: int = 5, max_sweeps: int = 10,
          seed: int = 0) -> Tuple[str, Assignment, TaskInstance]:
    """Splice + infer + substitute; returns the rewritten program text, the
    chosen assignment with per-placeholder rankings, and the instance."""
    inst = make_paste_instance(target_source, snippet_source, line, col)
    best = icm(inst, params, restarts=restarts, max_sweeps=max_sweeps,
               rng=random.Random(seed))
    texts = []
    for tok in inst.program.tokens:
        text = tok.text
        if tok.index in best.mapping:
            text = inst.program.symbol(best.mapping[tok.index]).name
        texts.append(tok.leading + text)
    rewritten = "".join(texts)
    if hasattr(inst.program.tokens[-1], "trailing"):
        rewritten += inst.program.tokens[-1].trailing  # type: ignore[attr-defined]
    return rewritten, best, inst
