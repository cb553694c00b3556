"""Structured prediction over placeholders: per-placeholder conditional
ranking, iterated conditional modes with restarts, and end-to-end paste."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .minilang import ast, compile_source
from .minilang.checker import (CheckError, TypedProgram, check,
                               vars_in_scope)
from .minilang.lexer import reconstruct, tokenize
from .minilang.parser import ParseError, Parser, parse
from .models import Encoder, ModelParams
from .taskgen import Placeholder, TaskInstance


class SpliceError(Exception):
    pass


class NoCandidates(Exception):
    pass


@dataclass
class Assignment:
    """A total placeholder assignment with its pseudo-log-likelihood and
    every placeholder's conditional ranking under it."""

    mapping: Dict[int, int]  # placeholder token -> SymbolId
    total_log_prob: float = 0.0
    rankings: Dict[int, List[Tuple[int, float]]] = field(default_factory=dict)


def rank_placeholders(inst: TaskInstance, encoder: Encoder,
                      phs: Sequence[Placeholder],
                      context_assignment: Dict[int, Optional[int]]
                      ) -> List[List[Tuple[int, float]]]:
    """Each placeholder's candidates ranked by conditional probability with
    every other placeholder bound per context_assignment (`None` leaves it
    unbound).  One view, made through the encoder's flow, binds every
    placeholder; each ranked placeholder is ranked on that view with its own
    token unbound (`UseGraph.without`), so a lone ranked placeholder needs
    no binding of its own.  Ties break toward the lowest symbol id.  This is
    the one path from a binding to a ranking: its missing scores are
    computed in one `Encoder.rank` batch over all of `phs`."""
    lone = phs[0].token_index if len(phs) == 1 else None
    bound = encoder.flow.uses({t: context_assignment[t]
                               for t in inst.placeholder_tokens if t != lone})
    return encoder.rank([(bound.without(ph.token_index), ph.token_index,
                          ph.candidates) for ph in phs])


def rank_single(inst: TaskInstance, encoder: Encoder, ph: Placeholder,
                context_assignment: Dict[int, Optional[int]]
                ) -> List[Tuple[int, float]]:
    """`rank_placeholders` of one placeholder.  Nothing in the package
    ranks one placeholder at a time; it is the per-placeholder reference
    the batched totals are tested against."""
    return rank_placeholders(inst, encoder, [ph], context_assignment)[0]


def total_log_prob(inst: TaskInstance, encoder: Encoder,
                   mapping: Dict[int, int]
                   ) -> Tuple[float, Dict[int, List[Tuple[int, float]]]]:
    """Pseudo-log-likelihood: sum over placeholders of the log conditional
    probability of the assigned symbol given all the others, with every
    placeholder's ranking; all placeholders are ranked in one
    `rank_placeholders` call."""
    total = 0.0
    rankings = {}
    for ph, ranked in zip(inst.placeholders, rank_placeholders(
            inst, encoder, inst.placeholders, mapping)):
        rankings[ph.token_index] = ranked
        prob = dict(ranked)[mapping[ph.token_index]]
        total += math.log(max(prob, 1e-300))
    return total, rankings


def icm(inst: TaskInstance, params: ModelParams, restarts: int = 5,
        max_sweeps: int = 10, rng: Optional[random.Random] = None,
        encoder: Optional[Encoder] = None,
        trace: Optional[List[List[float]]] = None) -> Assignment:
    """Iterated conditional modes: random initialization, sweeps over
    placeholders in token order setting each to its conditional argmax, with
    restarts; returns the restart with the highest pseudo-log-likelihood.

    A restart's state is one `Assignment` made by `total_log_prob`: its
    rankings are every placeholder's conditional under its mapping, so a
    sweep reads each argmax from them and ranks nothing itself.  An argmax
    update also shifts the relations every other conditional is computed
    from, so a raw update can lower the total; a trial state is kept only if
    its total is not lower, which keeps the per-update total non-decreasing
    within a restart.  The first restart starts from the independent
    per-placeholder argmax (every placeholder unbound, all ranked in one
    `rank_placeholders` call), which tends to sit in the basin of the
    jointly best assignment; the remaining restarts start random.  `trace`,
    when given, collects the per-update totals of each restart.

    Every conditional goes through one encoder, so through one
    `ProgramFlow` and one score memo: after an update moves a placeholder
    from symbol a to b, only scores keyed by a's or b's occurrences are
    computed again, in one tape-free batch per total."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be at least 0, got {max_sweeps}")
    rng = rng if rng is not None else random.Random(0)
    if encoder is None:
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
    phs = sorted(inst.placeholders, key=lambda p: p.token_index)

    def assess(mapping: Dict[int, int]) -> Assignment:
        total, rankings = total_log_prob(inst, encoder, mapping)
        return Assignment(mapping, total, rankings)

    best: Optional[Assignment] = None
    for attempt in range(restarts):
        if attempt == 0:
            unbound = dict.fromkeys(inst.placeholder_tokens)
            state = assess({p.token_index: ranked[0][0]
                            for p, ranked in zip(phs, rank_placeholders(
                                inst, encoder, phs, unbound))})
        else:
            state = assess({p.token_index: rng.choice(p.candidates)
                            for p in phs})
        restart_trace: List[float] = []
        for _sweep in range(max_sweeps):
            changed = False
            for ph in phs:
                t = ph.token_index
                top = state.rankings[t][0][0]
                if state.mapping[t] != top:
                    trial = assess({**state.mapping, t: top})
                    if trial.total_log_prob >= state.total_log_prob:
                        state, changed = trial, True
                restart_trace.append(state.total_log_prob)
            if not changed:
                break
        if trace is not None:
            trace.append(restart_trace)
        if best is None or state.total_log_prob > best.total_log_prob:
            best = state
    return best


# --- paste ------------------------------------------------------------------

def _snippet_token_count(snippet_source: str) -> int:
    """Number of tokens in a snippet that parses as a statement sequence."""
    try:
        tokens = tokenize(snippet_source)
        parser = Parser(tokens)
        if parser.peek() is None:
            raise SpliceError("snippet contains no statements")
        while parser.peek() is not None:
            parser.parse_statement()
        return len(tokens)
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
                   line: int, col: int) -> Tuple[str, int]:
    """Insert the snippet text at a statement boundary of the target source,
    right before the anchor token's text; returns (new source, anchor token
    index).  The spliced program's tokens before the anchor are the target's,
    so the snippet's tokens start at that index."""
    block, index = _statement_insertion_index(program, line, col)
    if index < len(block.statements):
        anchor = block.statements[index].span[0]
    else:
        anchor = block.span[1]  # the closing brace
    offset = sum(len(tok.leading) + len(tok.text)
                 for tok in program.tokens[:anchor]) \
        + len(program.tokens[anchor].leading)
    original = reconstruct(program.tokens)
    return original[:offset] + snippet_source.strip() + "\n" \
        + original[offset:], anchor


def make_paste_instance(target_source: str, snippet_source: str,
                        line: int, col: int, file_id: str = "<paste>"
                        ) -> TaskInstance:
    """Splice, placeholderize the snippet's non-defining variable uses, and
    type-check the result with those tokens as typed holes.  The returned
    TaskInstance has truth = -1 for every placeholder."""
    try:
        target = compile_source(target_source)
    except (CheckError, ParseError) as e:
        raise SpliceError(f"target does not compile: {e}") from e
    n_snippet = _snippet_token_count(snippet_source)

    spliced_source, first = _splice_source(target, snippet_source, line, col)
    snippet_tokens = range(first, first + n_snippet)
    tokens = tokenize(spliced_source)
    try:
        prog_ast = parse(tokens)
    except ParseError as e:
        raise SpliceError(f"spliced program does not parse: {e}") from e

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
    holes -= def_tokens
    if not holes:
        raise SpliceError("snippet has no variable uses to infer")

    try:
        program = check(prog_ast, tokens, file_id=file_id,
                        holes=frozenset(holes))
    except CheckError as e:
        raise SpliceError(f"spliced program does not check: {e}") from e

    snippet_span = (snippet_tokens[0], snippet_tokens[-1])
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
    names = {t: inst.program.symbol(sid).name
             for t, sid in best.mapping.items()}
    return reconstruct(inst.program.tokens, names), best, inst
