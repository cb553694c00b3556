"""Structured prediction over placeholders: per-placeholder conditional
ranking, iterated conditional modes with restarts, and end-to-end paste."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .minilang import ast, compile_source
from .minilang.checker import CheckError, TypedProgram, check
from .minilang.lexer import LexError, reconstruct, tokenize
from .minilang.parser import ParseError, Parser, parse
from .models import Encoder, ModelParams
from .taskgen import Placeholder, TaskInstance, make_placeholder


# the search's defaults: ICM restarts, and sweeps per restart
DEFAULT_RESTARTS = 5
DEFAULT_MAX_SWEEPS = 10


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
                      *context_assignments: Dict[int, Optional[int]]
                      ) -> List[List[Tuple[int, float]]]:
    """Each placeholder's candidates ranked by conditional probability with
    every other placeholder bound per a context assignment (`None` leaves it
    unbound), all of `phs` under each assignment in turn.  One view per
    assignment, made through the encoder's flow, binds every placeholder;
    each ranked placeholder is ranked on that view with its own token
    unbound (`UseGraph.without`), so a lone ranked placeholder needs no
    binding of its own.  Ties break toward the lowest symbol id.  This is
    the one path from a binding to a ranking: its missing scores are
    computed in one `Encoder.rank` batch."""
    lone = phs[0].token_index if len(phs) == 1 else None
    groups = []
    for context in context_assignments:
        bound = encoder.flow.uses({t: context[t] for t in
                                   inst.placeholder_tokens if t != lone})
        groups += [(bound.without(ph.token_index), ph.token_index,
                    ph.candidates) for ph in phs]
    return encoder.rank(groups)


def rank_single(inst: TaskInstance, encoder: Encoder, ph: Placeholder,
                context_assignment: Dict[int, Optional[int]]
                ) -> List[Tuple[int, float]]:
    """`rank_placeholders` of one placeholder.  Nothing in the package
    ranks one placeholder at a time; it is the per-placeholder reference
    the batched totals are tested against."""
    return rank_placeholders(inst, encoder, [ph], context_assignment)[0]


def assess(inst: TaskInstance, encoder: Encoder,
           mappings: Sequence[Dict[int, int]]) -> List[Assignment]:
    """Each mapping's pseudo-log-likelihood (the sum over placeholders of
    the log conditional probability of the assigned symbol given all the
    others) with every placeholder's ranking under it, all mappings ranked
    in one `rank_placeholders` call."""
    phs = inst.placeholders
    ranked = rank_placeholders(inst, encoder, phs, *mappings)
    out = []
    for start, mapping in zip(range(0, len(ranked), len(phs)), mappings):
        total = 0.0
        rankings = {}
        for ph, ranking in zip(phs, ranked[start:start + len(phs)]):
            rankings[ph.token_index] = ranking
            prob = dict(ranking)[mapping[ph.token_index]]
            total += math.log(max(prob, 1e-300))
        out.append(Assignment(mapping, total, rankings))
    return out


def total_log_prob(inst: TaskInstance, encoder: Encoder,
                   mapping: Dict[int, int]
                   ) -> Tuple[float, Dict[int, List[Tuple[int, float]]]]:
    """The pseudo-log-likelihood of one mapping and every placeholder's
    ranking under it: `assess` of that mapping alone."""
    state, = assess(inst, encoder, [mapping])
    return state.total_log_prob, state.rankings


def check_search(restarts: int, max_sweeps: int):
    """Reject the `icm` options it cannot run with, before any work."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be at least 0, got {max_sweeps}")


def icm(inst: TaskInstance, params: ModelParams,
        restarts: int = DEFAULT_RESTARTS, max_sweeps: int = DEFAULT_MAX_SWEEPS,
        rng: Optional[random.Random] = None,
        encoder: Optional[Encoder] = None,
        trace: Optional[List[List[float]]] = None) -> Assignment:
    """Iterated conditional modes: random initialization, sweeps over
    placeholders in token order setting each to its conditional argmax, with
    restarts; returns the restart with the highest pseudo-log-likelihood.

    A restart's state is one `Assignment` made by `assess`: its rankings
    are every placeholder's conditional under its mapping, so a sweep reads
    each argmax from them and ranks nothing itself.  An argmax update also
    shifts the relations every other conditional is computed from, so a raw
    update can lower the total; a trial state is kept only if its total is
    not lower, which keeps the per-update total non-decreasing within a
    restart.  The first restart starts from the independent per-placeholder
    argmax (every placeholder unbound, all ranked in one
    `rank_placeholders` call), which tends to sit in the basin of the
    jointly best assignment; the remaining restarts start random.  `trace`,
    when given, collects the per-update totals of each restart.

    The restarts run in lockstep, each as a `climb` that yields its trial
    mappings: `rng` draws only the starts, so all are drawn first, in
    restart order, and assessed in one batch; then each step assesses the
    next trial of every restart still sweeping in one `assess` call.  Each
    restart decides alone, so its mapping, decisions and trace are those of
    running it by itself.  Every conditional goes through one encoder, so
    through one `ProgramFlow` and one score memo: after an update moves a
    placeholder from symbol a to b, only scores keyed by a's or b's
    occurrences are computed again, in one tape-free batch per step."""
    check_search(restarts, max_sweeps)
    rng = rng if rng is not None else random.Random(0)
    if encoder is None:
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
    phs = sorted(inst.placeholders, key=lambda p: p.token_index)

    def climb(state: Assignment, restart_trace: List[float]):
        # one restart's sweeps: yields each trial mapping, is sent its
        # assessment, and returns the final state
        for _sweep in range(max_sweeps):
            changed = False
            for ph in phs:
                t = ph.token_index
                top = state.rankings[t][0][0]
                if state.mapping[t] != top:
                    trial = yield {**state.mapping, t: top}
                    if trial.total_log_prob >= state.total_log_prob:
                        state, changed = trial, True
                restart_trace.append(state.total_log_prob)
            if not changed:
                break
        return state

    unbound = dict.fromkeys(inst.placeholder_tokens)
    starts = [{p.token_index: ranked[0][0]
               for p, ranked in zip(phs, rank_placeholders(
                   inst, encoder, phs, unbound))}]
    starts += [{p.token_index: rng.choice(p.candidates) for p in phs}
               for _ in range(restarts - 1)]
    traces: List[List[float]] = [[] for _ in starts]
    climbs = [climb(state, restart_trace) for state, restart_trace
              in zip(assess(inst, encoder, starts), traces)]
    finals: List[Optional[Assignment]] = [None] * restarts
    # restart -> the assessment of its last trial, for each live restart
    replies: Dict[int, Optional[Assignment]] = dict.fromkeys(range(restarts))
    while True:
        trials = {}
        for r, reply in replies.items():
            try:
                trials[r] = climbs[r].send(reply)
            except StopIteration as done:
                finals[r] = done.value
        if not trials:
            break
        replies = dict(zip(trials, assess(inst, encoder,
                                          list(trials.values()))))
    if trace is not None:
        trace.extend(traces)
    return max(finals, key=lambda state: state.total_log_prob)


# --- paste ------------------------------------------------------------------

def _parse_snippet(snippet_source: str) -> Tuple[int, List[int]]:
    """Number of tokens in a snippet that parses as a statement sequence,
    and the positions of its variable uses (its `Var` tokens) in order."""
    try:
        tokens = tokenize(snippet_source)
        parser = Parser(tokens)
        if parser.peek() is None:
            raise SpliceError("snippet contains no statements")
        uses = []
        while parser.peek() is not None:
            for stmt in ast.walk_statements(parser.parse_statement()):
                uses += [e.token for top in ast.stmt_exprs(stmt)
                         for e in ast.walk_exprs(top)
                         if isinstance(e, ast.Var)]
        return len(tokens), sorted(uses)
    except (LexError, ParseError) as e:
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


def _splice_source(program: TypedProgram, source: str, snippet_source: str,
                   line: int, col: int) -> Tuple[str, int]:
    """Insert the snippet text at a statement boundary of the program's
    source, right before the anchor token's text; returns (new source,
    anchor token index).  The spliced program's tokens before the anchor are
    the target's, so the snippet's tokens start at that index."""
    block, index = _statement_insertion_index(program, line, col)
    if index < len(block.statements):
        anchor = block.statements[index].span[0]
    else:
        anchor = block.span[1]  # the closing brace
    offset = sum(len(tok.leading) + len(tok.text)
                 for tok in program.tokens[:anchor]) \
        + len(program.tokens[anchor].leading)
    return source[:offset] + snippet_source.strip() + "\n" \
        + source[offset:], anchor


def make_paste_instance(target_source: str, snippet_source: str,
                        line: int, col: int, file_id: str = "<paste>"
                        ) -> TaskInstance:
    """Splice, placeholderize the snippet's variable uses (its `Var`
    tokens: a declaration's name is not one), and type-check the result
    with those tokens as typed holes.  The returned TaskInstance has
    truth = -1 for every placeholder."""
    try:
        target = compile_source(target_source)
    except (CheckError, LexError, ParseError) as e:
        raise SpliceError(f"target does not compile: {e}") from e
    n_snippet, uses = _parse_snippet(snippet_source)

    spliced_source, first = _splice_source(target, target_source,
                                           snippet_source, line, col)
    tokens = tokenize(spliced_source)
    try:
        prog_ast = parse(tokens)
    except ParseError as e:
        raise SpliceError(f"spliced program does not parse: {e}") from e
    # the snippet's tokens start at the anchor, so its uses are shifted by it
    holes = [first + t for t in uses]
    if not holes:
        raise SpliceError("snippet has no variable uses to infer")

    try:
        program = check(prog_ast, tokens, file_id=file_id,
                        holes=frozenset(holes))
    except CheckError as e:
        raise SpliceError(f"spliced program does not check: {e}") from e

    placeholders = [make_placeholder(program, t) for t in holes]
    for ph in placeholders:
        if not ph.candidates:
            raise NoCandidates(f"no variable in scope at token "
                               f"{ph.token_index}")
    return TaskInstance(program=program,
                        snippet_span=(first, first + n_snippet - 1),
                        placeholders=placeholders, instance_id=file_id)


def paste(target_source: str, snippet_source: str, line: int, col: int,
          params: ModelParams, restarts: int = DEFAULT_RESTARTS,
          max_sweeps: int = DEFAULT_MAX_SWEEPS, seed: int = 0
          ) -> Tuple[str, Assignment, TaskInstance]:
    """Splice + infer + substitute; returns the rewritten program text, the
    chosen assignment with per-placeholder rankings, and the instance."""
    inst = make_paste_instance(target_source, snippet_source, line, col)
    best = icm(inst, params, restarts=restarts, max_sweeps=max_sweeps,
               rng=random.Random(seed))
    names = {t: inst.program.symbol(sid).name
             for t, sid in best.mapping.items()}
    return reconstruct(inst.program.tokens, names), best, inst
