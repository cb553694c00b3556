"""Structured prediction over placeholders: per-placeholder conditional
ranking, iterated conditional modes with restarts, and end-to-end paste."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .dataflow import occurrences
from .minilang import ast, compile_source
from .minilang.checker import CheckError, TypedProgram, check
from .minilang.lexer import LexError, reconstruct, tokenize
from .minilang.parser import ParseError, Parser, parse
from .models import Encoder, ModelParams, score_key
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
                      binding: Dict[int, Optional[int]]
                      ) -> List[List[Tuple[int, float]]]:
    """Each of `phs` with its candidates ranked by conditional probability,
    every other placeholder of the instance bound per `binding` (`None`
    leaves one unbound; one it does not name is a KeyError, ranked or not):
    the rows of a `_ScoreMatrix` over `phs`, scored in one `Encoder.scores`
    call.  Ties break toward the lowest symbol id."""
    matrix = _ScoreMatrix(inst, phs)
    _, probs, _ = _lockstep(encoder, [matrix.rows(binding)])[0]
    return matrix.rankings(probs)


def rank_single(inst: TaskInstance, encoder: Encoder, ph: Placeholder,
                binding: Dict[int, Optional[int]]
                ) -> List[Tuple[int, float]]:
    """`rank_placeholders` of one placeholder.  Nothing in the package
    ranks one placeholder at a time; it is kept because the benchmark
    traces it (`infer.rank_single` in `bench/spans.py`)."""
    return rank_placeholders(inst, encoder, [ph], binding)[0]


def total_log_prob(inst: TaskInstance, encoder: Encoder,
                   mapping: Dict[int, int]
                   ) -> Tuple[float, Dict[int, List[Tuple[int, float]]]]:
    """The pseudo-log-likelihood of one mapping (the sum over placeholders
    of the log conditional probability of the assigned symbol given all the
    others) and every placeholder's ranking under it: ICM's score matrix
    of that mapping alone."""
    matrix = _ScoreMatrix(inst, inst.placeholders)
    state, = _lockstep(encoder, [matrix.state(mapping)])
    return state.total, dict(zip(inst.placeholder_tokens,
                                 matrix.rankings(state.probs)))


@dataclass
class _State:
    """One mapping as ICM holds it: each symbol's occurrences with every
    placeholder bound per the mapping, the padded (P, K) score matrix of
    its conditionals, their row probabilities and its total.  The arrays
    are read-only: a move that changes no row shares them."""

    mapping: Dict[int, int]
    occurrences: Dict[int, Tuple[int, ...]]
    scores: np.ndarray
    probs: np.ndarray
    total: float

    def __post_init__(self):
        self.scores.flags.writeable = self.probs.flags.writeable = False


class _ScoreMatrix:
    """Placeholders `phs` of an instance as the rows of a score matrix: row
    s holds c(s) . u(s, v) for each candidate v, padded with -inf to the
    most candidates.  Row s reads each symbol's occurrences under the
    mapping with s unbound (`score_key`, s's mapped symbol its own), so a
    move of t from a to b changes only the a and b entries of the other
    rows, and nothing of t's row.  `rows` and `move` yield the score keys
    they need, `Encoder.scores`' (token, candidate, occurrences of the
    candidate), and are sent one score per key, so that `_lockstep` can
    score the keys of several in one batch.
    A mapping binds every placeholder of the instance, ranked or not;
    `state` and `move` are ICM's, whose rows are every placeholder."""

    def __init__(self, inst: TaskInstance, phs: Sequence[Placeholder]):
        self.program = inst.program
        self.phs = phs
        self.tokens = inst.placeholder_tokens
        # per row: candidate -> its column
        self.cols = [{v: i for i, v in enumerate(ph.candidates)}
                     for ph in self.phs]
        widths = np.array([len(ph.candidates) for ph in phs], dtype=np.intp)
        self.shape = (len(phs), int(widths.max(initial=0)))
        # every row's cells, row after row, and the rows of each width
        row_of = np.repeat(np.arange(len(phs)), widths)
        firsts = np.cumsum(widths) - widths
        self.cells = (row_of, np.arange(len(row_of)) - firsts[row_of])
        self.by_width = [(np.flatnonzero(widths == w), w)
                         for w in sorted(set(widths.tolist()))]

    def _total(self, mapping: Dict[int, int], probs: np.ndarray) -> float:
        assigned = probs[np.arange(len(self.phs)),
                         [cols[mapping[ph.token_index]]
                          for ph, cols in zip(self.phs, self.cols)]]
        # summed in placeholder order, so a total is the same float
        # whichever path computed it
        total = 0.0
        for p in np.maximum(assigned, 1e-300).tolist():
            total += math.log(p)
        return total

    def _normalise(self, scores: np.ndarray) -> np.ndarray:
        """Each row's softmax over its own candidates, 0 in the padding.
        Rows of one width go through `nn.softmax_probs` together and the
        padding never enters it: a sum's rounding depends on its length,
        so a row's probabilities are bit for bit those of the row alone."""
        if len(self.by_width) == 1:  # no padding
            return nn.softmax_probs(scores)
        probs = np.zeros(self.shape)
        for rows, width in self.by_width:
            probs[rows, :width] = nn.softmax_probs(scores[rows, :width])
        return probs

    def rows(self, mapping: Dict[int, Optional[int]]):
        """Every row's scores and probabilities, and each symbol's
        occurrences, with the placeholders bound per `mapping` (`None`
        leaves one unbound)."""
        bound = occurrences(self.program,
                            {t: mapping[t] for t in self.tokens})
        scores = yield [score_key(bound, mapping[ph.token_index],
                                  ph.token_index, v)
                        for ph in self.phs for v in ph.candidates]
        matrix = np.full(self.shape, -np.inf)
        matrix[self.cells] = scores
        return matrix, self._normalise(matrix), bound

    def state(self, mapping: Dict[int, int]):
        """The state of a mapping, every row scored."""
        scores, probs, occurrences = yield from self.rows(mapping)
        return _State(mapping, occurrences, scores, probs,
                      self._total(mapping, probs))

    def move(self, state: _State, t: int, b: int):
        """The state after t moves from its symbol a to b: only the a and b
        entries of the rows other than t's are scored again."""
        a = state.mapping[t]
        mapping = {**state.mapping, t: b}
        occurrences = {**state.occurrences,
                       a: tuple(x for x in state.occurrences[a] if x != t),
                       b: tuple(sorted(state.occurrences.get(b, ()) + (t,)))}
        # candidates are in id order (`make_placeholder`)
        pair = sorted((a, b))
        keys, at_rows, at_cols = [], [], []
        for s, (ph, cols) in enumerate(zip(self.phs, self.cols)):
            if ph.token_index != t:
                for v in pair:
                    if v in cols:
                        keys.append(score_key(occurrences,
                                              mapping[ph.token_index],
                                              ph.token_index, v))
                        at_rows.append(s)
                        at_cols.append(cols[v])
        rescored = yield keys
        scores, probs = state.scores, state.probs
        if keys:
            scores = scores.copy()
            scores[at_rows, at_cols] = rescored
            probs = self._normalise(scores)
        return _State(mapping, occurrences, scores, probs,
                      self._total(mapping, probs))

    def top(self, probs: np.ndarray, s: int) -> int:
        """Row s's most probable candidate: the first maximum, so with
        candidates in id order (`make_placeholder`) the lowest id."""
        return self.phs[s].candidates[int(probs[s].argmax())]

    def rankings(self, probs: np.ndarray) -> List[List[Tuple[int, float]]]:
        """Each row's candidates with their probabilities, most probable
        first; equal probabilities go to the lower symbol id."""
        out = []
        for ph, row in zip(self.phs, probs):
            order = sorted(range(len(ph.candidates)),
                           key=lambda i: (-row[i], ph.candidates[i]))
            out.append([(ph.candidates[i], float(row[i])) for i in order])
        return out


def _lockstep(encoder: Encoder, searches: List[Generator]) -> list:
    """Run generators that yield score keys and are sent one score per key
    in lockstep: each step scores the keys of every generator still
    running in one `Encoder.scores` call.  Returns their results."""
    results: list = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        scores = iter(encoder.scores([key for keys in pending.values()
                                      for key in keys]))
        replies = {i: list(islice(scores, len(keys)))
                   for i, keys in pending.items()}
        pending = {}
        for i, reply in replies.items():
            try:
                pending[i] = searches[i].send(reply)
            except StopIteration as done:
                results[i] = done.value
    return results


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

    A restart's state is its mapping's `_ScoreMatrix` row probabilities
    and total, so a sweep reads each argmax from them.  An argmax update
    also shifts the relations every other conditional is computed from, so
    a raw update can lower the total; a trial state is kept only if its
    total is not lower, which keeps the per-update total non-decreasing
    within a restart.  The first restart starts from the independent
    per-placeholder argmax (every placeholder unbound), which tends to sit
    in the basin of the jointly best assignment; the remaining restarts
    start random.  `trace`, when given, collects the per-update totals of
    each restart.

    The restarts run in lockstep, each as a `climb` that yields the keys
    its states need scored: `rng` draws only the starts, so all are drawn
    first, in restart order, and scored in one batch; then each step
    scores the next trial of every restart still sweeping in one batch.
    Each restart decides alone, so its mapping, decisions and trace are
    those of running it by itself.  Every score goes through one encoder's
    memo, and a trial that moves a placeholder from a to b asks only for
    the a and b entries of the other rows.  The rankings of the returned
    restart are built once, at the end."""
    check_search(restarts, max_sweeps)
    rng = rng if rng is not None else random.Random(0)
    if encoder is None:
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
    matrix = _ScoreMatrix(inst, inst.placeholders)
    row = {ph.token_index: s for s, ph in enumerate(matrix.phs)}
    sweep_order = sorted(row)

    def climb(mapping: Dict[int, int], restart_trace: List[float]):
        # one restart's sweeps over its states; returns the final state
        state = yield from matrix.state(mapping)
        for _sweep in range(max_sweeps):
            changed = False
            for t in sweep_order:
                top = matrix.top(state.probs, row[t])
                if state.mapping[t] != top:
                    trial = yield from matrix.move(state, t, top)
                    if trial.total >= state.total:
                        state, changed = trial, True
                restart_trace.append(state.total)
            if not changed:
                break
        return state

    _, probs, _ = _lockstep(encoder, [matrix.rows(
        dict.fromkeys(inst.placeholder_tokens))])[0]
    starts = [{t: matrix.top(probs, row[t]) for t in sweep_order}]
    starts += [{t: rng.choice(matrix.phs[row[t]].candidates)
                for t in sweep_order} for _ in range(restarts - 1)]
    traces: List[List[float]] = [[] for _ in starts]
    finals = _lockstep(encoder, [climb(start, restart_trace) for
                                 start, restart_trace in zip(starts, traces)])
    if trace is not None:
        trace.extend(traces)
    best = max(finals, key=lambda state: state.total)
    return Assignment(best.mapping, best.total, dict(zip(
        inst.placeholder_tokens, matrix.rankings(best.probs))))


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
