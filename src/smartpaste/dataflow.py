"""Control-flow graphs and the lexical/data-flow usage relations consumed by
the usage encoders.

The data-flow relations are "may" relations over execution paths: for a token
t and variable v, df_in(t, v) holds every occurrence of v that can be the most
recent one on some path reaching t (EPS when some path carries no prior
occurrence); df_out is the forward mirror.  Computed per symbol by a standard
fixed point over the CFG with transfer "an occurrence of v replaces the
running set" and join by union.

The relations of v depend only on where v occurs, so `ProgramFlow` solves a
symbol only when its relations are asked for, memoised by (v, occurrences
of v), over the program's CFGs, which it builds on its first solve.
`occurrences` turns a binding of the placeholders into each symbol's
occurrences.  A usage the encoders read is a token t, a candidate v and v's
occurrences; the encoder's own flow solves v's relations from them.  A
`UseGraph` is a record of every relation under one binding, which
`dataflow_uses` fills for `dump-dataflow` and the oracle checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .minilang import ast
from .minilang.checker import TypedProgram

EPS = -1  # pseudo-token: no prior/next use on some path

# One symbol's relation in one direction: token -> the occurrences (or EPS)
Relation = Dict[int, FrozenSet[int]]


@dataclass
class CfgNode:
    id: int
    kind: str  # entry | exit | stmt | cond | step | init | empty
    tokens: List[int] = field(default_factory=list)


@dataclass
class Cfg:
    nodes: List[CfgNode] = field(default_factory=list)
    succs: Dict[int, List[int]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 0

    def new_node(self, kind: str, tokens=(), preds=()) -> int:
        """A new node, entered from each of `preds`."""
        n = CfgNode(id=len(self.nodes), kind=kind, tokens=list(tokens))
        self.nodes.append(n)
        self.succs[n.id] = []
        self.add_edges(preds, n.id)
        return n.id

    def add_edges(self, preds, b: int):
        for a in preds:
            if b not in self.succs[a]:
                self.succs[a].append(b)

    @property
    def preds(self) -> Dict[int, List[int]]:
        p: Dict[int, List[int]] = {n.id: [] for n in self.nodes}
        for a, bs in self.succs.items():
            for b in bs:
                p[b].append(a)
        return p


def _span_tokens(span: Tuple[int, int]) -> List[int]:
    return list(range(span[0], span[1] + 1))


def build_cfg(fn: ast.FunctionDef) -> Cfg:
    """Intra-procedural CFG; conditions and for-steps get their own nodes;
    short-circuit operators do not branch."""
    cfg = Cfg()
    entry = cfg.new_node("entry", [p.name_token for p in fn.params])
    exit_ = cfg.new_node("exit")
    cfg.entry, cfg.exit = entry, exit_

    def lower(stmt: ast.Stmt, pred_ids: List[int]) -> List[int]:
        """Attach stmt's subgraph after pred_ids; return the dangling exits."""
        if isinstance(stmt, ast.Block):
            if not stmt.statements:
                return [cfg.new_node("empty", (), pred_ids)]
            cur = pred_ids
            for s in stmt.statements:
                cur = lower(s, cur)
            return cur
        if isinstance(stmt, ast.If):
            cond = cfg.new_node("cond", _span_tokens(stmt.cond.span), pred_ids)
            out = lower(stmt.then, [cond])
            if stmt.orelse is not None:
                return out + lower(stmt.orelse, [cond])
            return out + [cond]
        if isinstance(stmt, ast.While):
            cond = cfg.new_node("cond", _span_tokens(stmt.cond.span), pred_ids)
            cfg.add_edges(lower(stmt.body, [cond]), cond)  # back-edges
            return [cond]
        if isinstance(stmt, ast.For):
            cur = pred_ids
            if stmt.init is not None:
                cur = [cfg.new_node("init", _span_tokens(stmt.init.span), cur)]
            cond = cfg.new_node("cond", () if stmt.cond is None
                                else _span_tokens(stmt.cond.span), cur)
            cur = lower(stmt.body, [cond])
            if stmt.step is not None:
                cur = [cfg.new_node("step", _span_tokens(stmt.step.span), cur)]
            cfg.add_edges(cur, cond)  # back-edges
            return [cond]
        nid = cfg.new_node("stmt", _span_tokens(stmt.span), pred_ids)
        if isinstance(stmt, ast.Return):
            cfg.add_edges([nid], exit_)
            return []
        return [nid]

    out = lower(fn.body, [entry])
    # the recursive closure refers to itself, and through `cfg` to the
    # graph: break the cycle, so that the graph is freed with its last
    # reference, not when the cycle collector runs
    del lower
    cfg.add_edges(out, exit_)
    return cfg


@dataclass
class UseGraph:
    """A record of one program's usage relations under fixed occurrences
    (symbol -> its sorted token indices): the data-flow relations flattened
    into dicts keyed by (token, symbol), filled by `dataflow_uses` from one
    `ProgramFlow` or by the path oracle from enumerated executions.  No
    encoder reads one.  `occ`, the token -> symbol map, is derived from
    `occurrences` on first read."""

    occurrences: Dict[int, Tuple[int, ...]]
    df_in: Dict[Tuple[int, int], FrozenSet[int]] = field(default_factory=dict)
    df_out: Dict[Tuple[int, int], FrozenSet[int]] = \
        field(default_factory=dict)

    @cached_property
    def occ(self) -> Dict[int, int]:
        """token -> symbol at that token."""
        return {t: v for v, ts in self.occurrences.items() for t in ts}

    def lex_prev(self, t: int, v: int) -> Optional[int]:
        """v's nearest occurrence before t: one step of a prev chain."""
        occ = self.occurrences.get(v, ())
        lo, i, _, _ = chain_bounds(occ, t, 1)
        return occ[lo] if lo < i else None

    def lex_next(self, t: int, v: int) -> Optional[int]:
        """v's nearest occurrence after t: one step of a next chain."""
        occ = self.occurrences.get(v, ())
        _, _, j, hi = chain_bounds(occ, t, 1)
        return occ[j] if j < hi else None

    def din(self, t: int, v: int) -> FrozenSet[int]:
        return self.df_in.get((t, v), frozenset())

    def dout(self, t: int, v: int) -> FrozenSet[int]:
        return self.df_out.get((t, v), frozenset())


def chain_bounds(occ: Sequence[int], t: int, n: int
                 ) -> Tuple[int, int, int, int]:
    """(lo, i, j, hi): the lexical chains of length up to n at token t
    of a symbol with sorted occurrences `occ` are `occ[lo:i]` (prev, the
    occurrences before t) and `occ[j:hi]` (next, those after t)."""
    i = bisect_left(occ, t)
    j = bisect_right(occ, t, i)
    return max(i - n, 0), i, j, min(j + n, len(occ))


def occurrences(program: TypedProgram,
                override: Optional[Dict[int, Optional[int]]] = None
                ) -> Dict[int, Tuple[int, ...]]:
    """symbol -> its sorted token indices, with placeholder tokens rebound
    per `override` (None unbinds), in order of each symbol's first
    occurrence: one pass over the tokens in order."""
    override = override or {}
    by_symbol: Dict[int, List[int]] = {}
    for tok in program.tokens:
        v = override.get(tok.index, tok.symbol)
        if v is not None:
            by_symbol.setdefault(v, []).append(tok.index)
    return {v: tuple(ts) for v, ts in by_symbol.items()}


def _function_symbols(program: TypedProgram, fn: ast.FunctionDef) -> List[int]:
    lo, hi = fn.span
    return [s.id for s in program.symbols
            if s.scope_span[0] >= lo and s.scope_span[1] <= hi]


class ProgramFlow:
    """One program's data-flow relations, each symbol's solved on first
    request and memoised by the symbol's occurrences: they depend on
    nothing else.  The CFGs they are solved over are built on the first
    solve, so a flow that solves nothing builds none."""

    def __init__(self, program: TypedProgram):
        self.program = program
        self._memo: Dict[Tuple[int, Tuple[int, ...]],
                         Tuple[Relation, Relation]] = {}

    @cached_property
    def _graphs(self) -> Dict[int, Tuple[tuple, tuple]]:
        """symbol -> the forward and backward solver inputs of its
        function, in function order."""
        graphs = {}
        for fn in self.program.ast.functions:
            cfg = build_cfg(fn)
            preds = cfg.preds
            tokens = [n.tokens for n in cfg.nodes]
            directions = ((tokens, preds, cfg.succs, cfg.entry),
                          ([ts[::-1] for ts in tokens], cfg.succs, preds,
                           cfg.exit))
            for v in _function_symbols(self.program, fn):
                graphs[v] = directions
        return graphs

    def relations(self, v: int, occurrences: Tuple[int, ...]
                  ) -> Tuple[Relation, Relation]:
        """v's (df_in, df_out), each token -> set, when v occurs exactly
        at `occurrences`; empty for a symbol scoped outside functions."""
        key = (v, occurrences)
        if key not in self._memo:
            graphs = self._graphs.get(v)
            at = frozenset(occurrences)
            self._memo[key] = ({}, {}) if graphs is None else \
                tuple(_solve(*d, at) for d in graphs)
        return self._memo[key]


def dataflow_uses(program: TypedProgram,
                  override: Optional[Dict[int, Optional[int]]] = None
                  ) -> UseGraph:
    """The record of every relation of `program` with placeholder tokens
    rebound per `override` (None unbinds): one `ProgramFlow` solves each
    symbol scoped in a function, under its occurrences."""
    ug = UseGraph(occurrences(program, override))
    flow = ProgramFlow(program)
    for v in flow._graphs:
        for flat, rel in zip((ug.df_in, ug.df_out),
                             flow.relations(v, ug.occurrences.get(v, ()))):
            flat.update(((t, v), s) for t, s in rel.items())
    return ug


def _solve(node_tokens: List[List[int]], edges_in: Dict[int, List[int]],
           edges_out: Dict[int, List[int]], seed_node: int,
           at: FrozenSet[int]) -> Relation:
    """One direction of the may-analysis for one symbol occurring at the
    tokens `at`: the set that reaches every token.  `node_tokens` lists
    each node's tokens in walk order.  A node holding an occurrence passes
    on its last one; any other node passes on the union of what enters it;
    the seed node is entered by EPS."""
    last = [next((t for t in reversed(tokens) if t in at), None)
            for tokens in node_tokens]
    eps = frozenset([EPS])
    out = [frozenset() if x is None else frozenset([x]) for x in last]
    if last[seed_node] is None:
        out[seed_node] = eps
    work = [n for n, x in enumerate(last) if x is not None or n == seed_node]
    while work:
        n = work.pop()
        for s in edges_out[n]:
            if last[s] is not None:
                continue
            joined = out[s] | out[n]
            if joined != out[s]:
                out[s] = joined
                work.append(s)
    rel: Relation = {}
    for n, tokens in enumerate(node_tokens):
        state = eps if n == seed_node else \
            frozenset().union(*[out[p] for p in edges_in[n]])
        for t in tokens:
            rel[t] = state
            if t in at:
                state = frozenset([t])
    return rel


def dump_dataflow(usegraph: UseGraph) -> str:
    """One tab-separated line per occurrence: token, symbol, lex_prev,
    lex_next, df_in, df_out (EPS printed as 'eps', absent as '-')."""

    def fmt_tok(x):
        return "-" if x is None else ("eps" if x == EPS else str(x))

    def fmt_set(s):
        return ",".join(fmt_tok(x) for x in sorted(s)) or "-"

    lines = []
    for t in sorted(usegraph.occ):
        v = usegraph.occ[t]
        lines.append("\t".join([
            str(t), str(v), fmt_tok(usegraph.lex_prev(t, v)),
            fmt_tok(usegraph.lex_next(t, v)),
            fmt_set(usegraph.din(t, v)), fmt_set(usegraph.dout(t, v))]))
    return "\n".join(lines)
