"""Control-flow graphs and the lexical/data-flow usage relations consumed by
the usage encoders.

The data-flow relations are "may" relations over execution paths: for a token
t and variable v, df_in(t, v) holds every occurrence of v that can be the most
recent one on some path reaching t (EPS when some path carries no prior
occurrence); df_out is the forward mirror.  Computed per symbol by a standard
fixed point over the CFG with transfer "an occurrence of v replaces the
running set" and join by union.

The relations of v depend only on where v occurs, so `ProgramFlow` builds a
program's CFGs once and solves a symbol only when its relations are asked
for, memoised by (v, occurrences of v).  A `UseGraph` is a view over it
that holds only what the usage encoders read: each symbol's occurrences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

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


def build_cfg(program: TypedProgram, fn: ast.FunctionDef) -> Cfg:
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


class UseGraph:
    """Per (token, symbol) lexical and data-flow usage relations for one
    program under fixed occurrences: symbol -> its sorted token indices.

    The lexical relations need only `occurrences`; a symbol's data-flow
    relations are its `relations`, which `flow` solves and memoises by
    (symbol, occurrences), so every view with the same occurrences of a
    symbol reads the same dicts.  The usage encoders read `relations`, so a
    view they walk needs a flow.  `occ`, the token -> symbol map, is derived
    from `occurrences` on first read.  `df_in`/`df_out` are the relations
    flattened into dicts keyed by (token, symbol): their first access
    solves every symbol, and from then on `din`/`dout` read those dicts.
    Without a flow they start empty, for the caller to fill (the path
    oracle's views, which are never walked)."""

    def __init__(self, occurrences: Dict[int, Tuple[int, ...]],
                 flow: Optional["ProgramFlow"] = None):
        self.occurrences = occurrences
        self.flow = flow
        self._flat: Optional[Tuple[dict, dict]] = \
            None if flow is not None else ({}, {})  # (df_in, df_out)

    @cached_property
    def occ(self) -> Dict[int, int]:
        """token -> symbol at that token."""
        return {t: v for v, ts in self.occurrences.items() for t in ts}

    def relations(self, v: int) -> Tuple[Relation, Relation]:
        """v's (df_in, df_out), each token -> set, from the flow's memo."""
        return self.flow.relations(v, self.occurrences.get(v, ()))

    def _flatten(self):
        if self._flat is None:
            df_in, df_out = {}, {}
            for v in self.flow.symbols:
                rel_in, rel_out = self.relations(v)
                df_in.update(((t, v), s) for t, s in rel_in.items())
                df_out.update(((t, v), s) for t, s in rel_out.items())
            self._flat = (df_in, df_out)
        return self._flat

    @property
    def df_in(self) -> Dict[Tuple[int, int], FrozenSet[int]]:
        return self._flatten()[0]

    @property
    def df_out(self) -> Dict[Tuple[int, int], FrozenSet[int]]:
        return self._flatten()[1]

    def lex_chain(self, t: int, v: int, n: int, direction: str
                  ) -> List[int]:
        """Up to n occurrence positions of v before (prev) or after (next)
        t, nearest last for prev chains (chronological) and nearest first
        for next chains: a slice of v's sorted occurrences."""
        occ = self.occurrences.get(v, ())
        if direction == "prev":
            i = bisect_left(occ, t)
            return list(occ[max(i - n, 0):i])
        i = bisect_right(occ, t)
        return list(occ[i:i + n])

    def lex_prev(self, t: int, v: int) -> Optional[int]:
        return (self.lex_chain(t, v, 1, "prev") or [None])[0]

    def lex_next(self, t: int, v: int) -> Optional[int]:
        return (self.lex_chain(t, v, 1, "next") or [None])[0]

    def din(self, t: int, v: int) -> FrozenSet[int]:
        if self._flat is not None:
            return self._flat[0].get((t, v), frozenset())
        return self.relations(v)[0].get(t, frozenset())

    def dout(self, t: int, v: int) -> FrozenSet[int]:
        if self._flat is not None:
            return self._flat[1].get((t, v), frozenset())
        return self.relations(v)[1].get(t, frozenset())


def _by_symbol(occ: Dict[int, int]) -> Dict[int, Tuple[int, ...]]:
    """symbol -> its sorted token indices under the occurrence map."""
    by_symbol: Dict[int, List[int]] = {}
    for t in sorted(occ):
        by_symbol.setdefault(occ[t], []).append(t)
    return {v: tuple(ts) for v, ts in by_symbol.items()}


def occurrence_map(program: TypedProgram,
                   override: Optional[Dict[int, Optional[int]]] = None
                   ) -> Dict[int, int]:
    """token -> symbol occurrence map, optionally with placeholder tokens
    rebound (value None removes a token from the map)."""
    occ: Dict[int, int] = {}
    for tok in program.tokens:
        if tok.symbol is not None:
            occ[tok.index] = tok.symbol
    if override:
        for t, sid in override.items():
            if sid is None:
                occ.pop(t, None)
            else:
                occ[t] = sid
    return occ


def _function_symbols(program: TypedProgram, fn: ast.FunctionDef) -> List[int]:
    lo, hi = fn.span
    return [s.id for s in program.symbols
            if s.scope_span[0] >= lo and s.scope_span[1] <= hi]


class ProgramFlow:
    """One program's CFGs, built once, and each symbol's data-flow
    relations, solved on first request and memoised by the symbol's
    occurrences: they depend on nothing else.  `uses` makes the view
    under an override; every view of the program shares the flow."""

    def __init__(self, program: TypedProgram):
        self.program = program
        # symbol -> the forward and backward solver inputs of its function
        self._graphs: Dict[int, Tuple[tuple, tuple]] = {}
        for fn in program.ast.functions:
            cfg = build_cfg(program, fn)
            preds = cfg.preds
            tokens = [n.tokens for n in cfg.nodes]
            directions = ((tokens, preds, cfg.succs, cfg.entry),
                          ([ts[::-1] for ts in tokens], cfg.succs, preds,
                           cfg.exit))
            for v in _function_symbols(program, fn):
                self._graphs[v] = directions
        self.symbols = list(self._graphs)  # in function order
        self._memo: Dict[Tuple[int, Tuple[int, ...]],
                         Tuple[Relation, Relation]] = {}

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

    def uses(self, override: Optional[Dict[int, Optional[int]]] = None
             ) -> UseGraph:
        """The use graph with placeholder tokens rebound per `override`
        (None unbinds)."""
        return UseGraph(_by_symbol(occurrence_map(self.program, override)),
                        self)


def dataflow_uses(program: TypedProgram,
                  override: Optional[Dict[int, Optional[int]]] = None
                  ) -> UseGraph:
    """The may-analysis over every function's CFG, solved per symbol as
    queried.  `override` rebinds placeholder tokens."""
    return ProgramFlow(program).uses(override)


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


def dump_dataflow(program: TypedProgram, usegraph: UseGraph) -> str:
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
