"""Control-flow graphs and the lexical/data-flow usage relations consumed by
the usage encoders.

The data-flow relations are "may" relations over execution paths: for a token
t and variable v, df_in(t, v) holds every occurrence of v that can be the most
recent one on some path reaching t (EPS when some path carries no prior
occurrence); df_out is the forward mirror.  Computed per symbol by a standard
fixed point over the CFG with transfer "an occurrence of v replaces the
running set" and join by union.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .minilang import ast
from .minilang.checker import TypedProgram

EPS = -1  # pseudo-token: no prior/next use on some path


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

    def new_node(self, kind: str, tokens=()) -> int:
        n = CfgNode(id=len(self.nodes), kind=kind, tokens=list(tokens))
        self.nodes.append(n)
        self.succs[n.id] = []
        return n.id

    def add_edge(self, a: int, b: int):
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
            cur = pred_ids
            for s in stmt.statements:
                cur = lower(s, cur)
            if not stmt.statements:
                nid = cfg.new_node("empty")
                for p in pred_ids:
                    cfg.add_edge(p, nid)
                return [nid]
            return cur
        if isinstance(stmt, ast.If):
            cond = cfg.new_node("cond", _span_tokens(stmt.cond.span))
            for p in pred_ids:
                cfg.add_edge(p, cond)
            out = lower(stmt.then, [cond])
            if stmt.orelse is not None:
                out = out + lower(stmt.orelse, [cond])
            else:
                out = out + [cond]
            return out
        if isinstance(stmt, ast.While):
            cond = cfg.new_node("cond", _span_tokens(stmt.cond.span))
            for p in pred_ids:
                cfg.add_edge(p, cond)
            body_out = lower(stmt.body, [cond])
            for b in body_out:
                cfg.add_edge(b, cond)  # back-edge
            return [cond]
        if isinstance(stmt, ast.For):
            cur = pred_ids
            if stmt.init is not None:
                init = cfg.new_node("init", _span_tokens(stmt.init.span))
                for p in cur:
                    cfg.add_edge(p, init)
                cur = [init]
            if stmt.cond is not None:
                cond = cfg.new_node("cond", _span_tokens(stmt.cond.span))
            else:
                cond = cfg.new_node("cond")
            for p in cur:
                cfg.add_edge(p, cond)
            body_out = lower(stmt.body, [cond])
            if stmt.step is not None:
                step = cfg.new_node("step", _span_tokens(stmt.step.span))
                for b in body_out:
                    cfg.add_edge(b, step)
                cfg.add_edge(step, cond)  # back-edge
            else:
                for b in body_out:
                    cfg.add_edge(b, cond)
            return [cond]
        if isinstance(stmt, ast.Return):
            nid = cfg.new_node("stmt", _span_tokens(stmt.span))
            for p in pred_ids:
                cfg.add_edge(p, nid)
            cfg.add_edge(nid, exit_)
            return []
        nid = cfg.new_node("stmt", _span_tokens(stmt.span))
        for p in pred_ids:
            cfg.add_edge(p, nid)
        return [nid]

    out = lower(fn.body, [entry])
    for o in out:
        cfg.add_edge(o, exit_)
    return cfg


@dataclass
class UseGraph:
    """Per (token, symbol) lexical and data-flow usage relations for one
    program under a fixed occurrence map."""

    occ: Dict[int, int]                      # token -> symbol at that token
    df_in: Dict[Tuple[int, int], FrozenSet[int]] = field(default_factory=dict)
    df_out: Dict[Tuple[int, int], FrozenSet[int]] = field(default_factory=dict)
    # symbol -> sorted token indices, derived from occ
    occurrences: Dict[int, List[int]] = field(init=False)

    def __post_init__(self):
        self.occurrences = {}
        for t in sorted(self.occ):
            self.occurrences.setdefault(self.occ[t], []).append(t)

    def lex_prev(self, t: int, v: int) -> Optional[int]:
        occ = self.occurrences.get(v, ())
        i = bisect_left(occ, t)
        return occ[i - 1] if i else None

    def lex_next(self, t: int, v: int) -> Optional[int]:
        occ = self.occurrences.get(v, ())
        i = bisect_right(occ, t)
        return occ[i] if i < len(occ) else None

    def din(self, t: int, v: int) -> FrozenSet[int]:
        return self.df_in.get((t, v), frozenset())

    def dout(self, t: int, v: int) -> FrozenSet[int]:
        return self.df_out.get((t, v), frozenset())


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


def dataflow_uses(program: TypedProgram,
                  override: Optional[Dict[int, Optional[int]]] = None
                  ) -> UseGraph:
    """Fixed-point may-analysis over every function's CFG.  `override`
    rebinds placeholder tokens."""
    occ = occurrence_map(program, override)
    ug = UseGraph(occ=occ)
    for fn in program.ast.functions:
        cfg = build_cfg(program, fn)
        preds = cfg.preds
        syms = _function_symbols(program, fn)
        tokens = [n.tokens for n in cfg.nodes]
        _solve(tokens, preds, cfg.succs, cfg.entry, occ, syms, ug.df_in)
        _solve([ts[::-1] for ts in tokens], cfg.succs, preds, cfg.exit,
               occ, syms, ug.df_out)
    return ug


def _solve(node_tokens: List[List[int]], edges_in: Dict[int, List[int]],
           edges_out: Dict[int, List[int]], seed_node: int,
           occ: Dict[int, int], syms: List[int],
           target: Dict[Tuple[int, int], FrozenSet[int]]):
    """One direction of the may-analysis, one symbol at a time, recording
    the set that reaches every token; `node_tokens` lists each node's
    tokens in walk order.  A node holding an occurrence of v passes on its
    last one; any other node passes on the union of what enters it; the
    seed node is entered by EPS."""
    last_in_node: List[Dict[int, int]] = []
    for tokens in node_tokens:
        last: Dict[int, int] = {}
        for t in tokens:
            if t in occ:
                last[occ[t]] = t
        last_in_node.append(last)
    eps = frozenset([EPS])
    for v in syms:
        out = [frozenset([last[v]]) if v in last else frozenset()
               for last in last_in_node]
        if v not in last_in_node[seed_node]:
            out[seed_node] = eps
        work = [n for n, last in enumerate(last_in_node)
                if v in last or n == seed_node]
        while work:
            n = work.pop()
            for s in edges_out[n]:
                if v in last_in_node[s]:
                    continue
                joined = out[s] | out[n]
                if joined != out[s]:
                    out[s] = joined
                    work.append(s)
        for n, tokens in enumerate(node_tokens):
            state = eps if n == seed_node else \
                frozenset().union(*[out[p] for p in edges_in[n]])
            for t in tokens:
                target[(t, v)] = state
                if occ.get(t) == v:
                    state = frozenset([t])


def lexical_chain(usegraph: UseGraph, t: int, v: int
                  ) -> Tuple[Optional[int], Optional[int]]:
    return usegraph.lex_prev(t, v), usegraph.lex_next(t, v)


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
        lp, ln = lexical_chain(usegraph, t, v)
        lines.append("\t".join([
            str(t), str(v), fmt_tok(lp), fmt_tok(ln),
            fmt_set(usegraph.din(t, v)), fmt_set(usegraph.dout(t, v))]))
    return "\n".join(lines)
