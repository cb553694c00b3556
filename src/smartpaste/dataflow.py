"""Control-flow graphs, lexical/data-flow usage relations, and the bounded
context trees consumed by the usage encoders.

The data-flow relations are "may" relations over execution paths: for a token
t and variable v, df_in(t, v) holds every occurrence of v that can be the most
recent one on some path reaching t (EPS when some path carries no prior
occurrence); df_out is the forward mirror.  Computed by a standard fixed-point
over the CFG with transfer "an occurrence of v replaces the running set" and
join by union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .minilang import ast
from .minilang.checker import TypedProgram

EPS = -1  # pseudo-token: no prior/next use on some path

OccFn = Callable[[int], Optional[int]]


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
    occurrences: Dict[int, List[int]]        # symbol -> sorted token indices
    df_in: Dict[Tuple[int, int], FrozenSet[int]] = field(default_factory=dict)
    df_out: Dict[Tuple[int, int], FrozenSet[int]] = field(default_factory=dict)

    def lex_prev(self, t: int, v: int) -> Optional[int]:
        prev = None
        for o in self.occurrences.get(v, ()):
            if o >= t:
                break
            prev = o
        return prev

    def lex_next(self, t: int, v: int) -> Optional[int]:
        for o in self.occurrences.get(v, ()):
            if o > t:
                return o
        return None

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
                  override: Optional[Dict[int, Optional[int]]] = None,
                  cfgs: Optional[Dict[str, Cfg]] = None) -> UseGraph:
    """Fixed-point may-analysis over every function's CFG.  `override`
    rebinds placeholder tokens; `cfgs` lets callers reuse prebuilt CFGs
    (the CFG does not depend on placeholder assignments)."""
    occ = occurrence_map(program, override)
    occurrences: Dict[int, List[int]] = {}
    for t, v in occ.items():
        occurrences.setdefault(v, []).append(t)
    for v in occurrences:
        occurrences[v].sort()
    ug = UseGraph(occ=occ, occurrences=occurrences)

    for fn in program.ast.functions:
        cfg = cfgs[fn.name] if cfgs else build_cfg(program, fn)
        syms = _function_symbols(program, fn)
        _solve(cfg, occ, syms, ug, forward=True)
        _solve(cfg, occ, syms, ug, forward=False)
    return ug


def _solve(cfg: Cfg, occ: Dict[int, int], syms: List[int], ug: UseGraph,
           forward: bool):
    """One direction of the may-analysis, recording the per-token sets."""
    if forward:
        edges_in = cfg.preds
        seed_node = cfg.entry
    else:
        edges_in = cfg.succs
        seed_node = cfg.exit

    node_tokens = {n.id: (n.tokens if forward else list(reversed(n.tokens)))
                   for n in cfg.nodes}

    def transfer(nid: int, state: Dict[int, FrozenSet[int]]):
        state = dict(state)
        for t in node_tokens[nid]:
            v = occ.get(t)
            if v is not None and v in state:
                state[v] = frozenset([t])
        return state

    seed = {v: frozenset([EPS]) for v in syms}
    empty = {v: frozenset() for v in syms}
    out_state = {n.id: (dict(seed) if n.id == seed_node else dict(empty))
                 for n in cfg.nodes}
    out_state[seed_node] = transfer(seed_node, seed)

    changed = True
    while changed:
        changed = False
        for n in cfg.nodes:
            if n.id == seed_node:
                continue
            merged = {v: frozenset().union(
                *[out_state[p][v] for p in edges_in[n.id]] or [frozenset()])
                for v in syms}
            new = transfer(n.id, merged)
            if new != out_state[n.id]:
                out_state[n.id] = new
                changed = True

    # final recording pass: walk each node once more from its joined input
    target = ug.df_in if forward else ug.df_out
    for n in cfg.nodes:
        if n.id == seed_node:
            state = dict(seed)
        else:
            state = {v: frozenset().union(
                *[out_state[p][v] for p in edges_in[n.id]] or [frozenset()])
                for v in syms}
        for t in node_tokens[n.id]:
            for v in syms:
                target[(t, v)] = state[v]
            v = occ.get(t)
            if v is not None and v in state:
                state[v] = frozenset([t])


@dataclass
class ContextTree:
    """Bounded unrolling of the data-flow relation from one position.

    Children are (token, subtree) pairs; an EPS child is a leaf marking a
    path with no further use in that direction."""

    root_children: List[Tuple[int, "ContextTree"]] = field(default_factory=list)
    depth_budget: int = 0

    def all_tokens(self) -> List[int]:
        out = []
        for t, sub in self.root_children:
            if t != EPS:
                out.append(t)
            out.extend(sub.all_tokens())
        return out

    def max_depth(self) -> int:
        if not self.root_children:
            return 0
        return 1 + max(sub.max_depth() for _, sub in self.root_children)


def context_tree(usegraph: UseGraph, t: int, v: int, direction: str,
                 depth: int) -> ContextTree:
    """Tree of data-flow predecessors (direction="prev") or successors
    ("next") of v around t, unrolled to `depth`.  t itself is never a node."""
    assert direction in ("prev", "next")
    rel = usegraph.din if direction == "prev" else usegraph.dout

    def expand(pos: int, budget: int) -> ContextTree:
        tree = ContextTree(depth_budget=budget)
        if budget <= 0 or pos == EPS:
            return tree
        for child in sorted(rel(pos, v)):
            tree.root_children.append((child, expand(child, budget - 1)))
        return tree

    return expand(t, depth)


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
