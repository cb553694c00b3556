"""Learned representations: type pooling over the supertype closure, the
windowed context representation, the five usage-representation variants
(loc, avgg, grug, grud, hybrid), and the inner-product scorer."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import nn
from .dataflow import EPS, ProgramFlow, UseGraph
from .minilang.checker import TypedProgram, UNK_TYPE, supertype_closure
from .nn import Tensor

VARIANTS = ("loc", "avgg", "grug", "grud", "hybrid")
CONTEXT_ENCODERS = ("logbilinear", "gru")

PAD = "<pad>"
UNK = "<unk>"
PLACEHOLDER = "<placeholder>"

DEFAULT_RARE_THRESHOLD = 2  # lexemes seen fewer times map to UNK

# Tokens the context window reads on each side of a position, at most.  A
# GRU-context checkpoint stores nothing sized by the window, so nothing else
# bounds the 2 x window GRU steps each position of each bank fill runs.
MAX_WINDOW = 32


class VariantError(Exception):
    pass


@dataclass
class Hyper:
    """Model hyperparameters.  E (embedding) and H (hidden) are kept equal so
    type embeddings can seed GRU states directly."""

    hidden: int = 64
    window: int = 3
    chain_len: int = 14
    tree_depth: int = 15
    context_encoder: str = "logbilinear"
    type_dropout: float = 0.5
    # ablation switch: every variable reads as the unknown type
    unk_types: bool = False

    def __post_init__(self):
        for name, low in (("hidden", 1), ("window", 1), ("chain_len", 0),
                          ("tree_depth", 0)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, "
                                 f"got {value}")
        if self.window > MAX_WINDOW:
            raise ValueError(f"window must be at most {MAX_WINDOW}, "
                             f"got {self.window}")
        if type(self.unk_types) is not bool:
            raise ValueError(f"unk_types must be true or false, "
                             f"got {self.unk_types!r}")
        # type_embed redraws until a supertype survives dropout
        if type(self.type_dropout) not in (int, float) \
                or not 0 <= self.type_dropout < 1:
            raise ValueError(f"type_dropout must be a number in [0, 1), "
                             f"got {self.type_dropout!r}")
        if self.context_encoder not in CONTEXT_ENCODERS:
            raise VariantError(
                f"unknown context encoder {self.context_encoder!r}")


def build_vocab(instances) -> Tuple[List[str], List[str]]:
    """(type names, non-variable lexemes above the rarity threshold)."""
    types: Set[str] = set()
    counts: Counter = Counter()
    for inst in instances:
        types.update(inst.program.lattice.supers)
        for tok in inst.program.tokens:
            if tok.symbol is None:
                counts[tok.text] += 1
    lexemes = sorted(t for t, c in counts.items()
                     if c >= DEFAULT_RARE_THRESHOLD)
    return sorted(types), lexemes


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, str) for e in x)


class ModelParams:
    """All learnable tensors for one model variant + context encoder.  The
    usage GRU pair `usage_prev`/`usage_next` and its map `w_usage` are saved
    as `usage.gru_*`/`w_gru` for `grug`, `usage.tree_*`/`w_d` otherwise."""

    def __init__(self, variant: str, hyper: Hyper, type_names: Iterable[str],
                 lexemes: Iterable[str], seed: int = 0):
        if variant not in VARIANTS:
            raise VariantError(f"unknown variant {variant!r}")
        self.variant = variant
        self.hyper = hyper
        rng = np.random.default_rng(seed)
        h = hyper.hidden
        self.type_names = sorted(set(type_names) | {UNK_TYPE})
        self.lexemes = sorted(set(lexemes) | {PAD, UNK, PLACEHOLDER})
        self.type_embeddings = {
            t: nn.glorot(rng, (h,), f"type:{t}") for t in self.type_names}
        self.token_embeddings = {
            t: nn.glorot(rng, (h,), f"lex:{t}") for t in self.lexemes}

        if hyper.context_encoder == "logbilinear":
            self.pos_prev = [nn.glorot(rng, (h, h), f"ctx.prev{i}")
                             for i in range(hyper.window)]
            self.pos_next = [nn.glorot(rng, (h, h), f"ctx.next{i}")
                             for i in range(hyper.window)]
            self.ctx_gru_prev = self.ctx_gru_next = None
        else:
            self.pos_prev = self.pos_next = None
            self.ctx_gru_prev = nn.GruCellParams(rng, h, h, "ctx.gru_p")
            self.ctx_gru_next = nn.GruCellParams(rng, h, h, "ctx.gru_n")
        self.w_c = nn.glorot(rng, (h, 2 * h), "w_c")

        self.usage_prev = self.usage_next = self.w_usage = None
        self.w_h = None
        if variant in ("grug", "grud", "hybrid"):
            cell, w = ("gru", "w_gru") if variant == "grug" else ("tree", "w_d")
            self.usage_prev = nn.GruCellParams(rng, h, h, f"usage.{cell}_p")
            self.usage_next = nn.GruCellParams(rng, h, h, f"usage.{cell}_n")
            self.w_usage = nn.glorot(rng, (h, 2 * h), w)
        if variant == "hybrid":
            self.w_h = nn.glorot(rng, (h, 2 * h), "w_h")

    # -- parameter registry --

    def named(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for t, e in self.type_embeddings.items():
            out[f"type:{t}"] = e
        for t, e in self.token_embeddings.items():
            out[f"lex:{t}"] = e
        if self.pos_prev is not None:
            for i, m in enumerate(self.pos_prev):
                out[f"ctx.prev{i}"] = m
            for i, m in enumerate(self.pos_next):
                out[f"ctx.next{i}"] = m
        for cell in (self.ctx_gru_prev, self.ctx_gru_next, self.usage_prev,
                     self.usage_next):
            if cell is not None:
                for t in cell.tensors():
                    out[t.name] = t
        for w in (self.w_c, self.w_usage, self.w_h):
            if w is not None:
                out[w.name] = w
        return out

    def tensors(self) -> List[Tensor]:
        return list(self.named().values())

    # -- persistence --

    def config(self) -> dict:
        return {"variant": self.variant, "hyper": asdict(self.hyper),
                "types": self.type_names, "lexemes": self.lexemes}

    def save(self, path: str, extra_config: Optional[dict] = None):
        cfg = self.config()
        if extra_config:
            cfg.update(extra_config)
        nn.save_checkpoint(path, self.named(), cfg)

    @classmethod
    def load(cls, path: str) -> Tuple["ModelParams", dict]:
        loaded, cfg = nn.load_checkpoint(path)
        if not isinstance(cfg, dict):
            raise ValueError("checkpoint config is not an object")
        for key, ok in (("variant", lambda x: isinstance(x, str)),
                        ("hyper", lambda x: isinstance(x, dict)),
                        ("types", _is_str_list), ("lexemes", _is_str_list)):
            if key not in cfg:
                raise ValueError(f"checkpoint config has no {key!r}")
            if not ok(cfg[key]):
                raise ValueError(f"checkpoint config {key!r} is ill-typed: "
                                 f"{cfg[key]!r:.60}")
        try:
            hyper = Hyper(**cfg["hyper"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"checkpoint config 'hyper' is ill-formed: "
                             f"{e}") from e
        # compare the sizes `hyper` asks for with the stored ones before
        # building a model of those sizes
        h = hyper.hidden
        _check_shape("w_c", loaded, (h, 2 * h))
        if hyper.context_encoder == "logbilinear":
            for side in ("prev", "next"):
                stored = sum(name.startswith(f"ctx.{side}") for name in loaded)
                if stored != hyper.window:
                    raise ValueError(f"checkpoint holds {stored} ctx.{side} "
                                     f"matrices, but its hyper window is "
                                     f"{hyper.window}")
        params = cls(cfg["variant"], hyper, cfg["types"], cfg["lexemes"])
        named = params.named()
        if set(named) != set(loaded):
            differ = sorted(set(named) ^ set(loaded))
            more = ", ..." if len(differ) > 5 else ""
            raise ValueError(f"checkpoint parameter mismatch: {len(differ)} "
                             f"names differ: {', '.join(differ[:5])}{more}")
        for name, t in named.items():
            _check_shape(name, loaded, t.data.shape)
            data = loaded[name].data
            if not np.isfinite(data).all():
                raise ValueError(f"checkpoint parameter {name!r} holds a "
                                 f"value that is not finite")
            t.data[...] = data
        return params, cfg


def _check_shape(name: str, loaded: Dict[str, Tensor],
                 shape: Tuple[int, ...]):
    """Reject a checkpoint whose parameter `name` is absent or not `shape`."""
    if name not in loaded:
        raise ValueError(f"checkpoint has no parameter {name!r}")
    if loaded[name].shape != shape:
        raise ValueError(f"checkpoint parameter {name!r} has shape "
                         f"{loaded[name].shape}, the model needs {shape}")


class _TreeIndex:
    """One direction's TreeGRU over all candidates of a usage batch, as
    per-depth batches.  Columns of the state bank at depth d are the K type
    representations (the leaves) followed by the node states of depth d - 1;
    each depth lists its nodes' (child bank column, child context column)
    edges, node by node, and where each node's edges start.  Roots are read
    from the deepest level's bank: each is a leaf or a node of that depth."""

    def __init__(self, n_candidates: int):
        self.k = n_candidates
        self.levels: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        self.roots: List[int] = []

    def add_node(self, depth: int, children: List[int],
                 contexts: List[int]) -> int:
        """A node at `depth` whose edges are (children[i], contexts[i])."""
        child_cols, ctx_cols, starts = self.levels.get(depth) \
            or self.levels.setdefault(depth, ([], [], []))
        starts.append(len(child_cols))
        child_cols += children
        ctx_cols += contexts
        return self.k + len(starts) - 1

    def add_chain(self, k: int, ctx_cols: Sequence[int], top: int):
        """A GRU run from leaf k along `ctx_cols`: a one-child node per
        column, the last at depth `top`; an empty chain's root is leaf k."""
        node = k
        for depth, ctx in enumerate(ctx_cols, top - len(ctx_cols) + 1):
            node = self.add_node(depth, [node], [ctx])
        self.roots.append(node)


class Encoder:
    """Forward computation over one program view.

    Context windows are static for an instance: every placeholder position
    shows the PLACEHOLDER embedding regardless of its current assignment.
    The usage encoders read c at the variable tokens and placeholders only,
    so the encoder keeps one context bank for its lifetime: `bank` is
    (H, P + 1), column 0 is c(EPS) = 0 and column `positions[t]` is c(t),
    the P positions in token order.  It is filled on first need, in one
    batch with the banks of the other encoders of a `usage_batch`.  The
    lexical and data-flow relations are supplied per call and do change
    during inference; `flow` solves them per symbol on demand for the use
    graphs of the encoder's program.

    Type representations are fixed for the encoder's lifetime too (a
    training encoder draws each symbol's subset once, from its seed and the
    symbol), and a candidate v's lexical chains and data-flow trees at t
    depend only on where v occurs, so `scores` memoises each score
    c(t) . u(t, v) by (t, v, occurrences of v) for the encoder's lifetime.
    It computes only the missing scores, for several placeholders at once,
    and reads only their values, so it records no tape (`nn.no_tape`).  The
    context bank and type representations a ranking fills are therefore
    constants: to differentiate, encode through a fresh encoder.  Turning
    scores into rankings is `infer`'s.

    `usage_batch` encodes the candidates of several (encoder, view, t,
    candidates) groups at once; `usage_reprs` is its one-group call.  It
    walks each candidate's chains and data-flow trees, group after group,
    onto the fixed columns of the encoders' banks; no type-dropout draw
    depends on the walk's order: a training encoder draws from its own
    seed, taken from `rng` when it is made, and the symbol.  The
    arithmetic then runs in column batches: every missing bank in one
    batch, and every tree depth (a `grug` chain is a one-child tree) of
    every candidate of every group in one GRU step per direction.  A
    training step (one encoder per item, so its groups share no node), a
    validation instance and a lockstep ICM step over all of its restarts
    all go through it.
    """

    def __init__(self, params: ModelParams, program: TypedProgram,
                 placeholder_tokens: Iterable[int] = (),
                 training: bool = False,
                 rng: Optional[random.Random] = None):
        self.params = params
        self.hyper = params.hyper
        self.program = program
        self.placeholder_tokens = set(placeholder_tokens)
        self.training = training
        self._seed = (rng if rng is not None else random.Random(0)
                      ).getrandbits(64) if training else None
        # position -> its column of `bank`: EPS, then every variable token
        # and placeholder in token order
        variables = {tok.index for tok in program.tokens
                     if tok.symbol is not None}
        self.positions: Dict[int, int] = {
            t: col for col, t in enumerate(
                [EPS] + sorted(variables | self.placeholder_tokens))}
        self.bank: Optional[Tensor] = None  # (H, P + 1), see `_fill_banks`
        self._type_cache: Dict[int, Tensor] = {}
        # (t, v, occurrences of v) -> score
        self._scores: Dict[Tuple[int, int, Tuple[int, ...]], float] = {}

    @cached_property
    def flow(self) -> ProgramFlow:
        """The program's data-flow relations, solved per symbol as asked."""
        return ProgramFlow(self.program)

    # -- type representation --

    def type_embed(self, sid: int) -> Tensor:
        """Element-wise max over the supertype closure's embeddings; at
        training time over a random non-empty subset drawn by (seed, sid)."""
        if sid in self._type_cache:
            return self._type_cache[sid]
        declared = UNK_TYPE if self.hyper.unk_types \
            else self.program.symbol(sid).declared_type
        closure = sorted(supertype_closure(self.program.lattice, declared))
        embs = self.params.type_embeddings
        members = [t if t in embs else UNK_TYPE for t in closure]
        if self.training and len(members) > 1:
            draw = random.Random(hash((self._seed, sid))).random
            keep = []
            while not keep:
                keep = [m for m in members
                        if draw() >= self.hyper.type_dropout]
            members = keep
        out = nn.elementwise_max([embs[m] for m in members])
        self._type_cache[sid] = out
        return out

    # -- context representation --

    def token_repr(self, t: int) -> Tensor:
        """Embedding of one window token: PAD past file bounds, PLACEHOLDER
        at placeholder positions, the type representation for variables, and
        the lexeme embedding otherwise."""
        embs = self.params.token_embeddings
        if t < 0 or t >= len(self.program.tokens):
            return embs[PAD]
        if t in self.placeholder_tokens:
            return embs[PLACEHOLDER]
        tok = self.program.tokens[t]
        if tok.symbol is not None:
            return self.type_embed(tok.symbol)
        return embs.get(tok.text, embs[UNK])

    def context_repr(self, t: int) -> Tensor:
        """The context vector of a variable token or placeholder t, one
        column of the bank; c(EPS) is the zero vector."""
        _fill_banks([self])
        return nn.gather(self.bank, self.positions[t])

    # -- usage representations --

    def _index_tree(self, ug: UseGraph, t: int, v: int, k: int,
                    direction: str, index: _TreeIndex, base: int,
                    memo: Dict[Tuple[int, int], int]):
        """Walk candidate k's bounded data-flow unrolling from t in the
        order of the recursive TreeGRU (children sorted, each child's
        subtree before its context) and add its nodes to `index`, reading
        the context of position x from column `base + positions[x]`.  A node
        at depth 0, at EPS or without children is the leaf: the type
        representation.  `memo` maps (position, depth) to the column of a
        node already added: a node's state depends only on the encoder, v,
        v's occurrences, its position and its depth, so walks of one such
        (encoder, v, occurrences) may share a memo, and a shared node's
        leaves are another walk's column of the same type representation.
        A loop, not recursion, so `tree_depth` may exceed the recursion
        limit."""
        rel = ug.relations(v)[0 if direction == "prev" else 1]
        cols = self.positions
        top = self.hyper.tree_depth
        children = top > 0 and t != EPS and rel.get(t)
        node = memo.get((t, top)) if children else k
        if node is not None:
            index.roots.append(node)
            return
        # the node being walked: position, its children's depth, children
        # not yet visited, edges so far; `stack` holds the nodes above it
        pos, depth, children, child_cols, ctx_cols = \
            t, top - 1, iter(sorted(children)), [], []
        stack = []
        while True:
            for child in children:
                col = k
                grandchildren = depth > 0 and child != EPS and rel.get(child)
                if grandchildren:
                    col = memo.get((child, depth))
                    if col is None:  # its subtree first, then its edge
                        stack.append((pos, depth, children, child_cols,
                                      ctx_cols))
                        pos, depth, children, child_cols, ctx_cols = \
                            child, depth - 1, iter(sorted(grandchildren)), \
                            [], []
                        break
                child_cols.append(col)
                ctx_cols.append(base + cols[child])
            else:
                node = memo[pos, depth + 1] = index.add_node(
                    depth + 1, child_cols, ctx_cols)
                if not stack:
                    break
                ctx = base + cols[pos]
                pos, depth, children, child_cols, ctx_cols = stack.pop()
                child_cols.append(node)
                ctx_cols.append(ctx)
        index.roots.append(node)

    def usage_reprs(self, ug: UseGraph, t: int,
                    candidates: Sequence[int]) -> Tensor:
        """Usage representations of the candidate symbols at token t, one
        column per candidate: (H, K); the one-group `usage_batch`."""
        return usage_batch([(self, ug, t, candidates)])

    def usage_repr(self, ug: UseGraph, t: int, v: int) -> Tensor:
        """The usage representation of one candidate v at token t."""
        return nn.gather(self.usage_reprs(ug, t, [v]), 0)

    def scores(self, groups: Sequence[Tuple[UseGraph, int, Sequence[int]]]
               ) -> List[List[float]]:
        """For each (view, t, candidates) group, the scores c(t) . u(t, v)
        of its candidates in order.  Scores missing from the memo are
        computed in one `usage_batch` over every group, inside
        `nn.no_tape()`, and scored against the bank's c(t) columns; a key
        that several groups miss is computed once."""
        memo = self._scores
        keys = [[(t, v, ug.occurrences.get(v, ())) for v in candidates]
                for ug, t, candidates in groups]
        batch: List[UsageGroup] = []
        missing: Dict[Tuple[int, int, Tuple[int, ...]], None] = {}
        for (ug, t, _), group_keys in zip(groups, keys):
            absent = [key for key in group_keys
                      if key not in memo and key not in missing]
            if absent:
                batch.append((self, ug, t, [v for _, v, _ in absent]))
                missing.update(dict.fromkeys(absent))
        if batch:
            with nn.no_tape():
                u = np.ascontiguousarray(usage_batch(batch).data.T)
            c = self.bank.data.T[[self.positions[t] for _, _, t, vs in batch
                                  for _ in vs]]
            # one contiguous row sum per candidate: unlike a BLAS product,
            # its rounding does not depend on the other columns of the
            # batch, so equal usage columns keep exactly equal scores
            memo.update(zip(missing, (u * c).sum(axis=1)))
        return [[memo[key] for key in group_keys] for group_keys in keys]


# One group of a usage batch: (encoder, use graph, token t, candidates).
UsageGroup = Tuple[Encoder, UseGraph, int, Sequence[int]]


def _fill_banks(encoders: Sequence[Encoder]):
    """c(t) = W_C [f_prev(window before t), f_next(window after t)] at every
    position of each encoder that has no bank yet, all in one batch (the
    encoders share one model); each such encoder's bank is then one gather
    of that block: the zero column c(EPS), then its positions in order."""
    todo = [enc for enc in encoders if enc.bank is None]
    if not todo:
        return
    p = todo[0].params
    c = p.hyper.window
    offsets = [i for i in range(-c, c + 1) if i]
    # each encoder's window tokens embedded once: row k of `cols` holds the
    # columns of `reprs` in the window of the k-th position, slot by slot
    reprs: List[Tensor] = []
    rows: List[List[int]] = []
    for enc in todo:
        column: Dict[int, int] = {}  # window token -> its column of reprs
        rows += [[column.setdefault(t + i, len(reprs) + len(column))
                  for i in offsets] for t in list(enc.positions)[1:]]
        reprs += [enc.token_repr(t) for t in column]
    cols = np.array(rows, dtype=np.intp).reshape(-1, 2 * c)
    parts = [nn.constant(np.zeros((p.hyper.hidden, 1)))]
    if len(cols):
        tokens = nn.columns(reprs)
        windows = [nn.gather(tokens, cols[:, i]) for i in range(2 * c)]
        prev, nxt = windows[:c], windows[c:]
        if p.pos_prev is not None:  # log-bilinear: position-wise linear maps
            fp = nn.matmul(p.pos_prev[0], prev[0])
            for i in range(1, c):
                fp = nn.add(fp, nn.matmul(p.pos_prev[i], prev[i]))
            fn = nn.matmul(p.pos_next[0], nxt[0])
            for i in range(1, c):
                fn = nn.add(fn, nn.matmul(p.pos_next[i], nxt[i]))
        else:
            zero = nn.constant(np.zeros((p.hyper.hidden, len(cols))))
            fp = zero
            for x in prev:
                fp = nn.gru_step(fp, x, p.ctx_gru_prev)
            fn = zero
            for x in reversed(nxt):
                fn = nn.gru_step(fn, x, p.ctx_gru_next)
        parts.append(nn.matmul(p.w_c, nn.concat([fp, fn])))
    block = nn.columns(parts)
    start = 1
    for enc in todo:
        stop = start + len(enc.positions) - 1
        enc.bank = nn.gather(block, [0, *range(start, stop)])
        start = stop


def _tree_states(leaves: Tensor, contexts: Tensor, index: _TreeIndex,
                 cell: nn.GruCellParams) -> Tensor:
    """TreeGRU root states, (H, K): one GRU step over all edges of a depth,
    then a max over each node's edges if any has two, deepest level first."""
    bank = leaves
    for depth in sorted(index.levels):
        child_cols, ctx_cols, starts = index.levels[depth]
        edges = nn.gru_step(nn.gather(bank, child_cols),
                            nn.gather(contexts, ctx_cols), cell)
        if len(starts) < len(child_cols):  # some node has several edges
            edges = nn.segment_max(edges, starts)
        bank = nn.columns([leaves, edges])
    return nn.gather(bank, index.roots)


def usage_batch(groups: Sequence[UsageGroup]) -> Tensor:
    """Usage representations of every group's candidates at its token t,
    one column per candidate in group order: (H, sum of the K).  The
    groups' encoders share one model.

    The banks of the encoders that lack one are filled in one batch, and
    the contexts are the encoders' banks side by side, in order of first
    appearance: an encoder whose bank starts at column `base` reads c(x)
    from column `base + positions[x]`.  The chain lists and one
    `_TreeIndex` per direction (`grug`'s chains or the data-flow trees)
    hold every group in global candidate columns, so each depth is one GRU
    step per direction over the whole batch.  Groups of one encoder share
    the data-flow walks of a candidate with equal occurrences (one memo per
    direction and (encoder, v, occurrences of v), see
    `Encoder._index_tree`), as ICM's trial mappings mostly do, so its
    subtrees are unrolled and stepped once and a shared node's gradient
    sums over its readers."""
    params = groups[0][0].params
    variant = params.variant
    n = params.hyper.chain_len
    k_all = sum([len(group[3]) for group in groups])
    encoders = list(dict.fromkeys(group[0] for group in groups))
    _fill_banks(encoders)
    bases = dict(zip(encoders, accumulate(
        (len(enc.positions) for enc in encoders), initial=0)))
    chains: Dict[str, List[List[int]]] = {"prev": [], "next": []}
    trees = {d: _TreeIndex(k_all) for d in ("prev", "next")}
    # (encoder, v, occurrences of v) -> its walk memos, one per direction;
    # with one group per encoder (a training step) no walk can share them
    walks: Dict[tuple, Tuple[dict, dict]] = {}
    shared = len(encoders) < len(groups)
    k = 0
    for enc, ug, t, candidates in groups:
        base, cols = bases[enc], enc.positions
        for v in candidates:
            if variant in ("avgg", "grug", "hybrid"):
                for d in ("prev", "next"):
                    chain = [base + cols[x] for x in ug.lex_chain(t, v, n, d)]
                    if variant == "grug":
                        trees[d].add_chain(k, chain, n)
                    else:
                        chains[d].append(chain)
            if variant in ("grud", "hybrid"):
                memos = ({}, {})
                if shared:
                    memos = walks.setdefault(
                        (enc, v, ug.occurrences.get(v, ())), memos)
                for d, memo in zip(("prev", "next"), memos):
                    enc._index_tree(ug, t, v, k, d, trees[d], base, memo)
            k += 1

    leaves = nn.columns([enc.type_embed(v)
                         for enc, _, _, candidates in groups
                         for v in candidates])
    if variant == "loc":
        return leaves
    contexts = nn.columns([enc.bank for enc in encoders])
    p = params
    if variant in ("avgg", "hybrid"):
        rows: List[int] = []
        ks: List[int] = []
        weights: List[float] = []
        for k, (prev, nxt) in enumerate(zip(chains["prev"], chains["next"])):
            both = prev + nxt
            if both:
                rows += both
                ks += [k] * len(both)
                weights += [1.0 / len(both)] * len(both)
        mean = np.zeros((contexts.shape[1], k_all))
        mean[rows, ks] = weights
        avgg = nn.add(leaves, nn.matmul(contexts, nn.constant(mean)))
        if variant == "avgg":
            return avgg
    hp = _tree_states(leaves, contexts, trees["prev"], p.usage_prev)
    hn = _tree_states(leaves, contexts, trees["next"], p.usage_next)
    structural = nn.matmul(p.w_usage, nn.concat([hp, hn]))
    if variant != "hybrid":
        return structural
    return nn.matmul(p.w_h, nn.concat([avgg, structural]))


def dump_usage_vectors(encoder: Encoder, ug: UseGraph, instance_id: str,
                       t: int, candidates: Sequence[int]) -> str:
    """Line-delimited (instance, token, symbol, variant, values) records, one
    per candidate at token t, encoded in one `usage_reprs` batch that
    records no tape."""
    with nn.no_tape():
        u = encoder.usage_reprs(ug, t, candidates).data
    lines = []
    for k, v in enumerate(candidates):
        values = "\t".join(repr(x) for x in u[:, k].tolist())
        lines.append(f"{instance_id}\t{t}\t{v}\t{encoder.params.variant}\t"
                     f"{values}")
    return "\n".join(lines)
