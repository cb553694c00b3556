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
from .dataflow import EPS, ProgramFlow, Relation, UseGraph, chain_bounds
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
    as `usage.gru_*`/`w_gru` for `grug`, `usage.tree_*`/`w_d` otherwise.

    Each tensor is drawn from `seed` (the GRU biases are zero), unless
    `init(shape, name)` makes it, as `load` does from the stored arrays."""

    def __init__(self, variant: str, hyper: Hyper, type_names: Iterable[str],
                 lexemes: Iterable[str], seed: int = 0,
                 init: Optional[nn.ParamInit] = None):
        if variant not in VARIANTS:
            raise VariantError(f"unknown variant {variant!r}")
        self.variant = variant
        self.hyper = hyper
        rng = np.random.default_rng(seed)
        param = init or (lambda shape, name: nn.glorot(rng, shape, name))
        h = hyper.hidden
        self.type_names = sorted(set(type_names) | {UNK_TYPE})
        self.lexemes = sorted(set(lexemes) | {PAD, UNK, PLACEHOLDER})
        self.type_embeddings = {
            t: param((h,), f"type:{t}") for t in self.type_names}
        self.token_embeddings = {
            t: param((h,), f"lex:{t}") for t in self.lexemes}

        if hyper.context_encoder == "logbilinear":
            self.pos_prev = [param((h, h), f"ctx.prev{i}")
                             for i in range(hyper.window)]
            self.pos_next = [param((h, h), f"ctx.next{i}")
                             for i in range(hyper.window)]
            self.ctx_gru_prev = self.ctx_gru_next = None
        else:
            self.pos_prev = self.pos_next = None
            self.ctx_gru_prev = nn.GruCellParams(rng, h, h, "ctx.gru_p", init)
            self.ctx_gru_next = nn.GruCellParams(rng, h, h, "ctx.gru_n", init)
        self.w_c = param((h, 2 * h), "w_c")

        self.usage_prev = self.usage_next = self.w_usage = None
        self.w_h = None
        if variant in ("grug", "grud", "hybrid"):
            cell, w = ("gru", "w_gru") if variant == "grug" else ("tree", "w_d")
            self.usage_prev = nn.GruCellParams(rng, h, h, f"usage.{cell}_p",
                                               init)
            self.usage_next = nn.GruCellParams(rng, h, h, f"usage.{cell}_n",
                                               init)
            self.w_usage = param((h, 2 * h), w)
        if variant == "hybrid":
            self.w_h = param((h, 2 * h), "w_h")

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
        # a model of the stored tensors themselves; a name the checkpoint
        # lacks gets an empty stand-in until the name check rejects it
        shapes: Dict[str, Tuple[int, ...]] = {}

        def stored(shape: Tuple[int, ...], name: str) -> Tensor:
            shapes[name] = shape
            return loaded[name] if name in loaded else Tensor(())

        params = cls(cfg["variant"], hyper, cfg["types"], cfg["lexemes"],
                     init=stored)
        if set(shapes) != set(loaded):
            differ = sorted(set(shapes) ^ set(loaded))
            more = ", ..." if len(differ) > 5 else ""
            raise ValueError(f"checkpoint parameter mismatch: {len(differ)} "
                             f"names differ: {', '.join(differ[:5])}{more}")
        for name in params.named():
            _check_shape(name, loaded, shapes[name])
            if not np.isfinite(loaded[name].data).all():
                raise ValueError(f"checkpoint parameter {name!r} holds a "
                                 f"value that is not finite")
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
    edges, node by node, and where each node's edges start.  Root k is read
    from the deepest level's bank: leaf k until a tree or chain gives
    candidate k a node of that depth."""

    def __init__(self, n_candidates: int):
        self.k = n_candidates
        self.levels: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        self.roots: List[int] = list(range(n_candidates))

    def _level(self, depth: int) -> Tuple[List[int], List[int], List[int]]:
        return self.levels.get(depth) \
            or self.levels.setdefault(depth, ([], [], []))

    def unroll(self, rel: Relation, roots: Sequence[Tuple[int, int]],
               positions: Dict[int, int], base: int, top: int):
        """Add the depth-`top` data-flow trees under `rel` of the roots, the
        (t, k) pairs of one (encoder, v, occurrences of v): h_d(x) is the
        max over y in rel(x) of a GRU step from h_{d-1}(y) on c(y), read
        from column `base + positions[y]`.  A node's state depends only on
        its position and depth, so each (x, d) is one node, however many
        roots reach it.  A child at depth 0, at EPS or without children is
        the first root's leaf; root k is the node at (t, top), or leaf k.
        Depth by depth, so `top` may exceed the recursion limit."""
        # top down: the positions of each depth's nodes, from depth `top`
        layers = []
        frontier = [t for t, _ in roots if rel.get(t)] if top > 0 else []
        while frontier:
            layer = dict.fromkeys(frontier)
            layers.append(layer)
            if len(layers) == top:
                break
            frontier = []
            for x in layer:
                for y in rel[x]:
                    if rel.get(y):
                        frontier.append(y)
        # bottom up: each depth's nodes in position order, edges in child
        # order; `below` maps a position to its node one depth down
        leaf = roots[0][1]
        below: Dict[int, int] = {}
        for depth, layer in enumerate(reversed(layers),
                                      top - len(layers) + 1):
            child_cols, ctx_cols, starts = self._level(depth)
            nodes = {}
            for x in sorted(layer):
                nodes[x] = self.k + len(starts)
                starts.append(len(child_cols))
                for y in sorted(rel[x]):
                    child_cols.append(below.get(y, leaf))
                    ctx_cols.append(base + positions[y])
            below = nodes
        for t, k in roots:
            self.roots[k] = below.get(t, k)

    def add_chain(self, k: int, ctx_cols: Sequence[int], top: int):
        """A GRU run from leaf k along `ctx_cols`: a one-child node per
        column, the last at depth `top`, which becomes root k; an empty
        chain leaves root k at leaf k."""
        node = k
        for depth, ctx in enumerate(ctx_cols, top - len(ctx_cols) + 1):
            children, contexts, starts = self._level(depth)
            starts.append(len(children))
            children.append(node)
            contexts.append(ctx)
            node = self.k + len(starts) - 1
        self.roots[k] = node


class Encoder:
    """Forward computation over one program.

    Context windows are static for an instance: every placeholder position
    shows the PLACEHOLDER embedding regardless of its current assignment.
    The usage encoders read c at the variable tokens and placeholders only,
    so the encoder keeps one context bank for its lifetime: `bank` is
    (H, P + 1), column 0 is c(EPS) = 0 and column `positions[t]` is c(t),
    the P positions in token order.  It is filled on first need, in one
    batch with the banks of the other encoders of a `usage_batch`.  The
    lexical and data-flow relations change during inference, so each
    usage carries v's occurrences, and `flow`, the program's, solves v's
    relations from them: the flow given (a training step passes the
    program's flow in `ItemCache`, so its memo outlives the step's
    encoders), or else one the encoder builds.

    Type representations are fixed for the encoder's lifetime too (a
    training encoder draws each symbol's subset once, from its seed and the
    symbol), and a candidate v's lexical chains and data-flow trees at t
    depend only on where v occurs, so `scores` memoises each score
    c(t) . u(t, v) by its key (t, v, occurrences of v) for the encoder's
    lifetime.  It computes only the missing scores, for several
    placeholders at once, and reads only their values, so it records no
    tape (`nn.no_tape`).  The context bank a ranking fills is therefore a
    constant, and so is each type representation, except a one-type
    closure's, which is the model's embedding itself: nothing cached
    records a tape, so to differentiate, encode through a fresh encoder.
    Turning scores into rankings is `infer`'s.

    `usage_batch` encodes a list of usages, an encoder and a `score_key`
    (t, v, occurrences of v), one column each.  It lays
    each usage's chains and data-flow trees onto the fixed columns of the
    encoders' banks; no type-dropout draw depends on the order of the
    usages: a training encoder draws from its own seed, taken from `rng`
    when it is made, and the symbol.  The arithmetic then runs in column
    batches: every missing bank in one batch, and every tree depth (a
    `grug` chain is a one-child tree) of every usage in one GRU step per
    direction.  A training step (one encoder per item, so its usages
    share no node), a validation instance, a lockstep ICM step over all
    of its restarts and a usage dump all go through it.
    """

    def __init__(self, params: ModelParams, program: TypedProgram,
                 placeholder_tokens: Iterable[int] = (),
                 training: bool = False,
                 rng: Optional[random.Random] = None,
                 flow: Optional[ProgramFlow] = None):
        self.params = params
        self.hyper = params.hyper
        self.program = program
        self.flow = flow if flow is not None else ProgramFlow(program)
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
    def token_columns(self) -> np.ndarray:
        """Token index -> its column of `bank`, -1 for a token without one;
        every occurrence of a symbol has one."""
        out = np.full(len(self.program.tokens), -1, dtype=np.intp)
        tokens = list(self.positions)[1:]
        out[tokens] = [self.positions[t] for t in tokens]
        return out

    # -- type representation --

    def type_embed(self, sid: int) -> Tensor:
        """Element-wise max over the supertype closure's embeddings; at
        training time over a random non-empty subset drawn by (seed, sid).
        A one-member closure or subset is that member's embedding itself,
        so a tape takes it once however many readers it has."""
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
        out = embs[members[0]] if len(members) == 1 \
            else nn.elementwise_max([embs[m] for m in members])
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

    def usage_repr(self, ug: UseGraph, t: int, v: int) -> Tensor:
        """The usage representation of one candidate v at token t, v's
        occurrences read from `ug` as they are."""
        occ = ug.occurrences.get(v, ())
        return nn.gather(usage_batch([(self, t, v, occ)]), 0)

    def scores(self, keys: Sequence[Tuple[int, int, Tuple[int, ...]]]
               ) -> List[float]:
        """The score c(t) . u(t, v) of each (t, v, occurrences of v) key, in
        key order.  The keys missing from the memo are computed once each,
        in one `usage_batch` inside `nn.no_tape()` in order of first
        appearance, and scored against the bank's c(t) columns."""
        memo = self._scores
        missing = dict.fromkeys(key for key in keys if key not in memo)
        if missing:
            with nn.no_tape():
                u = np.ascontiguousarray(usage_batch(
                    [(self, *key) for key in missing]).data.T)
            c = self.bank.data.T[[self.positions[t] for t, _, _ in missing]]
            # one contiguous row sum per usage: unlike a BLAS product, its
            # rounding does not depend on the other columns of the batch,
            # so equal usage columns keep exactly equal scores
            memo.update(zip(missing, (u * c).sum(axis=1)))
        return [memo[key] for key in keys]


# One column of a usage batch, candidate v at token t: the encoder, then
# the score key (t, v, occurrences of v).
Usage = Tuple[Encoder, int, int, Tuple[int, ...]]


def score_key(occurrences: Dict[int, Tuple[int, ...]], own: Optional[int],
              t: int, v: int) -> Tuple[int, int, Tuple[int, ...]]:
    """The score key (t, v, occurrences of v) of candidate v at token t
    under `occurrences`, which bind t to `own` (or to nothing): v's
    occurrences with t unbound, so t's own symbol does not already hold
    t's use.  The one rule from a binding to a candidate's usage."""
    occ = occurrences.get(v, ())
    if v == own:
        occ = tuple(x for x in occ if x != t)
    return t, v, occ


def _fill_banks(encoders: Sequence[Encoder]):
    """c(t) = W_C [f_prev(window before t), f_next(window after t)] at every
    position of each encoder that has no bank yet, all in one batch (the
    encoders share one model); each such encoder's bank is then one gather
    of that block: the zero column c(EPS), then its positions in order.
    Filled inside `nn.no_tape()`, as a ranking fills them, the banks are
    constants, even where a window's type representation is an embedding
    itself, a parameter (`Encoder.type_embed`)."""
    todo = [enc for enc in encoders if enc.bank is None]
    if not todo:
        return
    p = todo[0].params
    c = p.hyper.window
    offsets = [i for i in range(-c, c + 1) if i]
    # each distinct window tensor once, however many windows and encoders
    # read it, so a tape takes it once: row k of `cols` holds the columns
    # of `tokens` in the window of the k-th position, slot by slot
    column: Dict[Tensor, int] = {}  # window tensor -> its column
    rows: List[List[int]] = []
    for enc in todo:
        positions = list(enc.positions)[1:]
        window = {x: column.setdefault(enc.token_repr(x), len(column))
                  for x in dict.fromkeys(t + i for t in positions
                                         for i in offsets)}
        rows += [[window[t + i] for i in offsets] for t in positions]
    cols = np.array(rows, dtype=np.intp).reshape(-1, 2 * c)
    parts = [nn.constant(np.zeros((p.hyper.hidden, 1)))]
    if len(cols):
        tokens = nn.columns(list(column))
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


def usage_batch(usages: Sequence[Usage]) -> Tensor:
    """Usage representations, one column per usage in order: (H, number of
    usages).  The usages' encoders share one model.  Each usage is read as
    it is: hiding t's own use from v's occurrences is `score_key`'s.

    The banks of the encoders that lack one are filled in one batch, and
    the contexts are the encoders' banks side by side, in order of first
    appearance: an encoder whose bank starts at column `base` reads c(x)
    from column `base + positions[x]`.  The leaves are one gather from the
    type bank: each distinct type representation once.  A usage's lexical
    chains are two slices of v's sorted occurrences (`chain_bounds`); all
    of them are mapped to context columns in one array lookup,
    `Encoder.token_columns`, and the pooled mean weights each usage's
    chain columns by 1 / their count.  One `_TreeIndex` per direction
    (`grug`'s chains or the data-flow trees) holds every usage in its
    column, so each depth is one GRU step per direction over the whole
    batch.  The data-flow trees of the usages of one (encoder, v,
    occurrences of v), which ICM's trial mappings mostly share, are one
    `_TreeIndex.unroll` per direction under the relations the encoder's
    `flow` solves, so each of their nodes is stepped once and its gradient
    sums over its readers."""
    params = usages[0][0].params
    variant = params.variant
    n = params.hyper.chain_len
    lexical = variant in ("avgg", "grug", "hybrid")
    df_trees = variant in ("grud", "hybrid")
    k_all = len(usages)
    encoders = list(dict.fromkeys(usage[0] for usage in usages))
    _fill_banks(encoders)
    bases = dict(zip(encoders, accumulate(
        (len(enc.positions) for enc in encoders), initial=0)))
    trees = {d: _TreeIndex(k_all) for d in ("prev", "next")}
    # each distinct type representation -> its column of the type bank
    types: Dict[Tensor, int] = {}
    leaf_cols: List[int] = []
    # every usage's prev chain then its next chain, as token positions
    chain_tokens: List[int] = []
    prev_lens: List[int] = []
    next_lens: List[int] = []
    # (encoder, v, occurrences of v) -> the (t, usage column) roots of its
    # data-flow trees
    unrolls: Dict[tuple, List[Tuple[int, int]]] = {}
    for k, (enc, t, v, occ) in enumerate(usages):
        leaf_cols.append(types.setdefault(enc.type_embed(v), len(types)))
        if lexical:
            lo, i, j, hi = chain_bounds(occ, t, n)
            chain_tokens += occ[lo:i]
            chain_tokens += occ[j:hi]
            prev_lens.append(i - lo)
            next_lens.append(hi - j)
        if df_trees:
            unrolls.setdefault((enc, v, occ), []).append((t, k))
    for (enc, v, occ), roots in unrolls.items():
        for d, rel in zip(("prev", "next"), enc.flow.relations(v, occ)):
            trees[d].unroll(rel, roots, enc.positions, bases[enc],
                            params.hyper.tree_depth)

    leaves = nn.gather(nn.columns(list(types)), leaf_cols)
    if variant == "loc":
        return leaves
    if lexical:
        # each chain token's context column: the encoders' token -> column
        # tables end to end, read at the token plus its encoder's offset
        table = np.concatenate([enc.token_columns + bases[enc]
                                for enc in encoders])
        offsets = dict(zip(encoders, accumulate(
            (len(enc.token_columns) for enc in encoders), initial=0)))
        lens = np.add(prev_lens, next_lens)
        chain_cols = table[np.asarray(chain_tokens, dtype=np.intp)
                           + np.repeat([offsets[enc] for enc, *_ in usages],
                                       lens)]
        if variant == "grug":
            cols = chain_cols.tolist()
            start = 0
            for k, (n_prev, n_next) in enumerate(zip(prev_lens, next_lens)):
                mid = start + n_prev
                trees["prev"].add_chain(k, cols[start:mid], n)
                trees["next"].add_chain(k, cols[mid:mid + n_next], n)
                start = mid + n_next
    contexts = nn.columns([enc.bank for enc in encoders])
    p = params
    if variant in ("avgg", "hybrid"):
        mean = np.zeros((contexts.shape[1], k_all))
        mean[chain_cols, np.repeat(np.arange(k_all), lens)] = \
            1.0 / np.repeat(lens, lens)
        avgg = nn.add(leaves, nn.matmul(contexts, nn.constant(mean)))
        if variant == "avgg":
            return avgg
    hp = _tree_states(leaves, contexts, trees["prev"], p.usage_prev)
    hn = _tree_states(leaves, contexts, trees["next"], p.usage_next)
    structural = nn.matmul(p.w_usage, nn.concat([hp, hn]))
    if variant != "hybrid":
        return structural
    return nn.matmul(p.w_h, nn.concat([avgg, structural]))


def dump_usage_vectors(encoder: Encoder, instance_id: str,
                       keys: Sequence[tuple]) -> str:
    """Line-delimited (instance, token, symbol, variant, values) records, one
    per score key (t, v, occurrences of v), encoded in one `usage_batch`
    that records no tape."""
    with nn.no_tape():
        u = usage_batch([(encoder, *key) for key in keys]).data
    lines = []
    for k, (t, v, _) in enumerate(keys):
        values = "\t".join(repr(x) for x in u[:, k].tolist())
        lines.append(f"{instance_id}\t{t}\t{v}\t{encoder.params.variant}\t"
                     f"{values}")
    return "\n".join(lines)
