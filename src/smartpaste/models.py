"""Learned representations: type pooling over the supertype closure, the
windowed context representation, the five usage-representation variants
(loc, avgg, grug, grud, hybrid), and the inner-product scorer."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, \
    Tuple

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
        if self.hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {self.hidden}")
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
        except TypeError as e:
            raise ValueError(f"checkpoint config 'hyper' is ill-formed: "
                             f"{e}") from e
        params = cls(cfg["variant"], hyper, cfg["types"], cfg["lexemes"])
        named = params.named()
        if set(named) != set(loaded):
            missing = set(named) ^ set(loaded)
            raise ValueError(f"checkpoint parameter mismatch: {sorted(missing)}")
        for name, t in named.items():
            t.data[...] = loaded[name].data
        return params, cfg


class _TreeIndex:
    """One direction's TreeGRU over all candidates of a placeholder, as
    per-depth batches.  Columns of the state bank at depth d are the K type
    representations (the leaves) followed by the node states of depth d - 1;
    each depth lists its nodes' (child bank column, child context column)
    edges, node by node, and where each node's edges start.  Roots are read
    from the deepest level's bank: each is a leaf or a node of that depth."""

    def __init__(self, n_candidates: int):
        self.k = n_candidates
        self.levels: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        self.roots: List[int] = []

    def add_node(self, depth: int, edges: List[Tuple[int, int]]) -> int:
        child_cols, ctx_cols, starts = self.levels.setdefault(
            depth, ([], [], []))
        starts.append(len(child_cols))
        for child, ctx in edges:
            child_cols.append(child)
            ctx_cols.append(ctx)
        return self.k + len(starts) - 1

    def add_chain(self, k: int, ctx_cols: Sequence[int], top: int):
        """A GRU run from leaf k along `ctx_cols`: a one-child node per
        column, the last at depth `top`; an empty chain's root is leaf k."""
        node = k
        for depth, ctx in enumerate(ctx_cols, top - len(ctx_cols) + 1):
            node = self.add_node(depth, [(node, ctx)])
        self.roots.append(node)


class Encoder:
    """Forward computation over one program view.

    Context windows are static for an instance: every placeholder position
    shows the PLACEHOLDER embedding regardless of its current assignment, so
    context vectors are cached for the encoder's lifetime.  The lexical and
    data-flow relations are supplied per call and do change during inference;
    `flow` solves them per symbol on demand for the use graphs of the
    encoder's program.

    Type representations are fixed for the encoder's lifetime too (a
    training encoder draws each symbol's subset once, from its seed and the
    symbol), and a candidate v's lexical chains and data-flow trees at t
    depend only on where v occurs, so `rank` memoises each score
    c(t) . u(t, v) by (t, v, occurrences of v) for the encoder's lifetime.
    It computes only the missing scores, for several placeholders at once,
    and reads only their values, so it records no tape (`nn.no_tape`).  The
    context windows and type representations a ranking caches are therefore
    constants: to differentiate, encode through a fresh encoder.

    `usage_batch` encodes the candidates of several (encoder, view, t,
    candidates) groups at once; `usage_reprs` is its one-group call.  A
    structural walk first visits each candidate's chains and data-flow trees
    in the order of the per-candidate recursion, group after group, then
    each group's own c(t) window; that order numbers the columns, and no
    type-dropout draw depends on it: a training encoder draws from its own
    seed, taken from `rng` when it is made, and the symbol.  The
    arithmetic then runs in column batches: every new context window of
    every encoder in one batch, and every tree depth (a `grug` chain is a
    one-child tree) of every candidate of every group in one GRU step per
    direction.  A training step (one encoder per item), a validation
    instance and an ICM update all go through it.
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
        self._ctx_cache: Dict[int, Tensor] = {}
        # position -> its window's token representations, awaiting the next
        # batched context computation
        self._pending: Dict[int, List[Tensor]] = {}
        self._type_cache: Dict[int, Tensor] = {}
        # (t, v, occurrences of v) -> score
        self._scores: Dict[Tuple[int, int, Tuple[int, ...]], float] = {}
        self._zero = nn.constant(np.zeros(self.hyper.hidden))

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

    def _request_context(self, t: int):
        """Resolve the window of t's context; `_flush_contexts` computes it."""
        if t == EPS or t in self._ctx_cache or t in self._pending:
            return
        c = self.hyper.window
        self._pending[t] = [self.token_repr(t - c + i) for i in range(c)] \
            + [self.token_repr(t + 1 + i) for i in range(c)]

    def context_repr(self, t: int) -> Tensor:
        """The context vector of position t; c(EPS) is the zero vector."""
        if t == EPS:
            return self._zero
        self._request_context(t)
        _flush_contexts([self])
        return self._ctx_cache[t]

    # -- usage representations --

    def _lex_chain(self, ug: UseGraph, t: int, v: int, direction: str
                   ) -> List[int]:
        """Up to chain_len occurrence positions of v before (prev) or after
        (next) t, nearest last for prev chains (chronological) and nearest
        first for next chains: a slice of v's sorted occurrences."""
        occ = ug.occurrences.get(v, ())
        n = self.hyper.chain_len
        if direction == "prev":
            i = bisect_left(occ, t)
            return list(occ[max(i - n, 0):i])
        i = bisect_right(occ, t)
        return list(occ[i:i + n])

    def _index_tree(self, ug: UseGraph, t: int, v: int, k: int,
                    direction: str, index: _TreeIndex, use):
        """Walk candidate k's bounded data-flow unrolling from t in the
        order of the recursive TreeGRU (children sorted, each child's
        subtree before its context) and add its nodes to `index`.  A node
        at depth 0, at EPS or without children is the leaf: the type
        representation.  Repeated (position, depth) subtrees are shared."""
        rel = ug.din if direction == "prev" else ug.dout
        memo: Dict[Tuple[int, int], int] = {}

        def state(pos: int, depth: int) -> int:
            if depth <= 0 or pos == EPS:
                return k
            children = sorted(rel(pos, v))
            if not children:
                return k
            key = (pos, depth)
            if key not in memo:
                edges = []
                for child in children:
                    below = state(child, depth - 1)
                    edges.append((below, use(child)))
                memo[key] = index.add_node(depth, edges)
            return memo[key]

        index.roots.append(state(t, self.hyper.tree_depth))
        # the recursive closure refers to itself, and through `use` to the
        # encoder: break the cycle, so that a batch's encoders and tape are
        # freed when the batch is done, not when the cycle collector runs
        del state

    def usage_reprs(self, ug: UseGraph, t: int,
                    candidates: Sequence[int]) -> Tensor:
        """Usage representations of the candidate symbols at token t, one
        column per candidate: (H, K); the one-group `usage_batch`."""
        return usage_batch([(self, ug, t, candidates)])

    def usage_repr(self, ug: UseGraph, t: int, v: int) -> Tensor:
        """The usage representation of one candidate v at token t."""
        return nn.gather(self.usage_reprs(ug, t, [v]), 0)

    def rank(self, groups: Sequence[Tuple[UseGraph, int, Sequence[int]]]
             ) -> List[List[Tuple[int, float]]]:
        """For each (view, t, candidates) group, its candidates with the
        softmax of their scores c(t) . u(t, v), most probable first; equal
        probabilities go to the lower symbol id.  Scores missing from the
        memo are computed in one `usage_batch` over every group, inside
        `nn.no_tape()`."""
        memo = self._scores
        keys = [[(t, v, ug.occurrences.get(v, ())) for v in candidates]
                for ug, t, candidates in groups]
        batch: List[UsageGroup] = []
        missing = []
        for (ug, t, _), group_keys in zip(groups, keys):
            absent = [key for key in group_keys if key not in memo]
            if absent:
                batch.append((self, ug, t, [v for _, v, _ in absent]))
                missing += absent
        if batch:
            with nn.no_tape():
                u = np.ascontiguousarray(usage_batch(batch).data.T)
                contexts = [self.context_repr(t).data for _, _, t, _ in batch]
            start = 0
            for (_, _, _, vs), c in zip(batch, contexts):
                # one contiguous row sum per candidate: unlike a BLAS
                # product, its rounding does not depend on the other
                # columns of the batch, so equal usage columns keep exactly
                # equal scores
                stop = start + len(vs)
                memo.update(zip(missing[start:stop],
                                (u[start:stop] * c).sum(axis=1)))
                start = stop
        ranked = []
        for (_, _, candidates), group_keys in zip(groups, keys):
            probs = nn.softmax_probs(np.array([memo[key]
                                               for key in group_keys]))
            order = sorted(range(len(candidates)),
                           key=lambda i: (-probs[i], candidates[i]))
            ranked.append([(candidates[i], float(probs[i])) for i in order])
        return ranked


# One group of a usage batch: (encoder, use graph, token t, candidates).
UsageGroup = Tuple[Encoder, UseGraph, int, Sequence[int]]


def _flush_contexts(encoders: Sequence[Encoder]):
    """c(t) = W_C [f_prev(window before t), f_next(window after t)] for
    every position requested from the encoders, which share one model: one
    column per (encoder, position), all in one batch."""
    pending = []
    for enc in encoders:
        if enc._pending:
            pending += [(enc, t, window) for t, window in enc._pending.items()]
            enc._pending = {}
    if not pending:
        return
    p = encoders[0].params
    c = p.hyper.window
    slots = [nn.columns([w[i] for _, _, w in pending]) for i in range(2 * c)]
    prev, nxt = slots[:c], slots[c:]
    if p.pos_prev is not None:  # log-bilinear: position-wise linear maps
        fp = nn.matmul(p.pos_prev[0], prev[0])
        for i in range(1, c):
            fp = nn.add(fp, nn.matmul(p.pos_prev[i], prev[i]))
        fn = nn.matmul(p.pos_next[0], nxt[0])
        for i in range(1, c):
            fn = nn.add(fn, nn.matmul(p.pos_next[i], nxt[i]))
    else:
        zero = nn.constant(np.zeros((p.hyper.hidden, len(pending))))
        fp = zero
        for x in prev:
            fp = nn.gru_step(fp, x, p.ctx_gru_prev)
        fn = zero
        for x in reversed(nxt):
            fn = nn.gru_step(fn, x, p.ctx_gru_next)
    block = nn.matmul(p.w_c, nn.concat([fp, fn]))
    for j, (enc, t, _) in enumerate(pending):
        enc._ctx_cache[t] = nn.gather(block, j)


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

    The structural walk visits the groups in order, then each group's own
    c(t) window is requested, in group order; one context flush covers the
    windows of every encoder; that order numbers the columns (hence the
    BLAS rounding).  Context columns are keyed by (encoder, position); the
    chain lists and one `_TreeIndex` per direction (`grug`'s chains or the
    data-flow trees) hold every group in global candidate columns, so each
    depth is one GRU step per direction over the whole batch."""
    params = groups[0][0].params
    variant = params.variant
    k_all = sum([len(group[3]) for group in groups])
    # column j + 1 of the contexts is c(position) of encoder for the j-th
    # (encoder, position) the walk uses; column 0 is c(EPS) = 0
    ctx_keys: List[Tuple[Encoder, int]] = []
    ctx_cols: Dict[Encoder, Dict[int, int]] = {}  # position -> column
    chains: Dict[str, List[List[int]]] = {"prev": [], "next": []}
    trees = {d: _TreeIndex(k_all) for d in ("prev", "next")}
    k = 0
    for enc, ug, t, candidates in groups:
        cols = ctx_cols.setdefault(enc, {EPS: 0})

        def use(x: int, enc: Encoder = enc, cols: Dict[int, int] = cols
                ) -> int:
            col = cols.get(x)
            if col is None:
                enc._request_context(x)
                col = cols[x] = len(ctx_keys) + 1
                ctx_keys.append((enc, x))
            return col

        for v in candidates:
            if variant in ("avgg", "grug", "hybrid"):
                for d in ("prev", "next"):
                    chain = [use(x) for x in enc._lex_chain(ug, t, v, d)]
                    if variant == "grug":
                        trees[d].add_chain(k, chain, params.hyper.chain_len)
                    else:
                        chains[d].append(chain)
            if variant in ("grud", "hybrid"):
                for d in ("prev", "next"):
                    enc._index_tree(ug, t, v, k, d, trees[d], use)
            k += 1
    for enc, _, t, _ in groups:
        enc._request_context(t)
    _flush_contexts(list(ctx_cols))

    leaves = nn.columns([enc.type_embed(v)
                         for enc, _, _, candidates in groups
                         for v in candidates])
    if variant == "loc":
        return leaves
    contexts = nn.columns([groups[0][0]._zero]
                          + [enc._ctx_cache[x] for enc, x in ctx_keys])
    p = params
    if variant in ("avgg", "hybrid"):
        mean = np.zeros((contexts.shape[1], k_all))
        for k, (prev, nxt) in enumerate(zip(chains["prev"], chains["next"])):
            both = prev + nxt
            if both:
                mean[both, k] = 1.0 / len(both)
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
