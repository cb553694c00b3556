"""Learned representations: type pooling over the supertype closure, the
windowed context representation, the five usage-representation variants
(loc, avgg, grug, grud, hybrid), and the inner-product scorer."""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, \
    Tuple

import numpy as np

from . import nn
from .dataflow import EPS, UseGraph
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


class Hyper:
    """Model hyperparameters.  E (embedding) and H (hidden) are kept equal so
    type embeddings can seed GRU states directly."""

    def __init__(self, hidden: int = 64, window: int = 3, chain_len: int = 14,
                 tree_depth: int = 15, context_encoder: str = "logbilinear",
                 type_dropout: float = 0.5, unk_types: bool = False):
        if context_encoder not in CONTEXT_ENCODERS:
            raise VariantError(f"unknown context encoder {context_encoder!r}")
        self.hidden = hidden
        self.window = window
        self.chain_len = chain_len
        self.tree_depth = tree_depth
        self.context_encoder = context_encoder
        self.type_dropout = type_dropout
        # ablation switch: every variable reads as the unknown type
        self.unk_types = unk_types

    def to_dict(self) -> dict:
        return dict(hidden=self.hidden, window=self.window,
                    chain_len=self.chain_len, tree_depth=self.tree_depth,
                    context_encoder=self.context_encoder,
                    type_dropout=self.type_dropout, unk_types=self.unk_types)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyper":
        return cls(**d)


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
    """All learnable tensors for one model variant + context encoder."""

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

        self.seq_gru_prev = self.seq_gru_next = self.w_gru = None
        self.tree_gru_prev = self.tree_gru_next = self.w_d = None
        self.w_h = None
        if variant in ("grug",):
            self.seq_gru_prev = nn.GruCellParams(rng, h, h, "usage.gru_p")
            self.seq_gru_next = nn.GruCellParams(rng, h, h, "usage.gru_n")
            self.w_gru = nn.glorot(rng, (h, 2 * h), "w_gru")
        if variant in ("grud", "hybrid"):
            self.tree_gru_prev = nn.GruCellParams(rng, h, h, "usage.tree_p")
            self.tree_gru_next = nn.GruCellParams(rng, h, h, "usage.tree_n")
            self.w_d = nn.glorot(rng, (h, 2 * h), "w_d")
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
        for cell, prefix in ((self.ctx_gru_prev, "ctx.gru_p"),
                             (self.ctx_gru_next, "ctx.gru_n"),
                             (self.seq_gru_prev, "usage.gru_p"),
                             (self.seq_gru_next, "usage.gru_n"),
                             (self.tree_gru_prev, "usage.tree_p"),
                             (self.tree_gru_next, "usage.tree_n")):
            if cell is not None:
                for t in cell.tensors():
                    out[t.name] = t
        for w in (self.w_c, self.w_gru, self.w_d, self.w_h):
            if w is not None:
                out[w.name] = w
        return out

    def tensors(self) -> List[Tensor]:
        return list(self.named().values())

    # -- persistence --

    def config(self) -> dict:
        return {"variant": self.variant, "hyper": self.hyper.to_dict(),
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
            hyper = Hyper.from_dict(cfg["hyper"])
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
    edges, node by node, and where each node's edges start."""

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


class Encoder:
    """Forward computation over one program view.

    Context windows are static for an instance: every placeholder position
    shows the PLACEHOLDER embedding regardless of its current assignment, so
    context vectors are cached for the encoder's lifetime.  The lexical and
    data-flow relations are supplied per call and do change during inference.

    `usage_reprs` encodes all candidates of a placeholder at once.  A
    structural walk first visits each candidate's chains and data-flow trees
    in the order of the per-candidate recursion, resolving window tokens and
    type representations as it goes: at training time type dropout draws
    from `rng` on each symbol's first use, so that order fixes the draws.
    The arithmetic then runs in column batches: every new context window in
    one batch, and every tree depth of every candidate in one GRU step per
    direction.  Training and inference share this path.
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
        self.rng = rng if rng is not None else random.Random(0)
        self._ctx_cache: Dict[int, Tensor] = {}
        # position -> its window's token representations, awaiting the next
        # batched context computation
        self._pending: Dict[int, List[Tensor]] = {}
        self._type_cache: Dict[int, Tensor] = {}
        self._zero = nn.constant(np.zeros(self.hyper.hidden))

    # -- type representation --

    def type_embed(self, sid: int) -> Tensor:
        """Element-wise max over the supertype closure's embeddings; at
        training time over a random non-empty subset of the closure."""
        if sid in self._type_cache:
            return self._type_cache[sid]
        declared = UNK_TYPE if self.hyper.unk_types \
            else self.program.symbol(sid).declared_type
        closure = sorted(supertype_closure(self.program.lattice, declared))
        embs = self.params.type_embeddings
        members = [t if t in embs else UNK_TYPE for t in closure]
        if self.training and len(members) > 1:
            keep = [m for m in members
                    if self.rng.random() >= self.hyper.type_dropout]
            while not keep:
                keep = [m for m in members
                        if self.rng.random() >= self.hyper.type_dropout]
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

    def _flush_contexts(self):
        """c(t) = W_C [f_prev(window before t), f_next(window after t)] for
        every requested position, one column per position."""
        if not self._pending:
            return
        positions = list(self._pending)
        windows = list(self._pending.values())
        self._pending = {}
        c = self.hyper.window
        slots = [nn.columns([w[i] for w in windows]) for i in range(2 * c)]
        prev, nxt = slots[:c], slots[c:]
        p = self.params
        if p.pos_prev is not None:  # log-bilinear: position-wise linear maps
            fp = nn.matmul(p.pos_prev[0], prev[0])
            for i in range(1, c):
                fp = nn.add(fp, nn.matmul(p.pos_prev[i], prev[i]))
            fn = nn.matmul(p.pos_next[0], nxt[0])
            for i in range(1, c):
                fn = nn.add(fn, nn.matmul(p.pos_next[i], nxt[i]))
        else:
            zero = nn.constant(np.zeros((self.hyper.hidden, len(positions))))
            fp = zero
            for x in prev:
                fp = nn.gru_step(fp, x, p.ctx_gru_prev)
            fn = zero
            for x in reversed(nxt):
                fn = nn.gru_step(fn, x, p.ctx_gru_next)
        block = nn.matmul(p.w_c, nn.concat([fp, fn]))
        for j, t in enumerate(positions):
            self._ctx_cache[t] = nn.gather(block, j)

    def context_repr(self, t: int) -> Tensor:
        """The context vector of position t; c(EPS) is the zero vector."""
        if t == EPS:
            return self._zero
        self._request_context(t)
        self._flush_contexts()
        return self._ctx_cache[t]

    # -- usage representations --

    def _lex_chain(self, ug: UseGraph, t: int, v: int, direction: str
                   ) -> List[int]:
        """Up to chain_len occurrence positions; prev chains are returned
        oldest-first (chronological), next chains nearest-first."""
        step = ug.lex_prev if direction == "prev" else ug.lex_next
        chain: List[int] = []
        cur: Optional[int] = t
        for _ in range(self.hyper.chain_len):
            cur = step(cur, v)
            if cur is None:
                break
            chain.append(cur)
        if direction == "prev":
            chain.reverse()
        return chain

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

    def _tree_states(self, leaves: Tensor, contexts: Tensor,
                     index: _TreeIndex, cell: nn.GruCellParams) -> Tensor:
        """TreeGRU root states, (H, K): one GRU step over all edges of a
        depth, then each node's max over its children, deepest level
        first."""
        bank = leaves
        for depth in sorted(index.levels):
            child_cols, ctx_cols, starts = index.levels[depth]
            edges = nn.gru_step(nn.gather(bank, child_cols),
                                nn.gather(contexts, ctx_cols), cell)
            bank = nn.columns([leaves, nn.segment_max(edges, starts)])
        return nn.gather(bank, index.roots)

    def _chain_gru(self, init: Tensor, contexts: Tensor,
                   chains: List[List[int]], cell: nn.GruCellParams
                   ) -> Tensor:
        """One GRU run per column along its chain of context columns, all
        columns stepped together by step index; a column whose chain has
        ended keeps its state."""
        h = init
        for s in range(max(map(len, chains), default=0)):
            active = np.array([len(ch) > s for ch in chains])
            x = nn.gather(contexts, [ch[s] if len(ch) > s else 0
                                     for ch in chains])
            stepped = nn.gru_step(h, x, cell)
            if active.all():
                h = stepped
            else:
                keep = np.broadcast_to(active.astype(float), h.shape)
                h = nn.add(nn.mul(stepped, nn.constant(keep)),
                           nn.mul(h, nn.constant(1.0 - keep)))
        return h

    def usage_reprs(self, ug: UseGraph, t: int,
                    candidates: Sequence[int]) -> Tensor:
        """Usage representations of the candidate symbols at token t, one
        column per candidate: (H, K)."""
        variant = self.params.variant
        k_all = len(candidates)
        ctx_cols: Dict[int, int] = {EPS: 0}  # position -> contexts column

        def use(x: int) -> int:
            self._request_context(x)
            return ctx_cols.setdefault(x, len(ctx_cols))

        chains: Dict[str, List[List[int]]] = {"prev": [], "next": []}
        trees = {d: _TreeIndex(k_all) for d in ("prev", "next")}
        for k, v in enumerate(candidates):
            if variant == "grug":  # its GRUs read the type before the chain
                self.type_embed(v)
            if variant in ("avgg", "grug", "hybrid"):
                for d in ("prev", "next"):
                    chains[d].append([use(x)
                                      for x in self._lex_chain(ug, t, v, d)])
            self.type_embed(v)
            if variant in ("grud", "hybrid"):
                for d in ("prev", "next"):
                    self._index_tree(ug, t, v, k, d, trees[d], use)
        self._flush_contexts()

        leaves = nn.columns([self.type_embed(v) for v in candidates])
        if variant == "loc":
            return leaves
        contexts = nn.columns([self._zero] + [self._ctx_cache[x]
                                              for x in list(ctx_cols)[1:]])
        p = self.params
        if variant == "grug":
            hp = self._chain_gru(leaves, contexts, chains["prev"],
                                 p.seq_gru_prev)
            hn = self._chain_gru(leaves, contexts, chains["next"],
                                 p.seq_gru_next)
            return nn.matmul(p.w_gru, nn.concat([hp, hn]))
        if variant in ("avgg", "hybrid"):
            mean = np.zeros((len(ctx_cols), k_all))
            for k, (prev, nxt) in enumerate(zip(chains["prev"],
                                                chains["next"])):
                both = prev + nxt
                if both:
                    mean[both, k] = 1.0 / len(both)
            avgg = nn.add(leaves, nn.matmul(contexts, nn.constant(mean)))
            if variant == "avgg":
                return avgg
        hp = self._tree_states(leaves, contexts, trees["prev"],
                               p.tree_gru_prev)
        hn = self._tree_states(leaves, contexts, trees["next"],
                               p.tree_gru_next)
        grud = nn.matmul(p.w_d, nn.concat([hp, hn]))
        if variant == "grud":
            return grud
        return nn.matmul(p.w_h, nn.concat([avgg, grud]))

    def usage_repr(self, ug: UseGraph, t: int, v: int) -> Tensor:
        """The usage representation of one candidate v at token t."""
        return nn.gather(self.usage_reprs(ug, t, [v]), 0)

    def score(self, t: int, ug: UseGraph, v: int) -> Tensor:
        return nn.dot(self.context_repr(t), self.usage_repr(ug, t, v))

    def rank(self, ug: UseGraph, t: int, candidates: Sequence[int]
             ) -> List[Tuple[int, float]]:
        """Candidates with the softmax of their scores c(t) . u(t, v), most
        probable first; equal probabilities go to the lower symbol id."""
        scores = nn.dot(self.context_repr(t),
                        self.usage_reprs(ug, t, candidates)).data
        probs = nn.softmax_probs(scores)
        order = sorted(range(len(candidates)),
                       key=lambda i: (-probs[i], candidates[i]))
        return [(candidates[i], float(probs[i])) for i in order]


def dump_usage_vectors(encoder: Encoder, ug: UseGraph, instance_id: str,
                       pairs: Sequence[Tuple[int, int]]) -> str:
    """Line-delimited (instance, token, symbol, variant, values) records."""
    lines = []
    for t, v in pairs:
        u = encoder.usage_repr(ug, t, v)
        values = "\t".join(repr(x) for x in u.data.tolist())
        lines.append(f"{instance_id}\t{t}\t{v}\t{encoder.params.variant}\t"
                     f"{values}")
    return "\n".join(lines)
