"""Type pooling, context windows, the five usage variants, persistence."""

import json
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smartpaste import models, nn
from smartpaste.dataflow import EPS, dataflow_uses
from smartpaste.minilang import compile_source
from smartpaste.minilang.checker import UNK_TYPE, vars_in_scope
from smartpaste.models import (CONTEXT_ENCODERS, Encoder, Hyper, ModelParams,
                               PAD, PLACEHOLDER, UNK, VARIANTS, VariantError,
                               _TreeIndex, build_vocab, dump_usage_vectors,
                               usage_batch)
from smartpaste.infer import rank_single
from smartpaste.taskgen import (Placeholder, TaskInstance, extract_instances,
                                make_instance)

from conftest import SUM_POSITIVE


class PerVectorReference:
    """The per-candidate forward over (H,) vectors that `usage_reprs`
    batches: contexts one position at a time, chain GRUs one step at a time,
    and the TreeGRU as a memoized recursion with element-wise max pooling.
    Type representations come from the encoder (eval mode: no dropout)."""

    def __init__(self, enc):
        self.enc, self.p, self.hyper = enc, enc.params, enc.hyper
        self.zero = nn.constant(np.zeros(self.hyper.hidden))
        self.ctx = {}

    def context(self, t):
        if t == EPS:
            return self.zero
        if t not in self.ctx:
            c, p = self.hyper.window, self.p
            prev = [self.enc.token_repr(t - c + i) for i in range(c)]
            nxt = [self.enc.token_repr(t + 1 + i) for i in range(c)]
            if p.pos_prev is not None:
                fp = nn.matmul(p.pos_prev[0], prev[0])
                for i in range(1, c):
                    fp = nn.add(fp, nn.matmul(p.pos_prev[i], prev[i]))
                fn = nn.matmul(p.pos_next[0], nxt[0])
                for i in range(1, c):
                    fn = nn.add(fn, nn.matmul(p.pos_next[i], nxt[i]))
            else:
                fp = self.zero
                for x in prev:
                    fp = nn.gru_step(fp, x, p.ctx_gru_prev)
                fn = self.zero
                for x in reversed(nxt):
                    fn = nn.gru_step(fn, x, p.ctx_gru_next)
            self.ctx[t] = nn.matmul(p.w_c, nn.concat([fp, fn]))
        return self.ctx[t]

    def tree(self, ug, t, v, direction, cell):
        rel = ug.din if direction == "prev" else ug.dout
        leaf = self.enc.type_embed(v)
        memo = {}

        def state(pos, depth):
            if depth <= 0 or pos == EPS:
                return leaf
            children = sorted(rel(pos, v))
            if not children:
                return leaf
            if (pos, depth) not in memo:
                memo[(pos, depth)] = nn.elementwise_max([
                    nn.gru_step(state(child, depth - 1), self.context(child),
                                cell)
                    for child in children])
            return memo[(pos, depth)]

        return state(t, self.hyper.tree_depth)

    def chain(self, ug, t, v, direction):
        return ug.lex_chain(t, v, self.hyper.chain_len, direction)

    def avgg(self, ug, t, v):
        chain = self.chain(ug, t, v, "prev") + self.chain(ug, t, v, "next")
        base = self.enc.type_embed(v)
        if not chain:
            return base
        return nn.add(base, nn.mean_of([self.context(x) for x in chain]))

    def grug(self, ug, t, v):
        hp = hn = self.enc.type_embed(v)
        for x in self.chain(ug, t, v, "prev"):
            hp = nn.gru_step(hp, self.context(x), self.p.usage_prev)
        for x in self.chain(ug, t, v, "next"):
            hn = nn.gru_step(hn, self.context(x), self.p.usage_next)
        return nn.matmul(self.p.w_usage, nn.concat([hp, hn]))

    def grud(self, ug, t, v):
        p = self.p
        return nn.matmul(p.w_usage, nn.concat([
            self.tree(ug, t, v, "prev", p.usage_prev),
            self.tree(ug, t, v, "next", p.usage_next)]))

    def usage(self, ug, t, v):
        variant = self.p.variant
        if variant == "loc":
            return self.enc.type_embed(v)
        if variant == "hybrid":
            return nn.matmul(self.p.w_h, nn.concat([self.avgg(ug, t, v),
                                                    self.grud(ug, t, v)]))
        return getattr(self, variant)(ug, t, v)

LATTICE_SRC = """\
type Base;
type Mid implements Base;
type Leaf implements Mid;
extern fn mk() -> Leaf;
extern fn use(Base) -> int;
int f(Leaf a, Mid b, Leaf c) {
  int n = use(a);
  n += use(b);
  n += use(c);
  return n;
}
"""


@pytest.fixture(scope="module")
def lattice_program():
    return compile_source(LATTICE_SRC)


@pytest.fixture(scope="module")
def lattice_params(lattice_program):
    return ModelParams(
        "loc", Hyper(hidden=8),
        type_names=lattice_program.lattice.types | {"int"},
        lexemes=["int", "=", ";", "(", ")", "+=", "return"], seed=0)


class TestTypeEmbedding:
    def test_pooled_max_over_closure(self, lattice_program, lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        leaf = next(s.id for s in lattice_program.symbols if s.name == "a")
        got = enc.type_embed(leaf).data
        e = lattice_params.type_embeddings
        expect = np.maximum.reduce(
            [e["Leaf"].data, e["Mid"].data, e["Base"].data])
        assert np.allclose(got, expect)

    def test_same_closure_same_vector(self, lattice_program, lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        a = next(s.id for s in lattice_program.symbols if s.name == "a")
        c = next(s.id for s in lattice_program.symbols if s.name == "c")
        assert np.array_equal(enc.type_embed(a).data, enc.type_embed(c).data)

    def test_unknown_type_maps_to_unk(self, lattice_params):
        prog = compile_source("int f(int x) { return x; }")
        params = ModelParams("loc", Hyper(hidden=8), ["Other"], [], seed=0)
        enc = Encoder(params, prog)
        x = prog.symbols[0].id
        assert np.array_equal(enc.type_embed(x).data,
                              params.type_embeddings[UNK_TYPE].data)

    def test_training_subset_is_nonempty_and_seeded(self, lattice_program,
                                                    lattice_params):
        leaf = next(s.id for s in lattice_program.symbols if s.name == "a")
        runs = []
        for _ in range(2):
            enc = Encoder(lattice_params, lattice_program, training=True,
                          rng=random.Random(9))
            runs.append(enc.type_embed(leaf).data.copy())
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_draws_do_not_depend_on_embedding_order(self, lattice_program,
                                                    lattice_params, seed):
        """Two training encoders made from equal `rng` seeds embed the
        multi-type symbols in opposite orders and draw the same subsets."""
        sids = [s.id for s in lattice_program.symbols
                if s.name in ("a", "b", "c")]
        runs = []
        for order in (sids, sids[::-1]):
            enc = Encoder(lattice_params, lattice_program, training=True,
                          rng=random.Random(seed))
            runs.append({v: enc.type_embed(v).data.copy() for v in order})
        for v in sids:
            assert np.array_equal(runs[0][v], runs[1][v])

    def test_encoders_draw_different_subsets(self, lattice_program,
                                             lattice_params):
        """Training encoders made one after another from one `rng` draw
        their own subsets of a three-type closure."""
        leaf = next(s.id for s in lattice_program.symbols if s.name == "a")
        rng = random.Random(0)
        vectors = {tuple(Encoder(lattice_params, lattice_program,
                                 training=True, rng=rng).type_embed(leaf).data)
                   for _ in range(40)}
        assert len(vectors) > 1

    def test_unk_types_ablation(self, lattice_program):
        params = ModelParams(
            "loc", Hyper(hidden=8, unk_types=True),
            type_names=lattice_program.lattice.types | {"int"},
            lexemes=[], seed=0)
        enc = Encoder(params, lattice_program)
        a = next(s.id for s in lattice_program.symbols if s.name == "a")
        n = next(s.id for s in lattice_program.symbols if s.name == "n")
        assert np.array_equal(enc.type_embed(a).data, enc.type_embed(n).data)
        assert np.array_equal(enc.type_embed(a).data,
                              params.type_embeddings[UNK_TYPE].data)


class TestContextRepresentation:
    def test_eps_context_is_zero(self, lattice_program, lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        assert not enc.context_repr(EPS).data.any()

    def test_pad_outside_file(self, lattice_program, lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        assert np.array_equal(enc.token_repr(-1).data,
                              lattice_params.token_embeddings[PAD].data)
        assert np.array_equal(
            enc.token_repr(10 ** 6).data,
            lattice_params.token_embeddings[PAD].data)

    def test_placeholder_positions_masked(self, lattice_program,
                                          lattice_params):
        toks = lattice_program.tokens
        use = next(t.index for t in toks
                   if t.symbol is not None and not t.is_def)
        enc = Encoder(lattice_params, lattice_program,
                      placeholder_tokens=[use])
        assert np.array_equal(enc.token_repr(use).data,
                              lattice_params.token_embeddings[PLACEHOLDER].data)

    def test_rare_lexeme_maps_to_unk(self, lattice_program, lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        ret = next(t.index for t in lattice_program.tokens
                   if t.text == "mk")
        assert np.array_equal(enc.token_repr(ret).data,
                              lattice_params.token_embeddings[UNK].data)

    def test_context_depends_on_position(self, lattice_program,
                                         lattice_params):
        enc = Encoder(lattice_params, lattice_program)
        first, *_, last = _variable_tokens(lattice_program)
        assert not np.array_equal(enc.context_repr(first).data,
                                  enc.context_repr(last).data)

    def test_gru_context_encoder(self, lattice_program):
        params = ModelParams(
            "loc", Hyper(hidden=8, context_encoder="gru"),
            type_names=lattice_program.lattice.types | {"int"},
            lexemes=[], seed=0)
        enc = Encoder(params, lattice_program)
        assert enc.context_repr(_variable_tokens(lattice_program)[0]
                                ).shape == (8,)

    @pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
    def test_bank_columns_are_windows_alone(self, lattice_program, ctx_kind):
        """Every column of a bank, filled in one batch with another
        encoder's, is c(t) computed from that position's window alone; the
        columns follow token order over the variable tokens and
        placeholders.  One inference encoder and one training encoder
        whose type dropout drops part of a closure."""
        params = ModelParams(
            "avgg", Hyper(hidden=6, context_encoder=ctx_kind),
            type_names=lattice_program.lattice.types | {"int"},
            lexemes=["int", "=", ";", "(", ")", "+=", "use"], seed=2)
        hole = _variable_tokens(lattice_program)[-1]
        inference = Encoder(params, lattice_program, placeholder_tokens=[hole])
        training = Encoder(params, lattice_program, placeholder_tokens=[hole],
                           training=True, rng=random.Random(1))
        a = next(s.id for s in lattice_program.symbols if s.name == "a")
        assert not np.array_equal(training.type_embed(a).data,
                                  inference.type_embed(a).data)
        ug = dataflow_uses(lattice_program, {hole: None})
        usage_batch([(enc, ug, hole, [a]) for enc in (training, inference)])
        for enc in (inference, training):
            assert list(enc.positions) == [EPS] + _variable_tokens(
                lattice_program)
            assert list(enc.positions.values()) == list(
                range(len(enc.positions)))
            ref = PerVectorReference(enc)
            for t, col in enc.positions.items():
                assert np.abs(enc.bank.data[:, col]
                              - ref.context(t).data).max() <= 1e-12


def _variable_tokens(program):
    return [tok.index for tok in program.tokens if tok.symbol is not None]


@pytest.fixture(scope="module")
def variant_setup():
    prog = compile_source(
        "int f(int a, int b) { int c = a + b; c += a; return c; }")
    ug = dataflow_uses(prog)
    use = next(t.index for t in prog.tokens
               if t.symbol is not None and not t.is_def)
    return prog, ug, use


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_shape(self, variant_setup, variant):
        prog, ug, use = variant_setup
        params = ModelParams(variant, Hyper(hidden=8, tree_depth=4),
                             ["int"], [], seed=1)
        enc = Encoder(params, prog)
        for s in prog.symbols:
            u = enc.usage_repr(ug, use, s.id)
            assert u.shape == (8,)
            assert np.isfinite(u.data).all()

    def test_loc_ignores_relations(self, variant_setup):
        prog, ug, use = variant_setup
        params = ModelParams("loc", Hyper(hidden=8), ["int"], [], seed=1)
        enc = Encoder(params, prog)
        sid = prog.symbols[0].id
        a = enc.usage_repr(ug, use, sid).data
        ug2 = dataflow_uses(prog, override={use: None})
        b = enc.usage_repr(ug2, use, sid).data
        assert np.array_equal(a, b)

    def test_avgg_uses_chains(self, variant_setup):
        prog, ug, use = variant_setup
        params = ModelParams("avgg", Hyper(hidden=8), ["int"], [], seed=1)
        enc = Encoder(params, prog)
        sid = prog.tokens[use].symbol
        with_chain = enc.usage_repr(ug, use, sid).data
        assert not np.array_equal(with_chain, enc.type_embed(sid).data)

    def test_unknown_variant_rejected(self):
        with pytest.raises(VariantError):
            ModelParams("fancy", Hyper(hidden=8), [], [], seed=0)
        with pytest.raises(VariantError):
            Hyper(context_encoder="transformer")

    @pytest.mark.parametrize("field, value", [
        ("hidden", 0), ("window", 0), ("chain_len", -1), ("tree_depth", -1),
        ("type_dropout", -0.1), ("type_dropout", 1.0),
        ("type_dropout", float("nan")), ("hidden", 4.0), ("hidden", True),
        ("window", 2.5), ("chain_len", 2.5), ("tree_depth", 1.5),
        ("unk_types", "no"), ("type_dropout", "0.5")])
    def test_out_of_range_hyper_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyper(**{field: value})

    def test_hybrid_combines_both(self, variant_setup):
        prog, ug, use = variant_setup
        params = ModelParams("hybrid", Hyper(hidden=8, tree_depth=4),
                             ["int"], [], seed=1)
        enc = Encoder(params, prog)
        sid = prog.tokens[use].symbol
        u = enc.usage_repr(ug, use, sid)
        ref = PerVectorReference(enc)
        manual = nn.matmul(params.w_h, nn.concat([ref.avgg(ug, use, sid),
                                                  ref.grud(ug, use, sid)]))
        assert np.allclose(u.data, manual.data)


# a loop with a branch, and two identical assignments whose definitions
# both reach the final use (with zero context weights: equal child states)
BATCH_PROGRAMS = [SUM_POSITIVE, """\
int g(int a, int b, int n) {
  int i = 0;
  while (i < n) {
    if (a > b) { a = a - b; } else { a = a - b; }
    b = b + i;
    i++;
  }
  return a + b;
}
"""]


def _placeholder_views(src):
    """(program, use graph with the token unbound, token, candidates) for
    every non-defining variable use."""
    prog = compile_source(src)
    for tok in prog.tokens:
        if tok.symbol is not None and not tok.is_def:
            ug = dataflow_uses(prog, override={tok.index: None})
            yield prog, ug, tok.index, sorted(vars_in_scope(prog, tok.index))


def _grads(params, loss):
    tensors = params.tensors()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    out = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
           for t in tensors]
    for t in tensors:
        t.zero_grad()
    return out


class TestBatchedUsage:
    """`usage_reprs` over K candidates against K single-candidate calls and
    against the per-vector recursion, values and gradients."""

    TOL = 1e-12

    @pytest.mark.parametrize("depth", [1, 8])
    @pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("src", BATCH_PROGRAMS,
                             ids=["sum_positive", "twin_defs"])
    def test_matches_single_and_reference(self, src, variant, ctx_kind,
                                          depth):
        views = list(_placeholder_views(src))
        types = ["int", "int[]"]
        lexemes = sorted({t.text for t in views[0][0].tokens})
        params = ModelParams(variant, Hyper(hidden=6, tree_depth=depth,
                                            context_encoder=ctx_kind),
                             types, lexemes, seed=3)
        if src is not SUM_POSITIVE:
            params.w_c.data[...] = 0.0  # every context is the zero vector
        rng = np.random.default_rng(0)
        for prog, ug, t, cands in views[::2]:
            probe = nn.constant(rng.normal(size=6))
            weights = nn.constant(rng.normal(size=len(cands)))

            enc = Encoder(params, prog, placeholder_tokens=[t])
            batched = enc.usage_reprs(ug, t, cands)
            assert batched.shape == (6, len(cands))
            g_batched = _grads(params, nn.dot(nn.dot(probe, batched),
                                              weights))

            enc = Encoder(params, prog, placeholder_tokens=[t])
            singles = [enc.usage_repr(ug, t, v) for v in cands]
            g_singles = _grads(params, nn.dot(
                nn.pack([nn.dot(probe, u) for u in singles]), weights))

            enc = Encoder(params, prog, placeholder_tokens=[t])
            ref = PerVectorReference(enc)
            reference = [ref.usage(ug, t, v) for v in cands]
            g_reference = _grads(params, nn.dot(
                nn.pack([nn.dot(probe, u) for u in reference]), weights))

            want = np.stack([u.data for u in reference], axis=1)
            assert np.abs(batched.data - want).max() <= self.TOL
            assert np.abs(np.stack([u.data for u in singles], axis=1)
                          - want).max() <= self.TOL
            for a, b, c in zip(g_batched, g_singles, g_reference):
                assert np.abs(a - c).max() <= self.TOL
                assert np.abs(b - c).max() <= self.TOL

    def test_equal_children_tie(self):
        """With zero context weights every reaching definition of `a` at
        the final use is a child with the same state (a GRU step from the
        same leaf on a zero context): the segment max ties in every row,
        and values and gradients still match the per-vector max."""
        prog = compile_source(BATCH_PROGRAMS[1])
        use = max(t.index for t in prog.tokens if t.text == "a")
        a = prog.tokens[use].symbol
        ug = dataflow_uses(prog)
        assert len(ug.din(use, a)) >= 2
        params = ModelParams("grud", Hyper(hidden=6, tree_depth=1),
                             ["int"], [], seed=3)
        params.w_c.data[...] = 0.0
        batched = Encoder(params, prog).usage_repr(ug, use, a)
        reference = PerVectorReference(Encoder(params, prog)).usage(
            ug, use, a)
        assert np.abs(batched.data - reference.data).max() <= self.TOL
        got = _grads(params, nn.dot(nn.constant(np.ones(6)), batched))
        want = _grads(params, nn.dot(nn.constant(np.ones(6)), reference))
        for x, y in zip(got, want):
            assert np.abs(x - y).max() <= self.TOL

    def test_rank_orders_by_probability_then_symbol(self):
        prog = compile_source(
            "int f(int a, int b) { int c = a + b; return c; }")
        use = next(t.index for t in prog.tokens
                   if t.symbol is not None and not t.is_def)
        params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
        enc = Encoder(params, prog, placeholder_tokens=[use])
        cands = [s.id for s in reversed(prog.symbols)]
        ph = Placeholder(use, prog.tokens[use].symbol, cands, [])
        ranked = rank_single(TaskInstance(prog, (use, use), [ph]), enc, ph,
                             {use: None})
        # every candidate is an int: equal scores, so symbol order
        assert [s for s, _ in ranked] == sorted(cands)
        assert abs(sum(p for _, p in ranked) - 1.0) < 1e-12


@pytest.mark.parametrize("chain_len", [1, 2, 14])
def test_lex_chain_steps_the_lexical_relation(chain_len):
    """A chain is chain_len steps of `lex_prev` (then put in chronological
    order) or `lex_next` from t, at every token, for every symbol."""
    prog = compile_source(SUM_POSITIVE)
    ug = dataflow_uses(prog, override={35: None})
    for t in range(-1, len(prog.tokens) + 1):
        for v in [s.id for s in prog.symbols] + [999]:
            for direction, step in (("prev", ug.lex_prev),
                                    ("next", ug.lex_next)):
                want, cur = [], t
                while len(want) < chain_len:
                    cur = step(cur, v)
                    if cur is None:
                        break
                    want.append(cur)
                if direction == "prev":
                    want.reverse()
                assert ug.lex_chain(t, v, chain_len, direction) == want


@pytest.mark.parametrize("zero_context", [False, True])
@pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_usage_batch_matches_per_group(variant, ctx_kind, zero_context):
    """One `usage_batch` over interleaved groups of two programs (one
    encoder each, several placeholders per encoder) against one
    `usage_reprs` per group on a fresh encoder: values and gradients to
    1e-12.  With zero context weights every context is the zero vector and
    the twin definitions of the second program tie in the tree max."""
    views = [list(_placeholder_views(src))[::3] for src in BATCH_PROGRAMS]
    programs = [v[0][0] for v in views]
    lexemes = sorted({t.text for prog in programs for t in prog.tokens})
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=6,
                                        context_encoder=ctx_kind),
                         ["int", "int[]"], lexemes, seed=5)
    if zero_context:
        params.w_c.data[...] = 0.0
    holes = [[t for _, _, t, _ in v] for v in views]
    encoders = [Encoder(params, prog, placeholder_tokens=h)
                for prog, h in zip(programs, holes)]
    # sum_positive, twin_defs, sum_positive, ...: the groups of an encoder
    # are not adjacent
    order = sorted((k, e) for e, v in enumerate(views) for k in range(len(v)))
    groups = [(encoders[e],) + views[e][k][1:] for k, e in order]
    rng = np.random.default_rng(1)
    probe = nn.constant(rng.normal(size=6))
    weights = nn.constant(rng.normal(size=sum(len(g[3]) for g in groups)))

    batched = usage_batch(groups)
    g_batched = _grads(params, nn.dot(nn.dot(probe, batched), weights))
    per_group = [Encoder(params, enc.program,
                         placeholder_tokens=enc.placeholder_tokens
                         ).usage_reprs(ug, t, cands)
                 for enc, ug, t, cands in groups]
    g_per_group = _grads(params, nn.dot(nn.dot(probe, nn.columns(per_group)),
                                        weights))
    want = np.concatenate([u.data for u in per_group], axis=1)
    assert batched.shape == want.shape
    assert np.abs(batched.data - want).max() <= 1e-12
    for a, b in zip(g_batched, g_per_group):
        assert np.abs(a - b).max() <= 1e-12


def _trial_groups(variant, ctx_kind="logbilinear", tree_depth=6):
    """The groups one lockstep ICM step hands `usage_batch` for two trial
    mappings of the pasted loop, the truth and the truth with its first
    placeholder moved: per mapping each placeholder ranked on a view that
    binds every other placeholder per the mapping and leaves its own
    unbound.  Most candidates keep their occurrences across the groups of
    both mappings."""
    prog = compile_source(SUM_POSITIVE)
    inst = make_instance(prog, (17, 46))
    types, lexemes = build_vocab([inst])
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=tree_depth,
                                        context_encoder=ctx_kind),
                         types, lexemes, seed=2)
    enc = Encoder(params, prog, placeholder_tokens=inst.placeholder_tokens)
    truth = {ph.token_index: ph.truth for ph in inst.placeholders}
    first = inst.placeholders[0]
    moved = {**truth, first.token_index: next(
        v for v in first.candidates if v != first.truth)}
    groups = []
    for mapping in (truth, moved):
        groups += [(enc, enc.flow.uses({**mapping, ph.token_index: None}),
                    ph.token_index, ph.candidates)
                   for ph in inst.placeholders]
    return params, groups


@pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_usage_batch_shares_nodes_across_groups(variant, ctx_kind):
    """Groups of one encoder whose candidates share v and v's occurrences
    share their data-flow nodes in one `usage_batch`: values and gradients
    still match one `usage_reprs` per group on a fresh encoder to 1e-12."""
    params, groups = _trial_groups(variant, ctx_kind)
    rng = np.random.default_rng(4)
    probe = nn.constant(rng.normal(size=6))
    weights = nn.constant(rng.normal(size=sum(len(g[3]) for g in groups)))

    batched = usage_batch(groups)
    g_batched = _grads(params, nn.dot(nn.dot(probe, batched), weights))
    per_group = [Encoder(params, enc.program,
                         placeholder_tokens=enc.placeholder_tokens
                         ).usage_reprs(ug, t, cands)
                 for enc, ug, t, cands in groups]
    g_per_group = _grads(params, nn.dot(nn.dot(probe, nn.columns(per_group)),
                                        weights))
    want = np.concatenate([u.data for u in per_group], axis=1)
    assert np.abs(batched.data - want).max() <= 1e-12
    for a, b in zip(g_batched, g_per_group):
        assert np.abs(a - b).max() <= 1e-12


def test_rank_computes_each_missing_score_once(monkeypatch):
    """Groups of one `Encoder.scores` call that miss the same (t, v,
    occurrences of v) score, as two trial mappings' groups do, encode that
    candidate once, and a second call encodes nothing."""
    params, groups = _trial_groups("grud")
    enc = groups[0][0]
    columns = []
    batch = models.usage_batch
    monkeypatch.setattr(models, "usage_batch", lambda groups: (
        columns.append(sum(len(g[3]) for g in groups)), batch(groups))[1])
    scores = enc.scores([g[1:] for g in groups])
    assert columns == [len({(t, v, ug.occurrences.get(v, ()))
                            for _, ug, t, cands in groups for v in cands})]
    assert columns[0] < sum(len(g[3]) for g in groups)
    assert enc.scores([g[1:] for g in groups]) == scores
    assert len(columns) == 1


def test_add_node_runs_once_per_distinct_node(monkeypatch):
    """A usage batch adds one TreeGRU node per distinct (v, occurrences of
    v, direction, position, depth) of a node with children, counted here
    from the recursive definition of the unrolling; one batch per group
    adds more, since it shares nodes only within a group."""
    depth = 6
    _, groups = _trial_groups("grud", tree_depth=depth)
    calls = []
    add_node = _TreeIndex.add_node
    monkeypatch.setattr(_TreeIndex, "add_node", lambda self, d, *edges: (
        calls.append(d), add_node(self, d, *edges))[1])

    distinct = set()

    def walk(rel, key, pos, d):
        if d > 0 and pos != EPS and rel.get(pos) \
                and (key, pos, d) not in distinct:
            distinct.add((key, pos, d))
            for child in rel[pos]:
                walk(rel, key, child, d - 1)

    for _, ug, t, cands in groups:
        for v in cands:
            for direction, rel in zip(("prev", "next"), ug.relations(v)):
                walk(rel, (v, ug.occurrences.get(v, ()), direction), t, depth)

    usage_batch(groups)
    assert len(calls) == len(distinct)
    calls.clear()
    for group in groups:
        usage_batch([group])
    assert len(calls) > len(distinct)


def test_avgg_of_a_candidate_that_occurs_nowhere_is_its_type():
    """With its only occurrence unbound a candidate has empty chains, and
    its `avgg` usage is its type representation alone."""
    prog = compile_source("int f(int a) { return 0; }")
    a = next(tok for tok in prog.tokens if tok.text == "a")
    ug = dataflow_uses(prog, override={a.index: None})
    params = ModelParams("avgg", Hyper(hidden=4), ["int"], [], seed=0)
    enc = Encoder(params, prog, placeholder_tokens=[a.index])
    u = enc.usage_reprs(ug, a.index, [a.symbol])
    assert np.array_equal(u.data[:, 0], enc.type_embed(a.symbol).data)


def test_walk_deeper_than_the_recursion_limit():
    """A tree depth past Python's recursion limit unrolls a loop's
    data-flow tree to full depth and encodes to finite values."""
    depth = sys.getrecursionlimit() + 50
    prog = compile_source(SUM_POSITIVE)
    params = ModelParams("grud", Hyper(hidden=4, tree_depth=depth),
                         ["int", "int[]"], [], seed=0)
    enc = Encoder(params, prog)
    i = next(s.id for s in prog.symbols if s.name == "i")
    ug = dataflow_uses(prog)
    index = _TreeIndex(1)
    enc._index_tree(ug, 35, i, 0, "prev", index, 0, {})
    assert set(index.levels) == set(range(1, depth + 1))
    with nn.no_tape():
        u = enc.usage_reprs(ug, 35, [i])
    assert u.shape == (4, 1) and np.isfinite(u.data).all()


@pytest.mark.parametrize("variant, takes_max", [("grug", False),
                                                ("grud", True)])
def test_segment_max_runs_only_on_levels_with_several_edges(
        monkeypatch, variant, takes_max):
    """A `grug` chain's nodes have one edge each, so its usage batch takes
    no max; `grud`'s trees of the twin definitions of `a` still do."""
    calls = []
    segment_max = nn.segment_max
    monkeypatch.setattr(nn, "segment_max",
                        lambda *args: calls.append(1) or segment_max(*args))
    views = list(_placeholder_views(BATCH_PROGRAMS[1]))
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=6),
                         ["int"], [], seed=3)
    enc = Encoder(params, views[0][0])
    usage_batch([(enc,) + view[1:] for view in views])
    assert bool(calls) == takes_max


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(VARIANTS), st.sampled_from(CONTEXT_ENCODERS),
       st.randoms(use_true_random=False))
def test_reused_encoder_ranks_like_a_fresh_one(variant, ctx_kind, rnd):
    """One inference encoder reused over a random walk of assignments, as
    ICM reuses it, ranks every placeholder as a fresh encoder does: the
    same candidate order and probabilities within 1e-10, while its score
    memo serves what earlier steps computed."""
    prog = compile_source(SUM_POSITIVE)
    inst = make_instance(prog, (17, 46))
    types, lexemes = build_vocab([inst])
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=4,
                                        context_encoder=ctx_kind),
                         types, lexemes, seed=rnd.randrange(100))
    reused = Encoder(params, prog, placeholder_tokens=inst.placeholder_tokens)
    mapping = {ph.token_index: rnd.choice(ph.candidates)
               for ph in inst.placeholders}
    for _ in range(12):
        ph = rnd.choice(inst.placeholders)
        got = rank_single(inst, reused, ph, mapping)
        want = rank_single(inst, Encoder(
            params, prog, placeholder_tokens=inst.placeholder_tokens),
            ph, mapping)
        assert [v for v, _ in got] == [v for v, _ in want]
        assert max(abs(p - q) for (_, p), (_, q) in zip(got, want)) <= 1e-10
        mapping[ph.token_index] = rnd.choice(ph.candidates)


class TestTreeIndex:
    """The bounded data-flow unrolling that `Encoder._index_tree` hands to
    the TreeGRU, with each context column named by the position `positions`
    gives it, and the one-child trees of `grug`'s lexical chains."""

    @staticmethod
    def index(depth, t, name, direction):
        prog = compile_source(SUM_POSITIVE)
        sid = next(s.id for s in prog.symbols if s.name == name)
        params = ModelParams("grud", Hyper(hidden=4, tree_depth=depth),
                             ["int", "int[]"], [], seed=0)
        index = _TreeIndex(1)
        enc = Encoder(params, prog)
        enc._index_tree(dataflow_uses(prog), t, sid, 0, direction, index, 0,
                        {})
        position = {col: x for x, col in enc.positions.items()}
        index.levels = {d: (child_cols, [position[c] for c in ctx_cols],
                            starts)
                        for d, (child_cols, ctx_cols, starts)
                        in index.levels.items()}
        return index

    @pytest.mark.parametrize("depth", [1, 3, 8])
    @pytest.mark.parametrize("direction", ["prev", "next"])
    @pytest.mark.parametrize("t,name", [(35, "i"), (33, "arr"), (6, "arr")])
    def test_levels_within_depth(self, depth, direction, t, name):
        index = self.index(depth, t, name, direction)
        assert index.levels
        assert set(index.levels) <= set(range(1, depth + 1))
        for child_cols, ctx_cols, _ in index.levels.values():
            # an EPS child ends its branch: its state is the leaf, column 0
            assert all(child == 0 for child, ctx in zip(child_cols, ctx_cols)
                       if ctx == EPS)

    def test_prev_tree_of_index_use(self):
        index = self.index(3, 35, "i", "prev")
        # 35 <- 24 <- {20, 28}; 20 <- EPS, 28 <- {35, 44}, at depth 0 leaves
        assert {d: ctx for d, (_, ctx, _) in index.levels.items()} == \
            {3: [24], 2: [20, 28], 1: [EPS, 35, 44]}
        assert index.levels[1][0] == [0, 0, 0]

    def test_chains_end_at_top(self):
        """Chains of length 0, 1 and top over 3 candidates: each node has
        one edge, to the node below or to its candidate's leaf first, and
        every chain ends at depth top, where the roots are read."""
        index = _TreeIndex(3)
        index.add_chain(0, [], 3)
        index.add_chain(1, [7], 3)
        index.add_chain(2, [4, 5, 6], 3)
        # bank columns: leaves 0-2, then the nodes of the level below
        assert index.levels == {1: ([2], [4], [0]),
                                2: ([3], [5], [0]),
                                3: ([1, 3], [7, 6], [0, 1])}
        assert index.roots == [0, 3, 4]


class TestPersistence:
    def test_save_load_reproduces_scores(self, tmp_path):
        prog = compile_source(
            "int f(int a, int b) { int c = a + b; c += a; return c; }")
        ug = dataflow_uses(prog)
        use = next(t.index for t in prog.tokens
                   if t.symbol is not None and not t.is_def)
        params = ModelParams("hybrid", Hyper(hidden=8, tree_depth=4),
                             ["int"], ["int", "+", ";"], seed=2)
        path = str(tmp_path / "m.json")
        params.save(path, extra_config={"epoch": 3})
        loaded, cfg = ModelParams.load(path)
        assert cfg["epoch"] == 3
        assert loaded.hyper.tree_depth == 4
        e1 = Encoder(params, prog)
        e2 = Encoder(loaded, prog)
        cands = [s.id for s in prog.symbols]
        assert np.array_equal(e1.context_repr(use).data,
                              e2.context_repr(use).data)
        assert np.array_equal(e1.usage_reprs(ug, use, cands).data,
                              e2.usage_reprs(ug, use, cands).data)
        assert e1.scores([(ug, use, cands)]) == e2.scores([(ug, use, cands)])

    @pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_checkpoint_parameter_names(self, variant, ctx_kind, tmp_path):
        """The names a checkpoint stores, in their order: a saved model
        loads only under these names, so renaming a field must not rename
        them."""
        def cell(prefix):
            return [f"{prefix}.{gate}" for gate in
                    ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")]

        context = {"logbilinear": ["ctx.prev0", "ctx.prev1", "ctx.next0",
                                   "ctx.next1"],
                   "gru": cell("ctx.gru_p") + cell("ctx.gru_n")}[ctx_kind]
        usage = {"loc": ["w_c"],
                 "avgg": ["w_c"],
                 "grug": cell("usage.gru_p") + cell("usage.gru_n")
                 + ["w_c", "w_gru"],
                 "grud": cell("usage.tree_p") + cell("usage.tree_n")
                 + ["w_c", "w_d"],
                 "hybrid": cell("usage.tree_p") + cell("usage.tree_n")
                 + ["w_c", "w_d", "w_h"]}[variant]
        params = ModelParams(variant, Hyper(hidden=2, window=2,
                                            context_encoder=ctx_kind),
                             ["int"], [], seed=0)
        path = str(tmp_path / "m.json")
        params.save(path)
        with open(path) as f:
            names = list(json.load(f)["params"])
        assert names == ["type:$unk", "type:int", "lex:<pad>",
                         "lex:<placeholder>", "lex:<unk>"] + context + usage

    def test_load_rejects_mismatched_names(self, tmp_path):
        params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
        path = str(tmp_path / "m.json")
        named = params.named()
        cfg = params.config()
        cfg["variant"] = "hybrid"  # claims tensors that are not present
        nn.save_checkpoint(path, named, cfg)
        with pytest.raises(ValueError):
            ModelParams.load(path)


def test_load_names_a_few_mismatched_parameters(tmp_path):
    """A checkpoint with parameters the model does not have is rejected
    with their count and at most five of their names."""
    params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
    named = params.named()
    for i in range(8):
        named[f"extra{i}"] = nn.constant(np.zeros(4))
    path = str(tmp_path / "m.json")
    nn.save_checkpoint(path, named, params.config())
    with pytest.raises(ValueError) as err:
        ModelParams.load(path)
    message = str(err.value)
    assert "8 names differ" in message
    assert sum(f"extra{i}" in message for i in range(8)) == 5


def test_build_vocab_threshold():
    prog1 = compile_source("int f(int a) { return a + 1; }")
    prog2 = compile_source("int g(int b) { return b + 2; }")
    insts = (extract_instances(prog1, 40) + extract_instances(prog2, 40))[:2]
    types, lexemes = build_vocab(insts)
    assert "int" in types
    assert "+" in lexemes        # appears in both programs
    assert "2" not in lexemes    # appears once: below the rarity threshold


def test_dump_usage_vectors_format():
    prog = compile_source("int f(int a) { a += 1; return a; }")
    ug = dataflow_uses(prog)
    params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
    enc = Encoder(params, prog)
    use = next(t.index for t in prog.tokens
               if t.symbol is not None and not t.is_def)
    out = dump_usage_vectors(enc, ug, "id#0", use, [prog.symbols[0].id])
    fields = out.split("\t")
    assert fields[:4] == ["id#0", str(use), str(prog.symbols[0].id), "loc"]
    assert len(fields) == 4 + 4
