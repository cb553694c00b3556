"""Type pooling, context windows, the five usage variants, persistence."""

import random

import numpy as np
import pytest

from smartpaste import nn
from smartpaste.dataflow import EPS, dataflow_uses
from smartpaste.minilang import compile_source
from smartpaste.minilang.checker import UNK_TYPE, vars_in_scope
from smartpaste.models import (CONTEXT_ENCODERS, Encoder, Hyper, ModelParams,
                               PAD, PLACEHOLDER, UNK, VARIANTS, VariantError,
                               build_vocab, dump_usage_vectors)
from smartpaste.taskgen import extract_instances

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

    def avgg(self, ug, t, v):
        chain = self.enc._lex_chain(ug, t, v, "prev") \
            + self.enc._lex_chain(ug, t, v, "next")
        base = self.enc.type_embed(v)
        if not chain:
            return base
        return nn.add(base, nn.mean_of([self.context(x) for x in chain]))

    def grug(self, ug, t, v):
        hp = hn = self.enc.type_embed(v)
        for x in self.enc._lex_chain(ug, t, v, "prev"):
            hp = nn.gru_step(hp, self.context(x), self.p.seq_gru_prev)
        for x in self.enc._lex_chain(ug, t, v, "next"):
            hn = nn.gru_step(hn, self.context(x), self.p.seq_gru_next)
        return nn.matmul(self.p.w_gru, nn.concat([hp, hn]))

    def grud(self, ug, t, v):
        p = self.p
        return nn.matmul(p.w_d, nn.concat([
            self.tree(ug, t, v, "prev", p.tree_gru_prev),
            self.tree(ug, t, v, "next", p.tree_gru_next)]))

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
        assert not np.array_equal(enc.context_repr(10).data,
                                  enc.context_repr(20).data)

    def test_gru_context_encoder(self, lattice_program):
        params = ModelParams(
            "loc", Hyper(hidden=8, context_encoder="gru"),
            type_names=lattice_program.lattice.types | {"int"},
            lexemes=[], seed=0)
        enc = Encoder(params, lattice_program)
        assert enc.context_repr(10).shape == (8,)


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
        ug = dataflow_uses(prog, override={use: None})
        cands = [s.id for s in reversed(prog.symbols)]
        ranked = enc.rank(ug, use, cands)
        # every candidate is an int: equal scores, so symbol order
        assert [s for s, _ in ranked] == sorted(cands)
        assert abs(sum(p for _, p in ranked) - 1.0) < 1e-12


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
        for s in prog.symbols:
            assert e1.score(use, ug, s.id).item() == \
                e2.score(use, ug, s.id).item()

    def test_load_rejects_mismatched_names(self, tmp_path):
        params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
        path = str(tmp_path / "m.json")
        named = params.named()
        cfg = params.config()
        cfg["variant"] = "hybrid"  # claims tensors that are not present
        nn.save_checkpoint(path, named, cfg)
        with pytest.raises(ValueError):
            ModelParams.load(path)


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
    out = dump_usage_vectors(enc, ug, "id#0", [(use, prog.symbols[0].id)])
    fields = out.split("\t")
    assert fields[:4] == ["id#0", str(use), str(prog.symbols[0].id), "loc"]
    assert len(fields) == 4 + 4
