"""CFG construction, lexical chains, the may-analysis, and agreement with the
path-enumeration reference, with and without placeholder overrides."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from smartpaste import dataflow, generator
from smartpaste.dataflow import (EPS, ProgramFlow, UseGraph, build_cfg,
                                 dataflow_uses, dump_dataflow, occurrences)
from smartpaste.infer import icm, rank_placeholders
from smartpaste.minilang import compile_source
from smartpaste.models import Hyper, ModelParams, build_vocab
from smartpaste.oracle import enumerate_paths, oracle_dataflow
from smartpaste.taskgen import Placeholder, TaskInstance, make_instance

from conftest import SUM_POSITIVE, SUM_POSITIVE_OCCURRENCES


# A second function after the pasted loop's, which keeps its token indices.
TWICE = """\
int Twice(int x) {
  int y = x + x;
  return y;
}
"""


@pytest.fixture(scope="module")
def uses(sum_positive_program):
    return dataflow_uses(sum_positive_program)


def sid(symbols, name):
    return symbols[name]


class TestCfg:
    def test_for_loop_shape(self, sum_positive_program):
        fn = sum_positive_program.ast.functions[0]
        cfg = build_cfg(fn)
        kinds = {n.kind for n in cfg.nodes}
        assert {"entry", "exit", "cond", "step"} <= kinds
        cond = next(n for n in cfg.nodes if n.kind == "cond")
        step = next(n for n in cfg.nodes if n.kind == "step")
        # the step feeds back into the loop condition
        assert cond.id in cfg.succs[step.id]

    def test_entry_holds_params(self, sum_positive_program):
        fn = sum_positive_program.ast.functions[0]
        cfg = build_cfg(fn)
        entry = cfg.nodes[cfg.entry]
        assert entry.tokens == [6, 9]  # arr, lim

    def test_return_has_no_fallthrough(self):
        prog = compile_source(
            "int f(int a) { if (a > 0) return 1; return 2; }")
        cfg = build_cfg(prog.ast.functions[0])
        returns = [n for n in cfg.nodes if n.kind == "stmt" and n.tokens
                   and prog.tokens[n.tokens[0]].index in n.tokens]
        for n in cfg.nodes:
            if n.tokens and prog.tokens[n.tokens[0]].text == "return":
                assert cfg.succs[n.id] == [cfg.exit]


class TestLexicalChains:
    def test_prev_next(self, uses, sum_positive_symbols):
        arr = sum_positive_symbols["arr"]
        assert uses.lex_prev(42, arr) == 33
        assert uses.lex_next(33, arr) == 42
        assert uses.lex_prev(6, arr) is None
        assert uses.lex_next(42, arr) is None

    def test_chain_covers_all_occurrences(self, uses, sum_positive_symbols):
        i = sum_positive_symbols["i"]
        chain = [20]
        while uses.lex_next(chain[-1], i) is not None:
            chain.append(uses.lex_next(chain[-1], i))
        assert chain == [20, 24, 28, 35, 44]

    def test_ends_and_absent_symbol(self, uses, sum_positive_symbols):
        i = sum_positive_symbols["i"]
        # between occurrences, on an occurrence, and past either end
        assert uses.lex_prev(21, i) == 20 and uses.lex_next(21, i) == 24
        assert uses.lex_prev(20, i) is None and uses.lex_next(44, i) is None
        assert uses.lex_prev(0, i) is None and uses.lex_next(0, i) == 20
        assert uses.lex_prev(99, i) == 44 and uses.lex_next(99, i) is None
        assert uses.lex_prev(30, 999) is None
        assert uses.lex_next(30, 999) is None


class TestMayAnalysis:
    """Expected sets below were worked out by hand on the control-flow graph
    and are frozen; the analysis must reproduce them exactly."""

    def test_df_in_loop_condition(self, uses, sum_positive_symbols):
        i = sum_positive_symbols["i"]
        # reaching the condition: either the init or the step's increment
        assert uses.din(24, i) == frozenset({20, 28})

    def test_df_in_index_use(self, uses, sum_positive_symbols):
        i = sum_positive_symbols["i"]
        assert uses.din(35, i) == frozenset({24})

    def test_df_out_index_use(self, uses, sum_positive_symbols):
        i = sum_positive_symbols["i"]
        assert uses.dout(35, i) == frozenset({28, 44})

    def test_df_in_guarded_loop_use(self, uses, sum_positive_symbols):
        arr = sum_positive_symbols["arr"]
        # reaching 33: the param (first iteration), itself (guard-false
        # iteration), or 42 (guard-true iteration)
        assert uses.din(33, arr) == frozenset({6, 33, 42})

    def test_df_in_other_symbol(self, uses, sum_positive_symbols):
        s = sum_positive_symbols["sum"]
        # sum reaching arr[i]: the declaration or the accumulation
        assert uses.din(35, s) == frozenset({13, 40})

    def test_df_out_other_symbol(self, uses, sum_positive_symbols):
        lim = sum_positive_symbols["lim"]
        assert uses.dout(35, lim) == frozenset({26})

    def test_eps_at_bounds(self, uses, sum_positive_symbols):
        arr = sum_positive_symbols["arr"]
        s = sum_positive_symbols["sum"]
        assert uses.din(6, arr) == frozenset({EPS})
        assert uses.dout(48, s) == frozenset({EPS})

    def test_may_join_includes_skip_path(self, uses, sum_positive_symbols):
        s = sum_positive_symbols["sum"]
        # after the guard, sum += may be skipped: both 13/40 stay live at 48
        assert uses.din(48, s) == frozenset({13, 40})

    def test_override_unbinds_token(self, sum_positive_program,
                                    sum_positive_symbols):
        i = sum_positive_symbols["i"]
        ug = dataflow_uses(sum_positive_program, override={35: None})
        assert (35, i) not in ug.occ.items() and ug.occ.get(35) is None
        # 35 no longer interrupts the chain between 24 and 44
        assert ug.lex_next(28, i) == 44

    def test_override_rebinding(self, sum_positive_program,
                                sum_positive_symbols):
        arr = sum_positive_symbols["arr"]
        i = sum_positive_symbols["i"]
        ug = dataflow_uses(sum_positive_program, override={35: arr})
        assert ug.occ[35] == arr
        assert ug.lex_prev(35, arr) == 33
        assert 35 not in ug.din(44, i)


class TestOracleAgreement:
    def test_sum_positive_exact(self, sum_positive_program):
        fast = dataflow_uses(sum_positive_program)
        slow = oracle_dataflow(sum_positive_program, loop_bound=3)
        assert fast.df_in == slow.df_in
        assert fast.df_out == slow.df_out

    def test_generated_programs_exact(self):
        for seed in range(10):
            src = generator.generate_file(random.Random(seed), "tiny", 0, 0)
            prog = compile_source(src)
            fast = dataflow_uses(prog)
            slow = oracle_dataflow(prog, loop_bound=3)
            assert fast.df_in == slow.df_in, src
            assert fast.df_out == slow.df_out, src

    def test_path_enumeration_respects_bound(self, sum_positive_program):
        fn = sum_positive_program.ast.functions[0]
        cfg = build_cfg(fn)
        paths = enumerate_paths(cfg, loop_bound=2)
        step = next(n.id for n in cfg.nodes if n.kind == "step")
        assert paths and all(p.count(step) <= 3 for p in paths)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(generator.PROFILES), st.randoms(use_true_random=False))
def test_oracle_agreement_under_overrides(seed, profile, rnd):
    """Up to three non-defining occurrences unbound or rebound to any
    symbol; the relations match path enumeration at every key of either
    side."""
    prog = compile_source(
        generator.generate_file(random.Random(seed), profile, 0, 0))
    uses = [t.index for t in prog.tokens
            if t.symbol is not None and not t.is_def]
    override = {t: rnd.choice([None] + [s.id for s in prog.symbols])
                for t in rnd.sample(uses, min(len(uses), rnd.randint(0, 3)))}
    fast = dataflow_uses(prog, override=override)
    slow = oracle_dataflow(prog, loop_bound=3, override=override)
    # the oracle's keys first, then every key of either record
    for key, want in slow.df_in.items():
        assert fast.din(*key) == want, (override, key)
    for key, want in slow.df_out.items():
        assert fast.dout(*key) == want, (override, key)
    for key in set(fast.df_in) | set(slow.df_in):
        assert fast.din(*key) == slow.din(*key), (override, key)
    for key in set(fast.df_out) | set(slow.df_out):
        assert fast.dout(*key) == slow.dout(*key), (override, key)


class _Recorder:
    """Stands in for an encoder: keeps the score keys it is asked for."""

    def __init__(self, flow):
        self.flow = flow
        self.keys = []

    def scores(self, keys):
        self.keys = list(keys)
        return [0.0] * len(self.keys)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(generator.PROFILES), st.randoms(use_true_random=False))
def test_ranked_views_match_views_built_from_scratch(seed, profile, rnd):
    """Random occurrences made placeholders, bound at random (unbound, to
    their own symbol or to any symbol) and ranked in random subsets, each
    with random candidates that hold the symbol it is bound to or not: in
    each key `rank_placeholders` asks to score, the candidate has the
    occurrences built from scratch with the ranked placeholder unbound,
    and the flow solves them to the relations a fresh flow solves.  A
    binding that misses a placeholder, ranked or not, is a KeyError."""
    prog = compile_source(
        generator.generate_file(random.Random(seed), profile, 0, 0))
    occurs = [t.index for t in prog.tokens if t.symbol is not None]
    tokens = sorted(rnd.sample(occurs, min(len(occurs), rnd.randint(1, 6))))
    symbols = [s.id for s in prog.symbols]
    encoder = _Recorder(ProgramFlow(prog))
    for _ in range(3):
        binding = {t: prog.tokens[t].symbol if rnd.random() < 0.25
                   else rnd.choice([None] + symbols) for t in tokens}
        placeholders = []
        for t in tokens:
            candidates = set(rnd.sample(symbols, rnd.randint(1, len(symbols))))
            if rnd.random() < 0.5 and binding[t] is not None:
                candidates.add(binding[t])
            elif len(candidates) > 1:
                candidates.discard(binding[t])
            placeholders.append(Placeholder(t, prog.tokens[t].symbol,
                                            sorted(candidates), []))
        inst = TaskInstance(prog, (tokens[0], tokens[-1]), placeholders)
        phs = rnd.sample(placeholders, rnd.randint(1, len(tokens)))
        rank_placeholders(inst, encoder, phs, binding)
        assert [(t, v) for t, v, _ in encoder.keys] == \
            [(ph.token_index, v) for ph in phs for v in ph.candidates]
        for t, v, occ in encoder.keys:
            override = {**binding, t: None}
            fresh = occurrences(prog, override).get(v, ())
            assert occ == fresh, (override, v)
            assert encoder.flow.relations(v, occ) == \
                ProgramFlow(prog).relations(v, fresh), (override, v)
        del binding[rnd.choice(tokens)]
        with pytest.raises(KeyError):
            rank_placeholders(inst, encoder, phs, binding)


class TestProgramFlow:
    def test_views_follow_a_moved_placeholder(self, sum_positive_program,
                                              sum_positive_symbols):
        """Token 35 moves from i to arr: two views filled from one flow
        agree with fresh solves on both symbols and on the untouched sum,
        whose relations the second view takes from the memo."""
        flow = ProgramFlow(sum_positive_program)
        i, arr, s = (sum_positive_symbols[n] for n in ("i", "arr", "sum"))
        views = []
        for override in ({35: i}, {35: arr}):
            ug = UseGraph(occurrences(sum_positive_program, override))
            for v in (i, arr, s):
                for flat, rel in zip((ug.df_in, ug.df_out), flow.relations(
                        v, ug.occurrences[v])):
                    flat.update(((t, v), x) for t, x in rel.items())
            fresh = dataflow_uses(sum_positive_program, override=override)
            for v in (i, arr, s):
                for t in range(len(sum_positive_program.tokens)):
                    assert ug.din(t, v) == fresh.din(t, v), (override, t, v)
                    assert ug.dout(t, v) == fresh.dout(t, v), \
                        (override, t, v)
            views.append(ug)
        assert 35 in views[0].din(44, i) and 35 not in views[1].din(44, i)
        occ = views[0].occurrences[s]
        assert views[1].occurrences[s] == occ
        assert flow.relations(s, occ) is flow.relations(s, occ)
        assert len(flow._memo) == 5  # i and arr twice each, sum once

    @pytest.mark.parametrize("variant,solves", [
        ("loc", False), ("avgg", False), ("grug", False), ("grud", True),
        ("hybrid", True)])
    def test_icm_solves_only_for_variants_reading_relations(
            self, monkeypatch, variant, solves):
        calls = []

        def counting(*args):
            calls.append(args)
            return real_solve(*args)
        real_solve = dataflow._solve
        monkeypatch.setattr(dataflow, "_solve", counting)
        prog = compile_source(SUM_POSITIVE)
        inst = make_instance(prog, (17, 46))
        types, lexemes = build_vocab([inst])
        params = ModelParams(variant, Hyper(hidden=4, tree_depth=3),
                             types, lexemes, seed=0)
        icm(inst, params, restarts=2, max_sweeps=2)
        assert bool(calls) == solves

    @pytest.mark.parametrize("variant,builds", [
        ("loc", False), ("avgg", False), ("grug", False), ("grud", True),
        ("hybrid", True)])
    def test_icm_builds_cfgs_only_for_variants_reading_relations(
            self, monkeypatch, variant, builds):
        """A flow builds its program's CFGs on its first solve: an ICM
        with a `loc`, `avgg` or `grug` model builds none, and one with a
        `grud` or `hybrid` model builds one per function, once."""
        built = []
        real_build = dataflow.build_cfg
        monkeypatch.setattr(dataflow, "build_cfg",
                            lambda fn: built.append(fn) or real_build(fn))
        prog = compile_source(SUM_POSITIVE + TWICE)
        inst = make_instance(prog, (17, 46))
        types, lexemes = build_vocab([inst])
        params = ModelParams(variant, Hyper(hidden=4, tree_depth=3),
                             types, lexemes, seed=0)
        icm(inst, params, restarts=2, max_sweeps=2)
        assert len(prog.ast.functions) == 2
        assert built == (prog.ast.functions if builds else [])


class TestStraightLineDegeneration:
    def test_df_equals_lex_chain(self):
        for seed in range(6):
            src = generator.generate_file(random.Random(seed), "straight",
                                          0, 0)
            prog = compile_source(src)
            ug = dataflow_uses(prog)
            for t, v in sorted(ug.occ.items()):
                prev = ug.lex_prev(t, v)
                nxt = ug.lex_next(t, v)
                assert ug.din(t, v) == \
                    frozenset({prev if prev is not None else EPS})
                assert ug.dout(t, v) == \
                    frozenset({nxt if nxt is not None else EPS})


def test_dump_format(sum_positive_program):
    out = dump_dataflow(dataflow_uses(sum_positive_program))
    lines = out.strip().splitlines()
    assert len(lines) == len(SUM_POSITIVE_OCCURRENCES)
    first = lines[0].split("\t")
    assert first[0] == "6" and "eps" in first


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dataflow_wellformed(seed):
    """Every df element is another occurrence of the same symbol or EPS, and
    lexical neighbors are ordered around the query token."""
    src = generator.generate_file(random.Random(seed), "tiny", 0, 0)
    prog = compile_source(src)
    ug = dataflow_uses(prog)
    occ = occurrences(prog)
    for t, v in ug.occ.items():
        occ_v = set(occ[v])
        assert ug.din(t, v) <= occ_v | {EPS}
        assert ug.dout(t, v) <= occ_v | {EPS}
        prev, nxt = ug.lex_prev(t, v), ug.lex_next(t, v)
        assert prev is None or prev < t
        assert nxt is None or nxt > t
