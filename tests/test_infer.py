"""Conditional ranking, iterated conditional modes, and paste splicing."""

import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from smartpaste import infer, models
from smartpaste.infer import (Assignment, NoCandidates, SpliceError, icm,
                              make_paste_instance, paste, rank_single,
                              total_log_prob)
from smartpaste.dataflow import dataflow_uses
from smartpaste.minilang import compile_source
from smartpaste.minilang.lexer import tokenize
from smartpaste.minilang.parser import parse
from smartpaste.models import (CONTEXT_ENCODERS, VARIANTS, Encoder, Hyper,
                               ModelParams, usage_batch)
from smartpaste.taskgen import make_instance

from conftest import SUM_POSITIVE_TRUTH_NAMES
from rank_reference import reference_rank


def small_model(program, variant="avgg", seed=4,
                context_encoder="logbilinear"):
    return ModelParams(variant, Hyper(hidden=8, tree_depth=4,
                                      context_encoder=context_encoder),
                       type_names=program.lattice.types,
                       lexemes=[t.text for t in program.tokens], seed=seed)


@pytest.fixture(scope="module")
def loop_instance(sum_positive_program):
    return make_instance(sum_positive_program, (17, 46), "fig")


class TestRankSingle:
    def test_distribution_over_own_candidates(self, loop_instance):
        params = small_model(loop_instance.program)
        enc = Encoder(params, loop_instance.program,
                      placeholder_tokens=loop_instance.placeholder_tokens)
        ph = loop_instance.placeholders[0]
        context = {p.token_index: p.truth
                   for p in loop_instance.placeholders}
        ranked = rank_single(loop_instance, enc, ph, context)
        assert sorted(s for s, _ in ranked) == sorted(ph.candidates)
        assert sum(p for _, p in ranked) == pytest.approx(1.0)
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_ties_break_to_lowest_symbol(self, loop_instance):
        params = small_model(loop_instance.program)
        for t in params.tensors():
            t.data[...] = 0.0  # every score identical
        enc = Encoder(params, loop_instance.program,
                      placeholder_tokens=loop_instance.placeholder_tokens)
        ph = loop_instance.placeholders[0]
        context = {p.token_index: p.truth
                   for p in loop_instance.placeholders}
        ranked = rank_single(loop_instance, enc, ph, context)
        assert [s for s, _ in ranked] == sorted(ph.candidates)

    def test_depends_on_other_assignments(self, loop_instance):
        params = small_model(loop_instance.program)
        enc = Encoder(params, loop_instance.program,
                      placeholder_tokens=loop_instance.placeholder_tokens)
        ph = loop_instance.placeholders[2]  # i++ inside the header
        truth_ctx = {p.token_index: p.truth
                     for p in loop_instance.placeholders}
        other_ctx = dict(truth_ctx)
        other = next(c for c in loop_instance.placeholders[0].candidates
                     if c != truth_ctx[loop_instance.placeholders[0].token_index])
        other_ctx[loop_instance.placeholders[0].token_index] = other
        a = rank_single(loop_instance, enc, ph, truth_ctx)
        b = rank_single(loop_instance, enc, ph, other_ctx)
        assert a != b


class TestIcm:
    def test_deterministic(self, loop_instance):
        params = small_model(loop_instance.program)
        a = icm(loop_instance, params, restarts=3, max_sweeps=5,
                rng=random.Random(13))
        b = icm(loop_instance, params, restarts=3, max_sweeps=5,
                rng=random.Random(13))
        assert a.mapping == b.mapping
        assert a.total_log_prob == b.total_log_prob

    def test_monotone_within_restart(self, loop_instance):
        params = small_model(loop_instance.program)
        trace = []
        icm(loop_instance, params, restarts=3, max_sweeps=5,
            rng=random.Random(1), trace=trace)
        assert len(trace) == 3
        for restart in trace:
            assert all(b >= a - 1e-9
                       for a, b in zip(restart, restart[1:]))

    def test_single_placeholder_matches_rank_single(self,
                                                    sum_positive_program):
        inst = make_instance(sum_positive_program, (47, 49))  # return sum;
        assert len(inst.placeholders) == 1
        params = small_model(sum_positive_program)
        best = icm(inst, params, restarts=4, rng=random.Random(0))
        enc = Encoder(params, sum_positive_program,
                      placeholder_tokens=inst.placeholder_tokens)
        ranked = rank_single(inst, enc, inst.placeholders[0],
                             {inst.placeholders[0].token_index: None})
        assert best.mapping[inst.placeholders[0].token_index] == ranked[0][0]

    def test_total_matches_final_mapping(self, loop_instance):
        params = small_model(loop_instance.program)
        best = icm(loop_instance, params, restarts=2, max_sweeps=4,
                   rng=random.Random(5))
        enc = Encoder(params, loop_instance.program,
                      placeholder_tokens=loop_instance.placeholder_tokens)
        total, _ = total_log_prob(loop_instance, enc, best.mapping)
        assert total == pytest.approx(best.total_log_prob)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_first_start_is_the_independent_argmax(self, loop_instance,
                                                   variant):
        """Without sweeps the first restart returns its start: each
        placeholder's argmax with every placeholder unbound, as a fresh
        encoder ranks it."""
        inst = loop_instance
        params = small_model(inst.program, variant=variant)
        best = icm(inst, params, restarts=1, max_sweeps=0)
        unbound = dict.fromkeys(inst.placeholder_tokens)
        for ph in inst.placeholders:
            ranked = reference_rank(params, inst, ph, unbound)
            assert best.mapping[ph.token_index] == ranked[0][0]

    def test_rankings_cover_all_placeholders(self, loop_instance):
        params = small_model(loop_instance.program)
        best = icm(loop_instance, params, restarts=2, max_sweeps=3,
                   rng=random.Random(2))
        assert set(best.rankings) == set(loop_instance.placeholder_tokens)


def reference_icm(inst, encoder, restarts, max_sweeps, rng, trace,
                  trials=None):
    """ICM in its direct form: the restarts one after another, every sweep
    step ranks its placeholder again with `reference_rank` on `encoder`,
    writes the argmax into the mapping in place, and reverts a move that
    lowers the total.  `trials`, when given, collects each restart's
    number of moves tried."""
    phs = sorted(inst.placeholders, key=lambda p: p.token_index)
    best = None
    for attempt in range(max(restarts, 1)):
        if attempt == 0:
            unbound = dict.fromkeys(inst.placeholder_tokens)
            mapping = {p.token_index: reference_rank(
                encoder.params, inst, p, unbound, encoder)[0][0]
                for p in phs}
        else:
            mapping = {p.token_index: rng.choice(p.candidates) for p in phs}
        total, rankings = total_log_prob(inst, encoder, mapping)
        restart_trace = []
        tried = 0
        for _sweep in range(max_sweeps):
            changed = False
            for ph in phs:
                t = ph.token_index
                top = reference_rank(encoder.params, inst, ph, mapping,
                                     encoder)[0][0]
                if mapping[t] != top:
                    tried += 1
                    previous = mapping[t]
                    mapping[t] = top
                    new_total, new_rankings = total_log_prob(
                        inst, encoder, mapping)
                    if new_total >= total:
                        total, rankings = new_total, new_rankings
                        changed = True
                    else:
                        mapping[t] = previous
                restart_trace.append(total)
            if not changed:
                break
        trace.append(restart_trace)
        if trials is not None:
            trials.append(tried)
        if best is None or total > best.total_log_prob:
            best = Assignment(dict(mapping), total, rankings)
    return best


@pytest.fixture(scope="module")
def icm_instances(loop_instance, tiny_instances):
    """The pasted-loop fixture and the extracted instance with the most
    placeholders from another program."""
    wide = max(tiny_instances, key=lambda inst: len(inst.placeholders))
    assert len(wide.placeholders) >= 6
    return [loop_instance, wide]


def _close(got, want, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(got, want))


@pytest.mark.parametrize("variant", VARIANTS)
def test_icm_matches_reference(icm_instances, variant):
    """Sweeps that read the state's rankings give what ranking each
    placeholder again gives: the same mapping, ranking order and trace
    lengths exactly, and the same totals, probabilities and trace values
    to 1e-12; and the returned rankings are the conditionals of the
    returned mapping as a fresh encoder ranks them.  Each side keeps its
    own encoder over the grid.  The values are not float for float: a
    total ranks every placeholder in one batch while the reference's sweep
    steps rank one, so a memoised score may first be computed in a batch
    of another shape, whose BLAS rounding differs by about an ulp."""
    for inst in icm_instances:
        params = small_model(inst.program, variant=variant)
        got_enc, want_enc = (
            Encoder(params, inst.program,
                    placeholder_tokens=inst.placeholder_tokens)
            for _ in range(2))
        for restarts in (1, 3, 5):
            for max_sweeps in (0, 1, 5):
                for seed in (0, 1, 2):
                    trace, want_trace = [], []
                    got = icm(inst, params, restarts=restarts,
                              max_sweeps=max_sweeps,
                              rng=random.Random(seed), encoder=got_enc,
                              trace=trace)
                    want = reference_icm(inst, want_enc, restarts,
                                         max_sweeps, random.Random(seed),
                                         want_trace)
                    assert got.mapping == want.mapping
                    assert abs(got.total_log_prob
                               - want.total_log_prob) <= 1e-12
                    assert got.rankings.keys() == want.rankings.keys()
                    for t, ranked in want.rankings.items():
                        assert [s for s, _ in got.rankings[t]] \
                            == [s for s, _ in ranked]
                        assert _close([p for _, p in got.rankings[t]],
                                      [p for _, p in ranked])
                    assert [len(r) for r in trace] \
                        == [len(r) for r in want_trace]
                    assert all(_close(a, b)
                               for a, b in zip(trace, want_trace))
        for ph in inst.placeholders:
            fresh = reference_rank(params, inst, ph, got.mapping)
            ranked = got.rankings[ph.token_index]
            assert [s for s, _ in ranked] == [s for s, _ in fresh]
            assert [p for _, p in ranked] == pytest.approx(
                [p for _, p in fresh], abs=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_lockstep_steps_rank_once(icm_instances, variant, monkeypatch):
    """Restarts that stop after different numbers of sweeps agree with the
    reference run one after another, and the lockstep search makes one
    `Encoder.scores` call, so at most one usage batch, per step: every
    placeholder unbound, the starts of all restarts (every candidate of
    every placeholder of each), then one call per step over the trials of
    the restarts that still try a move.  A trial that moves t from a to b
    asks only for the keys of the a and b entries of the rows other than
    t's, row by row."""
    calls, moves, batches = [], [], []
    scores, move = Encoder.scores, infer._ScoreMatrix.move
    usage_batch = models.usage_batch

    def counted(self, keys):
        if self is got_enc:
            calls.append((list(keys), list(moves)))
            moves.clear()
        return scores(self, keys)

    def recorded(self, state, t, b):
        moves.append((t, state.mapping[t], b))
        return (yield from move(self, state, t, b))

    def batched(usages):
        if usages[0][0] is got_enc:
            batches.append(len(usages))
        return usage_batch(usages)

    monkeypatch.setattr(Encoder, "scores", counted)
    monkeypatch.setattr(infer._ScoreMatrix, "move", recorded)
    monkeypatch.setattr(models, "usage_batch", batched)
    stopped_apart = False
    for inst in icm_instances:
        params = small_model(inst.program, variant=variant)
        n = len(inst.placeholders)
        width = sum(len(ph.candidates) for ph in inst.placeholders)
        for seed in range(4):
            got_enc, want_enc = (
                Encoder(params, inst.program,
                        placeholder_tokens=inst.placeholder_tokens)
                for _ in range(2))
            calls.clear()
            batches.clear()
            trace, want_trace, trials = [], [], []
            got = icm(inst, params, restarts=5, max_sweeps=5,
                      rng=random.Random(seed), encoder=got_enc, trace=trace)
            want = reference_icm(inst, want_enc, 5, 5, random.Random(seed),
                                 want_trace, trials)
            assert got.mapping == want.mapping
            assert [len(r) for r in trace] == [len(r) for r in want_trace]
            assert all(_close(a, b) for a, b in zip(trace, want_trace))
            stopped_apart |= len({len(r) for r in want_trace}) > 1
            assert [len(keys) for keys, _ in calls[:2]] \
                == [width, 5 * width]
            live = [sum(tried > step for tried in trials)
                    for step in range(max(trials))]
            assert [len(step_moves) for _, step_moves in calls[2:]] == live
            for keys, step_moves in calls[2:]:
                asked = [(t, v) for t, v, _ in keys]
                assert asked == [
                    (ph.token_index, v)
                    for t, a, b in step_moves for ph in inst.placeholders
                    if ph.token_index != t
                    for v in ph.candidates if v in (a, b)]
                assert len(keys) <= 2 * (n - 1) * len(step_moves)
            assert len(batches) <= len(calls)
    assert stopped_apart


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_score_matrix_matches_rank_single(icm_instances, data):
    """For a random mapping, and the move of a random placeholder to
    another candidate, the score matrix's total and row probabilities
    equal what `reference_rank` gives each placeholder alone on a fresh
    encoder, to 1e-12; each row's argmax is the head of its ranking."""
    inst = data.draw(st.sampled_from(icm_instances))
    variant = data.draw(st.sampled_from(VARIANTS))
    ctx_kind = data.draw(st.sampled_from(CONTEXT_ENCODERS))
    params = small_model(inst.program, variant=variant,
                         context_encoder=ctx_kind)
    mapping = {p.token_index: data.draw(st.sampled_from(p.candidates))
               for p in inst.placeholders}
    enc = Encoder(params, inst.program,
                  placeholder_tokens=inst.placeholder_tokens)
    matrix = infer._ScoreMatrix(inst, inst.placeholders)
    state, = infer._lockstep(enc, [matrix.state(mapping)])
    states = [state]
    ph = data.draw(st.sampled_from(inst.placeholders))
    others = [v for v in ph.candidates if v != mapping[ph.token_index]]
    if others:
        moved, = infer._lockstep(enc, [matrix.move(
            state, ph.token_index, data.draw(st.sampled_from(others)))])
        states.append(moved)
    for state in states:
        rankings = matrix.rankings(state.probs)
        want = 0.0
        for s, p in enumerate(inst.placeholders):
            alone = dict(reference_rank(params, inst, p, state.mapping))
            probs = state.probs[s, :len(p.candidates)]
            assert _close(probs, [alone[v] for v in p.candidates])
            assert not state.probs[s, len(p.candidates):].any()
            assert matrix.top(state.probs, s) == rankings[s][0][0]
            want += math.log(max(alone[state.mapping[p.token_index]],
                                 1e-300))
        assert abs(state.total - want) <= 1e-12


@pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_total_log_prob_matches_per_placeholder_ranking(icm_instances,
                                                       variant, ctx_kind):
    """A total that ranks every placeholder in one batch equals the sum of
    the log-probabilities `reference_rank` gives each placeholder alone on
    a fresh encoder, to 1e-12, and so do its rankings' probabilities."""
    rng = random.Random(7)
    for inst in icm_instances:
        params = small_model(inst.program, variant=variant,
                             context_encoder=ctx_kind)
        for _ in range(3):
            mapping = {p.token_index: rng.choice(p.candidates)
                       for p in inst.placeholders}
            total, rankings = total_log_prob(inst, Encoder(
                params, inst.program,
                placeholder_tokens=inst.placeholder_tokens), mapping)
            want = 0.0
            for ph in inst.placeholders:
                alone = dict(reference_rank(params, inst, ph, mapping))
                got = dict(rankings[ph.token_index])
                assert got.keys() == alone.keys()
                assert _close([got[v] for v in alone], alone.values())
                want += math.log(max(alone[mapping[ph.token_index]], 1e-300))
            assert abs(total - want) <= 1e-12


@pytest.mark.parametrize("ctx_kind", CONTEXT_ENCODERS)
def test_ranking_records_no_tape(loop_instance, ctx_kind):
    """After ICM, the ranking encoder's context bank is a constant, every
    type representation it cached is a constant or (a one-member closure)
    the model's own embedding, none records a tape, and no parameter holds
    a gradient; a fresh encoder's usage representations still record a
    tape."""
    inst = loop_instance
    params = small_model(inst.program, variant="hybrid",
                         context_encoder=ctx_kind)
    enc = Encoder(params, inst.program,
                  placeholder_tokens=inst.placeholder_tokens)
    icm(inst, params, restarts=2, max_sweeps=2, rng=random.Random(0),
        encoder=enc)
    cached = [enc.bank] + list(enc._type_cache.values())
    assert enc.bank is not None and enc._type_cache
    assert not enc.bank.requires_grad
    parameters = {id(p) for p in params.tensors()}
    for t in cached:
        assert not t.requires_grad or id(t) in parameters
        assert t._parents == () and t._vjp is None
    assert all(p.grad is None for p in params.tensors())
    ph = inst.placeholders[0]
    ug = dataflow_uses(inst.program, {ph.token_index: None})
    enc = Encoder(params, inst.program,
                  placeholder_tokens=inst.placeholder_tokens)
    u = usage_batch([(enc, ph.token_index, v, ug.occurrences.get(v, ()))
                     for v in ph.candidates])
    assert u.requires_grad and u._parents


@pytest.mark.parametrize("variant", VARIANTS)
def test_icm_leaves_no_reference_cycles(loop_instance, variant):
    """Control-flow graphs, use graphs, encoders and tapes are freed with
    their last reference, not left for the cycle collector."""
    params = small_model(loop_instance.program, variant=variant)
    gc.collect()
    gc.disable()
    try:
        icm(loop_instance, params, restarts=2, max_sweeps=2,
            rng=random.Random(0))
        assert gc.collect() == 0
    finally:
        gc.enable()


TARGET = """\
int SumPositive(int[] arr, int lim) {
  int sum = 0;
  return sum;
}
"""

SNIPPET = "for (int i = 0; i < lim; i++)\n  if (arr[i] > 0)\n    sum += arr[i];"


class TestPaste:
    def test_instance_shape(self):
        inst = make_paste_instance(TARGET, SNIPPET, line=3, col=3)
        # i is declared by the snippet; all 8 other uses become placeholders
        assert len(inst.placeholders) == 8
        names = {inst.program.symbol(c).name
                 for p in inst.placeholders for c in p.candidates}
        assert names == {"arr", "lim", "sum", "i"}

    def test_spliced_program_parses(self):
        inst = make_paste_instance(TARGET, SNIPPET, line=3, col=3)
        source = "".join(t.leading + t.text for t in inst.program.tokens)
        parse(tokenize(source))

    def test_truth_substitution_round_trips(self):
        inst = make_paste_instance(TARGET, SNIPPET, line=3, col=3)
        by_name = {s.name: s.id for s in inst.program.symbols}
        truth = dict(zip(sorted(p.token_index for p in inst.placeholders),
                         [by_name[n] for n in SUM_POSITIVE_TRUTH_NAMES]))
        texts = [t.text for t in inst.program.tokens]
        for tok, sid in truth.items():
            texts[tok] = inst.program.symbol(sid).name
        compile_source(" ".join(texts))  # type-checks with the right names

    def test_paste_returns_compilable_program(self):
        inst = make_paste_instance(TARGET, SNIPPET, line=3, col=3)
        params = small_model(inst.program, variant="loc")
        rewritten, best, out = paste(TARGET, SNIPPET, 3, 3, params,
                                     restarts=2, max_sweeps=3, seed=0)
        assert set(best.mapping) == {p.token_index for p in out.placeholders}
        parse(tokenize(rewritten))  # placeholder-free and syntactically valid

    def test_holes_are_the_snippets_variable_uses(self):
        """Every variable use in the snippet becomes a placeholder, also a
        use of a variable the snippet declares; a type name, a declared
        name and a called function do not."""
        target = ("type Base; type Leaf implements Base; "
                  "extern fn mk() -> Leaf; extern fn use(Base) -> int; "
                  "int f(Leaf a, int n) { int m = n; return m; }")
        snippet = "Base b = mk();\nm += use(b) + use(a) + n;"
        inst = make_paste_instance(target, snippet, 1,
                                   target.index("return") + 1)
        tokens = inst.program.tokens
        assert [(p.token_index, tokens[p.token_index].text)
                for p in inst.placeholders] == \
            [(47, "m"), (51, "b"), (56, "a"), (59, "n")]
        for p in inst.placeholders:
            assert {inst.program.symbol(c).name for c in p.candidates} == \
                {"a", "n", "m", "b"}
            assert p.truth == -1 and p.same_type_candidates == []
        lo, hi = inst.snippet_span
        assert " ".join(t.text for t in tokens[lo:hi + 1]) == \
            "Base b = mk ( ) ; m += use ( b ) + use ( a ) + n ;"

    def test_bad_snippet_rejected(self):
        with pytest.raises(SpliceError):
            make_paste_instance(TARGET, "for (int i = 0; i <", 3, 3)

    def test_snippet_without_uses_rejected(self):
        with pytest.raises(SpliceError):
            make_paste_instance(TARGET, "int z = 0;", 3, 3)

    def test_position_outside_function_rejected(self):
        with pytest.raises(SpliceError):
            make_paste_instance(TARGET, SNIPPET, line=1, col=1)

    def test_no_candidates(self):
        target = "int f() { return 0; }\n"
        with pytest.raises(NoCandidates):
            make_paste_instance(target, "x++;", line=1, col=11)

    def test_broken_target_rejected(self):
        with pytest.raises(SpliceError):
            make_paste_instance("int f( {", SNIPPET, 1, 1)
