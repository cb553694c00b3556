"""Acceptance gate: eleven end-to-end checks, one pass/fail line each.

Each criterion prints a single `criterion N (<name>): PASS|FAIL` line and
then asserts, so a plain `pytest -v` run shows one verdict per criterion.
The synthetic-learning criteria (7, 8, 9, 11) share seeded corpora and
trained models through module-scoped fixtures.
"""

import random
import time

import numpy as np
import pytest

from smartpaste import nn
from smartpaste.dataflow import EPS, dataflow_uses
from smartpaste.evaluation import (eval_full_snippet, eval_per_placeholder,
                                   eval_same_type)
from smartpaste.generator import generate_corpus
from smartpaste.infer import (icm, make_paste_instance, paste,
                              total_log_prob)
from smartpaste.minilang import ast, compile_source
from smartpaste.models import (CONTEXT_ENCODERS, VARIANTS, Encoder, Hyper,
                               ModelParams, build_vocab)
from smartpaste.oracle import finite_diff_grad, oracle_dataflow, oracle_map
from smartpaste.taskgen import make_instance
from smartpaste.train import (TrainConfig, fit, make_items,
                              per_placeholder_accuracy)

from conftest import corpus_instances
from test_infer import SNIPPET, TARGET


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def count_statements(node) -> int:
    """Concrete statements in a subtree; brace groups don't count."""
    n = 0
    stack = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, ast.Stmt) and not isinstance(x, ast.Block):
            n += 1
        for f in getattr(x, "__dataclass_fields__", {}):
            v = getattr(x, f)
            for y in (v if isinstance(v, (list, tuple)) else [v]):
                if hasattr(y, "__dataclass_fields__"):
                    stack.append(y)
    return n


def compiled_files(seed, n_projects, files_per_project, profile):
    for proj, files in sorted(generate_corpus(seed, n_projects,
                                              files_per_project,
                                              profile).items()):
        for name, src in files:
            yield compile_source(src, file_id=f"{proj}/{name}")


# --- shared fixtures --------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_pool():
    """Small generated instances shared by the ICM criteria (5 and 6)."""
    return corpus_instances(7, 40, 2, "tiny", max_tokens=40, per_file=4)


@pytest.fixture(scope="module")
def tiny_model(tiny_pool):
    types, lexemes = build_vocab(tiny_pool)
    return ModelParams("avgg", Hyper(hidden=8), types, lexemes, seed=2)


@pytest.fixture(scope="module")
def loops_bundle():
    """The loop-pattern corpus with Loc/AvgG/Hybrid trained once, shared by
    criteria 8, 9, and 11."""
    t0 = time.monotonic()
    insts = corpus_instances(1, 12, 2, "loops", max_tokens=60, per_file=4)
    n_train = int(0.8 * len(insts))
    train, valid = insts[:n_train], insts[n_train:]
    types, lexemes = build_vocab(insts)
    models = {}
    for variant, hyper, epochs in [
            ("loc", Hyper(hidden=16), 3),
            ("avgg", Hyper(hidden=16), 3),
            ("hybrid", Hyper(hidden=16, tree_depth=8), 8)]:
        params = ModelParams(variant, hyper, types, lexemes, seed=1)
        fit(params, train, valid,
            TrainConfig(epochs=epochs, batch_size=8, lr=1e-3, seed=1))
        models[variant] = params
    return {"train": train, "valid": valid, "types": types,
            "lexemes": lexemes, "models": models,
            "elapsed": time.monotonic() - t0}


# --- criteria ---------------------------------------------------------------

def test_c1_dataflow_oracle_equivalence():
    t0 = time.monotonic()
    checked = mismatches = 0
    for program in compiled_files(11, 1100, 2, "tiny"):
        if max(count_statements(fn)
               for fn in program.ast.functions) > 12:
            continue
        got = dataflow_uses(program)
        want = oracle_dataflow(program, loop_bound=3)
        for t, v in got.occ.items():
            if got.din(t, v) != want.din(t, v) \
                    or got.dout(t, v) != want.dout(t, v):
                mismatches += 1
        checked += 1
        if checked >= 500:
            break
    elapsed = time.monotonic() - t0
    report(1, "dataflow oracle equivalence",
           checked >= 500 and mismatches == 0 and elapsed < 120,
           f"{checked} programs, {mismatches} mismatches, {elapsed:.0f}s")


def test_c2_lexical_degeneration():
    bad = total = 0
    for program in compiled_files(13, 60, 2, "straight"):
        ug = dataflow_uses(program)
        for t, v in ug.occ.items():
            total += 1
            lp, ln = ug.lex_prev(t, v), ug.lex_next(t, v)
            want_in = frozenset({EPS if lp is None else lp})
            want_out = frozenset({EPS if ln is None else ln})
            if ug.din(t, v) != want_in or ug.dout(t, v) != want_out:
                bad += 1
    report(2, "lexical degeneration on straight-line code",
           total > 0 and bad == 0, f"{total} occurrences, {bad} off")


def test_c3_gradient_correctness():
    prog = compile_source(
        "int f(int a, int b) { int c = a + b; c += a; return c; }")
    ug = dataflow_uses(prog)
    use = next(t.index for t in prog.tokens
               if t.symbol is not None and not t.is_def)
    cands = sorted(s.id for s in prog.symbols)[:2]

    def loss_of(params):
        enc = Encoder(params, prog)
        c = enc.context_repr(use)
        scores = [nn.dot(c, enc.usage_repr(ug, use, v)) for v in cands]
        loss, _ = nn.softmax_xent(nn.pack(scores), 0)
        return loss

    worst = 0.0
    for variant in VARIANTS:
        for enc_kind in CONTEXT_ENCODERS:
            for seed in range(20):
                params = ModelParams(
                    variant, Hyper(hidden=8, tree_depth=4,
                                   context_encoder=enc_kind),
                    ["int"], ["int", "+", "=", ";"], seed=seed)
                tensors = params.tensors()
                loss = loss_of(params)
                loss.backward()
                analytic = [t.grad.copy() if t.grad is not None
                            else np.zeros_like(t.data) for t in tensors]
                for t in tensors:
                    t.zero_grad()
                live = [(i, idx) for i, g in enumerate(analytic)
                        for idx in np.ndindex(g.shape)
                        if abs(g[idx]) > 1e-8]
                rng = random.Random(f"c3:{variant}:{enc_kind}:{seed}")
                sample = rng.sample(live, min(5, len(live)))
                numeric = finite_diff_grad(
                    lambda: loss_of(params).item(),
                    [t.data for t in tensors], coords=sample)
                for i, idx in sample:
                    a, n = analytic[i][idx], numeric[i][idx]
                    worst = max(worst, abs(a - n) / max(abs(a), abs(n)))
    report(3, "gradients vs central differences", worst < 1e-4,
           f"worst relative error {worst:.2e} over "
           f"{len(VARIANTS) * len(CONTEXT_ENCODERS) * 20} configurations")


def test_c4_scoring_invariants(sum_positive_program):
    ok = True
    rng = np.random.default_rng(4)
    for _ in range(200):
        scores = rng.normal(scale=5.0, size=rng.integers(2, 9))
        probs = nn.softmax_probs(scores)
        ok &= abs(probs.sum() - 1.0) < 1e-9
        shifted = nn.softmax_probs(scores + rng.normal() * 10.0)
        ok &= int(np.argmax(probs)) == int(np.argmax(shifted))

    # same supertype closure -> identical Loc usage vectors
    prog = compile_source(
        "type Base;\n"
        "type Mid implements Base;\n"
        "extern fn use(Base) -> int;\n"
        "int f(Mid a, Mid b, Base c) {\n"
        "  int n = use(a);\n  n += use(b);\n  n += use(c);\n  return n;\n"
        "}\n")
    params = ModelParams("loc", Hyper(hidden=8),
                         type_names=prog.lattice.types | {"int"},
                         lexemes=[], seed=4)
    enc = Encoder(params, prog)
    ug = dataflow_uses(prog)
    use = next(t.index for t in prog.tokens
               if t.symbol is not None and not t.is_def)
    sids = {s.name: s.id for s in prog.symbols}
    same = np.array_equal(enc.usage_repr(ug, use, sids["a"]).data,
                          enc.usage_repr(ug, use, sids["b"]).data)
    differ = not np.array_equal(enc.usage_repr(ug, use, sids["a"]).data,
                                enc.usage_repr(ug, use, sids["c"]).data)
    ok &= same and differ
    report(4, "softmax and type-pooling invariants", ok)


def test_c5_icm_monotone_and_deterministic(tiny_pool, tiny_model):
    insts = tiny_pool[:200]
    assert len(insts) == 200
    monotone = deterministic = True
    for k, inst in enumerate(insts):
        trace = []
        a = icm(inst, tiny_model, restarts=2, max_sweeps=3,
                rng=random.Random(f"c5:{k}"), trace=trace)
        for restart in trace:
            monotone &= all(y >= x for x, y in zip(restart, restart[1:]))
        b = icm(inst, tiny_model, restarts=2, max_sweeps=3,
                rng=random.Random(f"c5:{k}"))
        deterministic &= a.mapping == b.mapping \
            and a.total_log_prob == b.total_log_prob
    report(5, "icm monotone per update, deterministic per seed",
           monotone and deterministic,
           f"{len(insts)} instances")


def test_c6_icm_matches_exhaustive_map(tiny_pool, tiny_model):
    small = [i for i in tiny_pool
             if np.prod([len(p.candidates)
                         for p in i.placeholders]) <= 64][:200]
    assert len(small) == 200
    match = 0
    for k, inst in enumerate(small):
        enc = Encoder(tiny_model, inst.program,
                      placeholder_tokens=inst.placeholder_tokens)
        toks = sorted(p.token_index for p in inst.placeholders)
        cand_lists = [next(p.candidates for p in inst.placeholders
                           if p.token_index == t) for t in toks]

        def score(combo):
            return total_log_prob(inst, enc, dict(zip(toks, combo)))[0]

        _, best_score = oracle_map(cand_lists, score)
        got = icm(inst, tiny_model, restarts=5, max_sweeps=10,
                  rng=random.Random(f"c6:{k}"), encoder=enc)
        match += abs(got.total_log_prob - best_score) < 1e-9
    report(6, "icm vs exhaustive MAP", match >= 0.90 * len(small),
           f"{match}/{len(small)} optimal")


def test_c7_type_separable_learning():
    t0 = time.monotonic()
    insts = corpus_instances(1, 12, 2, "typesep", max_tokens=60, per_file=4)
    n_train = int(0.8 * len(insts))
    types, lexemes = build_vocab(insts)
    params = ModelParams("loc", Hyper(hidden=16), types, lexemes, seed=1)
    result = fit(params, insts[:n_train], insts[n_train:],
                 TrainConfig(epochs=20, batch_size=8, lr=1e-3, seed=1,
                             patience=5))
    elapsed = time.monotonic() - t0
    report(7, "type-separable corpus learned by Loc",
           result.best_valid_acc >= 0.95 and result.epochs_run <= 20
           and elapsed < 300,
           f"accuracy {result.best_valid_acc:.4f} "
           f"(epoch {result.best_epoch}), {elapsed:.0f}s")


def test_c8_same_type_separation(loops_bundle):
    valid = loops_bundle["valid"]
    accs = {v: per_placeholder_accuracy(loops_bundle["models"][v],
                                        make_items(valid))
            for v in ("avgg", "hybrid")}
    same_type = eval_same_type(loops_bundle["models"]["loc"], valid)
    chance_sum = chance_n = 0.0
    for inst in valid:
        for ph in inst.placeholders:
            if len(ph.same_type_candidates) >= 2:
                chance_sum += 1.0 / len(ph.same_type_candidates)
                chance_n += 1
    chance = chance_sum / chance_n
    gap = abs(same_type.accuracy - chance)
    elapsed = loops_bundle["elapsed"]
    report(8, "same-type learning separation",
           accs["avgg"] >= 0.75 and accs["hybrid"] >= 0.75
           and gap <= 0.05 and elapsed < 900,
           f"avgg {accs['avgg']:.4f}, hybrid {accs['hybrid']:.4f}, "
           f"loc same-type {same_type.accuracy:.4f} vs chance {chance:.4f},"
           f" {elapsed:.0f}s")


def test_c9_type_ablation_direction(loops_bundle):
    small_train = loops_bundle["train"][:10]
    accs = {}
    for label, unk in (("typed", False), ("unk", True)):
        params = ModelParams(
            "hybrid", Hyper(hidden=16, tree_depth=8, unk_types=unk),
            loops_bundle["types"], loops_bundle["lexemes"], seed=1)
        fit(params, small_train, small_train,
            TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=1))
        accs[label] = per_placeholder_accuracy(
            params, make_items(loops_bundle["valid"]))
    report(9, "unknown-type ablation lowers hybrid accuracy",
           accs["unk"] < accs["typed"],
           f"typed {accs['typed']:.4f} > unk {accs['unk']:.4f}")


# --- criterion 10: hand-labeled metrics fixture -----------------------------

# Ten single-function programs whose variables are all parameters, so every
# placeholder's candidate list is the full parameter list in declaration
# order.  With all model parameters zeroed every score ties, rankings
# degrade to that declaration order, and each truth's rank is the position
# written in RANKS below (read off the sources by hand).
METRIC_SOURCES = [
    "int f(int a, int b) { a += b; return a; }",
    "int f(int a, int b) { b += a; return b; }",
    "int f(int a, int b) { a += a; return a; }",
    "int f(int a, int b) { return a + b; }",
    "int f(int a, int b) { return b - a; }",
    "int f(int a, int b, int c) { a = b + c; return a; }",
    "int f(int a, int b, int c) { c = a * b; return c; }",
    "int f(int a, int b, int c) { return (a + b) * c; }",
    "int f(int a, int b) { if (a > b) return a; return b; }",
    "int f(int a, int b, int c) { b = c; return a + b; }",
]
RANKS = [
    [1, 2, 1],
    [2, 1, 2],
    [1, 1, 1],
    [1, 2],
    [2, 1],
    [1, 2, 3, 1],
    [3, 1, 2, 3],
    [1, 2, 3],
    [1, 2, 1, 2],
    [2, 3, 1, 2],
]


def test_c10_metrics_oracle():
    instances = []
    for k, src in enumerate(METRIC_SOURCES):
        program = compile_source(src, file_id=f"metrics{k}.ml0")
        stmts = program.ast.functions[0].body.statements
        span = (stmts[0].span[0], stmts[-1].span[1])
        instances.append(make_instance(program, span, f"m#{k}"))
    params = ModelParams("loc", Hyper(hidden=4), ["int"], [], seed=0)
    for t in params.tensors():
        t.data[...] = 0.0

    for inst, ranks in zip(instances, RANKS):
        assert len(inst.placeholders) == len(ranks)

    n = sum(len(r) for r in RANKS)                      # 32 placeholders
    expect_acc = sum(r == 1 for rs in RANKS for r in rs) / n      # 15/32
    expect_mrr = sum(1 / r for rs in RANKS for r in rs) / n       # 17/24
    expect_exact = sum(all(r == 1 for r in rs) for rs in RANKS) \
        / len(RANKS)                                              # 1/10
    # PR curve over uniform-confidence tie blocks: the seventeen 2-candidate
    # decisions (confidence 1/2, credit 1/2) then the fifteen 3-candidate
    # ones (confidence 1/3, credit 1/3)
    expect_auc = (17 / 32) * (1 / 2 + 1 / 2) / 2 \
        + (15 / 32) * (1 / 2 + 27 / 64) / 2

    per_ph = eval_per_placeholder(params, instances)
    full = eval_full_snippet(params, instances, restarts=2, max_sweeps=3,
                             seed=0)
    same = eval_same_type(params, instances)
    ok = (abs(per_ph.accuracy - expect_acc) < 1e-12
          and abs(per_ph.mrr - expect_mrr) < 1e-12
          and abs(full.accuracy - expect_acc) < 1e-12
          and abs(full.extra["exact"] - expect_exact) < 1e-12
          and abs(same.extra["pr-auc"] - expect_auc) < 1e-12)
    report(10, "metrics vs hand computation", ok,
           f"accuracy {per_ph.accuracy:.4f}, mrr {per_ph.mrr:.4f}, "
           f"exact {full.extra['exact']:.4f}, "
           f"pr-auc {same.extra['pr-auc']:.6f}")


def test_c11_pasted_loop_end_to_end(loops_bundle):
    inst = make_paste_instance(TARGET, SNIPPET, line=3, col=3)
    names = {s.id: s.name for s in inst.program.symbols}
    cand_names = {names[c]
                  for p in inst.placeholders for c in p.candidates}
    shape_ok = len(inst.placeholders) == 8 \
        and cand_names == {"arr", "lim", "sum", "i"}

    rewritten, best, out = paste(TARGET, SNIPPET, 3, 3,
                                 loops_bundle["models"]["hybrid"],
                                 restarts=5, max_sweeps=10, seed=0)
    out_names = {s.id: s.name for s in out.program.symbols}
    got = [out_names[best.mapping[t]] for t in sorted(best.mapping)]
    want = ["i", "lim", "i", "arr", "i", "sum", "arr", "i"]
    report(11, "pasted loop recovers ground truth",
           shape_ok and got == want, f"inferred {got}")
