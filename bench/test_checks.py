"""The benchmark's output checks pass on right outputs and fail on
deliberately wrong ones.  Run with `python3 -m pytest bench/test_checks.py`."""

import copy

import numpy as np
import pytest

import checks
import inputs
import workloads
from smartpaste.dataflow import dataflow_uses
from smartpaste.infer import Assignment, paste
from smartpaste.minilang import compile_source
from smartpaste.minilang.lexer import tokenize
from smartpaste.models import Hyper, ModelParams, build_vocab
from smartpaste.oracle import oracle_dataflow
from smartpaste.taskgen import make_instance
from smartpaste.train import make_items


def small_model(program, variant, seed=3):
    return ModelParams(variant, Hyper(hidden=4, tree_depth=3),
                       type_names=program.lattice.types,
                       lexemes=[t.text for t in program.tokens], seed=seed)


@pytest.fixture(scope="module")
def fixture_paste():
    """The fixture pasted with the committed avgg checkpoint, which recovers
    the fixture's names."""
    req = inputs.fixture_request()
    params, _ = ModelParams.load(workloads.EvalAvgg.checkpoint)
    rewritten, best, inst = paste(req.target, req.snippet, req.line, req.col,
                                  params, restarts=5, max_sweeps=10, seed=0)
    assert checks.chosen_names(inst, best.mapping) == req.truth
    return req, rewritten, best, inst


@pytest.fixture(scope="module")
def loop_instance():
    program = compile_source(inputs.FIXTURE_TARGET.replace(
        "  return sum;", inputs.FIXTURE_SNIPPET + "\n  return sum;"))
    loop = program.ast.functions[0].body.statements[1]
    return make_instance(program, loop.span, "fixture-loop")


def test_paste_check_passes_right_output(fixture_paste):
    assert checks.paste_failures(*fixture_paste) == []


def test_paste_check_catches_swapped_name(fixture_paste):
    req, rewritten, best, inst = fixture_paste
    t = min(best.mapping)
    chosen = inst.program.symbol(best.mapping[t]).name
    other = next(n for n in sorted(req.scope_names) if n != chosen)
    tokens = tokenize(rewritten)
    start = sum(len(tok.leading) + len(tok.text) for tok in tokens[:t]) \
        + len(tokens[t].leading)
    assert rewritten[start:start + len(chosen)] == chosen
    swapped = rewritten[:start] + other + rewritten[start + len(chosen):]
    assert checks.paste_failures(req, swapped, best, inst)


def test_paste_check_catches_edit_outside_paste(fixture_paste):
    req, rewritten, best, inst = fixture_paste
    edited = rewritten.replace("int sum = 0;", "int sum = 1;")
    assert edited != rewritten
    assert checks.paste_failures(req, edited, best, inst)


def test_paste_check_catches_out_of_scope_choice(fixture_paste):
    req, rewritten, best, inst = fixture_paste
    narrow = copy.copy(req)
    narrow.scope_names = req.scope_names - {
        inst.program.symbol(best.mapping[min(best.mapping)]).name}
    assert checks.paste_failures(narrow, rewritten, best, inst)


def test_ranking_check():
    assert checks.ranking_failures({3: [(0, 0.25), (1, 0.75)]}, "x") == []
    assert checks.ranking_failures({3: [(0, 0.25), (1, 0.7)]}, "x")


def test_dataflow_check_catches_perturbed_relation(loop_instance):
    program = loop_instance.program
    override = {p.token_index: p.truth for p in loop_instance.placeholders}
    assert checks.dataflow_failures(program, override, "x") == []
    got = dataflow_uses(program, override=override)
    want = oracle_dataflow(program, loop_bound=3, override=override)
    key = next(k for k, v in sorted(got.df_in.items()) if v)
    got.df_in[key] = got.df_in[key] | {max(got.occ) + 1}
    assert checks.relation_failures(got, want, "x")


def test_monotone_check():
    assert checks.monotone_failures([[-3.0, -2.0, -2.0]], "x") == []
    assert checks.monotone_failures([[-3.0, -1.0, -2.0]], "x")


def test_map_check_catches_suboptimal_total(loop_instance):
    inst = copy.copy(loop_instance)
    inst.placeholders = loop_instance.placeholders[:3]
    params = small_model(inst.program, "avgg")
    optimum = checks.exhaustive_optimum(inst, params)
    assert checks.map_optimal(inst, params, Assignment({}, optimum)) is True
    assert checks.map_optimal(inst, params,
                              Assignment({}, optimum - 1e-3)) is False


def test_gradient_check_catches_perturbed_gradient(loop_instance):
    types, lexemes = build_vocab([loop_instance])
    params = ModelParams("hybrid", Hyper(hidden=4, tree_depth=3), types,
                         lexemes, seed=5)
    item = make_items([loop_instance])[0]
    analytic, coarse, fine, coords = checks.item_gradients(params, item, 12,
                                                           0)
    assert checks.gradient_failures(analytic, coarse, fine, coords,
                                    "x") == []
    i, idx = coords[0]
    analytic[i][idx] *= 1.001
    assert checks.gradient_failures(analytic, coarse, fine, coords, "x")


def test_gradient_check_skips_kinks_but_needs_smooth_coordinates():
    analytic = [np.array([1.0, 2.0])]
    coords = [(0, (0,)), (0, (1,))]
    coarse = [np.array([1.0, 2.5])]  # the second step crossed a kink
    fine = [np.array([1.0, 2.0])]
    assert checks.MIN_SMOOTH > 1
    assert checks.gradient_failures(analytic, coarse, fine, coords, "x")
