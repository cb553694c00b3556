"""Metric definitions: ranking metrics, PR curves with tie blocks, reports."""

from dataclasses import replace

import pytest

from smartpaste.evaluation import (Decision, MetricsReport, NoDecisions,
                                   _tie_credit, eval_full_snippet,
                                   eval_per_placeholder, eval_same_type,
                                   format_report, pr_auc, pr_curve,
                                   precision_at_recall)
from smartpaste.models import VARIANTS, Hyper, ModelParams, build_vocab
from smartpaste.taskgen import make_instance
from smartpaste.train import make_items, per_placeholder_accuracy

from rank_reference import reference_rank


class TestPrCurve:
    def test_simple_descending(self):
        decisions = [Decision(True, 0.9), Decision(False, 0.8),
                     Decision(True, 0.7), Decision(True, 0.6)]
        points = pr_curve(decisions)
        assert points == [(0.25, 1.0), (0.5, 0.5), (0.75, 2 / 3),
                          (1.0, 0.75)]

    def test_ties_form_one_block(self):
        decisions = [Decision(True, 0.5), Decision(False, 0.5),
                     Decision(True, 0.5)]
        assert pr_curve(decisions) == [(1.0, 2 / 3)]

    def test_order_independent(self):
        a = [Decision(True, 0.9), Decision(False, 0.2)]
        assert pr_curve(a) == pr_curve(list(reversed(a)))

    def test_empty_raises(self):
        with pytest.raises(NoDecisions):
            pr_curve([])


class TestPrAuc:
    def test_perfect_classifier(self):
        points = pr_curve([Decision(True, 0.9), Decision(True, 0.8)])
        assert pr_auc(points) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_trapezoid(self):
        # anchor (0, 1.0); points (0.5, 1.0) and (1.0, 0.75)
        points = [(0.5, 1.0), (1.0, 0.75)]
        expect = 0.5 * 1.0 + 0.5 * (1.0 + 0.75) / 2
        assert pr_auc(points) == pytest.approx(expect, abs=1e-12)

    def test_precision_at_recall(self):
        points = [(0.05, 1.0), (0.5, 0.8), (1.0, 0.6)]
        assert precision_at_recall(points, 0.10) == 0.8
        assert precision_at_recall(points, 0.75) == 0.6
        assert precision_at_recall(points, 0.01) == 1.0


class TestReportFormat:
    def test_lines(self):
        rep = MetricsReport(count=4, accuracy=0.5, mrr=0.75, type_match=1.0,
                            extra={"exact": 0.25})
        lines = rep.lines("per-placeholder")
        assert lines[0] == "per-placeholder (n=4)"
        assert any("accuracy" in ln and "0.5000" in ln for ln in lines)
        assert any("exact" in ln and "0.2500" in ln for ln in lines)

    def test_format_report_joins_sections(self):
        rep = MetricsReport(count=1, accuracy=1.0, mrr=1.0, type_match=1.0)
        out = format_report({"a": rep, "b": rep})
        assert out.count("(n=1)") == 2


@pytest.fixture(scope="module")
def zero_setup(sum_positive_program):
    inst = make_instance(sum_positive_program, (17, 46), "z#0")
    params = ModelParams(
        "loc", Hyper(hidden=4),
        type_names=sum_positive_program.lattice.types | {"int", "int[]"},
        lexemes=[], seed=0)
    for t in params.tensors():
        t.data[...] = 0.0
    return inst, params


class TestModelMetrics:
    """With all parameters zeroed every score ties, so the ranking is the
    candidate list sorted by symbol id, probabilities are uniform, and all
    metrics can be verified by hand."""

    def test_per_placeholder_hand_values(self, zero_setup,
                                         sum_positive_symbols):
        inst, params = zero_setup
        report = eval_per_placeholder(params, [inst])
        # prediction is always symbol 0 = arr; truths: i,lim,i,arr,i,sum,arr,i
        assert report.count == 8
        assert report.accuracy == pytest.approx(2 / 8, abs=1e-12)
        # ranks of truths in [arr, lim, sum, i]: 4,2,4,1,4,3,1,4
        expect_mrr = (1 / 4 + 1 / 2 + 1 / 4 + 1 + 1 / 4 + 1 / 3 + 1 + 1 / 4) / 8
        assert report.mrr == pytest.approx(expect_mrr, abs=1e-12)
        # predicted arr matches the truth's type only for the two arr truths
        assert report.type_match == pytest.approx(2 / 8, abs=1e-12)

    def test_full_snippet_hand_values(self, zero_setup):
        inst, params = zero_setup
        report = eval_full_snippet(params, [inst], restarts=2, max_sweeps=2,
                                   seed=0)
        assert report.count == 8
        assert report.accuracy == pytest.approx(2 / 8, abs=1e-12)
        assert report.extra["exact"] == 0.0
        assert report.extra["type-exact"] == 0.0

    def test_same_type_hand_values(self, zero_setup, sum_positive_symbols):
        inst, params = zero_setup
        report = eval_same_type(params, [inst])
        # arr has a singleton same-type set; the 6 int placeholders remain,
        # each a full three-way tie over {lim, sum, i}, so every decision
        # earns the expected chance credit 1/3
        assert report.count == 6
        assert report.accuracy == pytest.approx(1 / 3, abs=1e-12)
        # expected reciprocal rank of a full 3-way tie: (1 + 1/2 + 1/3)/3
        assert report.mrr == pytest.approx(11 / 18, abs=1e-12)
        # uniform confidence 1/3 -> one PR block of total credit 2 over 6
        assert report.extra["pr-auc"] == pytest.approx(1 / 3, abs=1e-12)
        assert report.extra["prec@10%"] == pytest.approx(1 / 3, abs=1e-12)

    def test_same_type_tie_credit(self):
        from smartpaste.evaluation import _tie_credit
        # distinct scores: plain accuracy and reciprocal rank
        assert _tie_credit([(0, 0.5), (1, 0.3), (2, 0.2)], 0) == (1.0, 1.0)
        assert _tie_credit([(0, 0.5), (1, 0.3), (2, 0.2)], 2) == (0.0, 1 / 3)
        # truth tied for first among two of three
        credit, rr = _tie_credit([(0, 0.4), (1, 0.4), (2, 0.2)], 1)
        assert credit == pytest.approx(0.5)
        assert rr == pytest.approx((1 + 1 / 2) / 2)
        # truth tied below the top block earns nothing
        credit, rr = _tie_credit([(0, 0.6), (1, 0.2), (2, 0.2)], 2)
        assert credit == 0.0
        assert rr == pytest.approx((1 / 2 + 1 / 3) / 2)

    def test_same_type_requires_decisions(self, zero_setup):
        _, params = zero_setup
        prog_src = "int f(int a, bool b) { a += 1; return a; }"
        from smartpaste.minilang import compile_source
        prog = compile_source(prog_src)
        inst = make_instance(prog, prog.ast.functions[0].body.statements[0].span)
        with pytest.raises(NoDecisions):
            eval_same_type(params, [inst])

    def test_per_placeholder_requires_items(self, zero_setup):
        _, params = zero_setup
        with pytest.raises(NoDecisions):
            eval_per_placeholder(params, [])


@pytest.mark.parametrize("variant", VARIANTS)
def test_truth_context_metrics_match_fresh_rankings(sum_positive_program,
                                                    variant):
    """Validation accuracy and the per-placeholder and same-type metrics
    rank each placeholder as a fresh encoder does over the program with that
    placeholder unbound and every other token at its truth."""
    inst = make_instance(sum_positive_program, (17, 46), "loop#0")
    params = ModelParams(variant, Hyper(hidden=6, tree_depth=4),
                         *build_vocab([inst]), seed=3)
    declared = {s.id: s.declared_type for s in inst.program.symbols}

    def fresh_rank(ph, candidates):
        return reference_rank(params, inst, replace(ph, candidates=candidates),
                              {ph.token_index: None})

    hits = mrr = typed = 0.0
    for ph in inst.placeholders:
        ranked = fresh_rank(ph, ph.candidates)
        rank = [v for v, _ in ranked].index(ph.truth) + 1
        hits += rank == 1
        mrr += 1.0 / rank
        typed += declared[ranked[0][0]] == declared[ph.truth]
    n = len(inst.placeholders)
    report = eval_per_placeholder(params, [inst])
    assert (report.count, report.accuracy, report.mrr, report.type_match) \
        == (n, hits / n, mrr / n, typed / n)
    assert per_placeholder_accuracy(params, make_items([inst])) == hits / n

    hits = mrr = 0.0
    m = 0
    for ph in inst.placeholders:
        if len(ph.same_type_candidates) >= 2:
            credit, rr = _tie_credit(
                fresh_rank(ph, ph.same_type_candidates), ph.truth)
            hits += credit
            mrr += rr
            m += 1
    report = eval_same_type(params, [inst])
    assert (report.count, report.accuracy, report.mrr) \
        == (m, hits / m, mrr / m)
