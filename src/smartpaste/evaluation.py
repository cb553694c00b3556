"""Evaluation: per-placeholder ranking metrics, full-snippet joint metrics,
and the same-type analysis with its precision-recall summary.

Every ranking is a row of `infer`'s score matrix on one inference `Encoder`
per instance: full-snippet metrics take ICM's final rankings, each
placeholder's with the others at their assigned symbols; the other metrics
rank all of an instance's placeholders with the others at their truth in
one `infer.rank_placeholders` call (`train.truth_rankings`)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .infer import DEFAULT_MAX_SWEEPS, DEFAULT_RESTARTS, icm
from .models import ModelParams
from .taskgen import TaskInstance
from .train import make_items, truth_rankings


class NoDecisions(Exception):
    pass


@dataclass
class MetricsReport:
    count: int
    accuracy: float
    mrr: float
    type_match: float
    extra: Dict[str, float] = field(default_factory=dict)

    def lines(self, title: str) -> List[str]:
        out = [f"{title} (n={self.count})",
               f"  accuracy    {self.accuracy:.4f}",
               f"  mrr         {self.mrr:.4f}",
               f"  type-match  {self.type_match:.4f}"]
        for k in sorted(self.extra):
            out.append(f"  {k:<11} {self.extra[k]:.4f}")
        return out


def _rank_of(ranked: List[Tuple[int, float]], truth: int) -> int:
    for r, (sid, _) in enumerate(ranked, start=1):
        if sid == truth:
            return r
    raise ValueError(f"truth {truth} missing from ranking")


def _type_matches(inst: TaskInstance, predicted: int, truth: int) -> bool:
    sym = inst.program.symbol
    return sym(predicted).declared_type == sym(truth).declared_type


def eval_per_placeholder(params: ModelParams,
                         instances: Sequence[TaskInstance]) -> MetricsReport:
    """Each placeholder ranked independently with every other placeholder
    held at its true symbol."""
    items = make_items(instances)
    if not items:
        raise NoDecisions("no placeholders to evaluate")
    hits = mrr = typed = 0.0
    for item, ranked in truth_rankings(params, items):
        rank = _rank_of(ranked, item.truth)
        hits += rank == 1
        mrr += 1.0 / rank
        typed += _type_matches(item.instance, ranked[0][0], item.truth)
    n = len(items)
    return MetricsReport(count=n, accuracy=hits / n, mrr=mrr / n,
                         type_match=typed / n)


def eval_full_snippet(params: ModelParams, instances: Sequence[TaskInstance],
                      restarts: int = DEFAULT_RESTARTS,
                      max_sweeps: int = DEFAULT_MAX_SWEEPS,
                      seed: int = 0) -> MetricsReport:
    """Joint inference per instance; placeholder metrics come from the final
    conditional rankings of the winning restart."""
    if not instances:
        raise NoDecisions("no instances to evaluate")
    hits = mrr = typed = 0.0
    exact = typed_exact = 0
    n_ph = 0
    for k, inst in enumerate(instances):
        best = icm(inst, params, restarts=restarts, max_sweeps=max_sweeps,
                   rng=random.Random(f"{seed}:{k}"))
        all_right = True
        all_typed = True
        for ph in inst.placeholders:
            ranked = best.rankings[ph.token_index]
            rank = _rank_of(ranked, ph.truth)
            chosen = best.mapping[ph.token_index]
            hits += chosen == ph.truth
            mrr += 1.0 / rank
            ok_type = _type_matches(inst, chosen, ph.truth)
            typed += ok_type
            all_right &= chosen == ph.truth
            all_typed &= ok_type
            n_ph += 1
        exact += all_right
        typed_exact += all_typed
    n_inst = len(instances)
    return MetricsReport(
        count=n_ph, accuracy=hits / n_ph, mrr=mrr / n_ph,
        type_match=typed / n_ph,
        extra={"exact": exact / n_inst, "type-exact": typed_exact / n_inst})


# --- same-type analysis -----------------------------------------------------

@dataclass
class Decision:
    correct: float  # 1.0 / 0.0, or fractional credit for exact score ties
    confidence: float


def pr_curve(decisions: Sequence[Decision]) -> List[Tuple[float, float]]:
    """(recall, precision) points by descending confidence; decisions with
    equal confidence enter the curve as one block."""
    if not decisions:
        raise NoDecisions("empty decision list")
    ordered = sorted(decisions, key=lambda d: -d.confidence)
    total = len(ordered)
    points = []
    taken = correct = 0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) \
                and ordered[j].confidence == ordered[i].confidence:
            correct += ordered[j].correct
            taken += 1
            j += 1
        points.append((taken / total, correct / taken))
        i = j
    return points


def pr_auc(points: Sequence[Tuple[float, float]]) -> float:
    """Trapezoidal area under the precision-recall points, anchored at
    recall 0 with the first point's precision."""
    pts = [(0.0, points[0][1])] + list(points)
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pts, pts[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


def precision_at_recall(points: Sequence[Tuple[float, float]],
                        recall: float = 0.10) -> float:
    """Precision of the first curve point reaching the requested recall."""
    for r, p in points:
        if r >= recall:
            return p
    return points[-1][1]


def _tie_credit(ranked: List[Tuple[int, float]], truth: int
                ) -> Tuple[float, float]:
    """(accuracy credit, reciprocal rank) under expected random tie-breaking.

    Candidates with exactly equal probabilities form a tie block; a model
    that cannot distinguish them deserves chance credit, not whatever the
    deterministic display order happens to award.  The credit is 1/|top
    block| when the truth ties for first (0 otherwise), and the reciprocal
    rank is averaged over the truth block's positions."""
    top_p = ranked[0][1]
    top_block = sum(1 for _, p in ranked if p == top_p)
    truth_p = next(p for s, p in ranked if s == truth)
    credit = 1.0 / top_block if truth_p == top_p else 0.0
    positions = [r for r, (_, p) in enumerate(ranked, start=1)
                 if p == truth_p]
    rr = sum(1.0 / r for r in positions) / len(positions)
    return credit, rr


def eval_same_type(params: ModelParams, instances: Sequence[TaskInstance]
                   ) -> MetricsReport:
    """Restricted to placeholders with at least two same-type candidates;
    ranking happens within the same-type set only, exact score ties earn
    expected chance credit, and each top choice contributes a
    confidence-weighted decision to the PR summary."""
    hits = mrr = 0.0
    decisions: List[Decision] = []
    for item, ranked in truth_rankings(params, make_items(instances),
                                       same_type=True):
        credit, rr = _tie_credit(ranked, item.truth)
        hits += credit
        mrr += rr
        decisions.append(Decision(correct=credit,
                                  confidence=ranked[0][1]))
    if not decisions:
        raise NoDecisions("no placeholder has two same-type candidates")
    n = len(decisions)
    points = pr_curve(decisions)
    return MetricsReport(
        count=n, accuracy=hits / n, mrr=mrr / n, type_match=1.0,
        extra={"pr-auc": pr_auc(points),
               "prec@10%": precision_at_recall(points, 0.10)})


def format_report(sections: Dict[str, MetricsReport]) -> str:
    lines: List[str] = []
    for title, report in sections.items():
        lines.extend(report.lines(title))
    return "\n".join(lines)
