"""Output checks.  Each returns a list of failure messages (empty when the
outputs pass) and compares against a computation made apart from the
program's answer, or against a property the method must have."""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import corpus  # noqa: F401  (puts the checkout's src/ on the path)
from smartpaste import nn
from smartpaste.dataflow import dataflow_uses
from smartpaste.infer import total_log_prob
from smartpaste.minilang import compile_source
from smartpaste.minilang.checker import CheckError
from smartpaste.minilang.lexer import LexError, tokenize
from smartpaste.minilang.parser import ParseError
from smartpaste.models import Encoder
from smartpaste.oracle import finite_diff_grad, oracle_dataflow, oracle_map

PROB_TOL = 1e-9
GRAD_RTOL = 1e-4
GRAD_STEPS = (1e-5, 1e-6)
MIN_SMOOTH = 8
MAP_SHARE = 0.90
MAP_CAP = 64


def ranking_failures(rankings: Dict[int, List[Tuple[int, float]]],
                     label: str) -> List[str]:
    """Each placeholder's ranking is a distribution: sums to 1."""
    out = []
    for t, ranked in sorted(rankings.items()):
        total = math.fsum(p for _, p in ranked)
        if abs(total - 1.0) > PROB_TOL:
            out.append(f"{label}: ranking at token {t} sums to {total!r}")
    return out


def chosen_names(inst, mapping: Dict[int, int]) -> List[str]:
    """Assigned variable names in placeholder token order."""
    return [inst.program.symbol(mapping[t]).name for t in sorted(mapping)]


def paste_failures(req, rewritten: str, best, inst) -> List[str]:
    """A paste result against its request: the rewritten program compiles,
    matches the target byte for byte outside the pasted region, writes
    exactly the chosen names at the placeholders, and chooses in-scope
    variables with normalized rankings."""
    out: List[str] = []
    label = req.name
    try:
        compile_source(rewritten, file_id=label)
    except (CheckError, LexError, ParseError) as e:
        out.append(f"{label}: rewritten program does not compile: {e}")
    head, tail = req.target[:req.anchor], req.target[req.anchor:]
    if len(rewritten) < len(req.target) or not rewritten.startswith(head) \
            or not rewritten.endswith(tail):
        out.append(f"{label}: rewritten program differs from the target "
                   f"outside the pasted region")
    want = [tok.text for tok in inst.program.tokens]
    for t, sid in best.mapping.items():
        want[t] = inst.program.symbol(sid).name
    try:
        got = [tok.text for tok in tokenize(rewritten)]
    except LexError as e:
        got = [f"<{e}>"]
    if got != want:
        out.append(f"{label}: rewritten tokens differ from the spliced "
                   f"program with the chosen names")
    cands = {ph.token_index: ph.candidates for ph in inst.placeholders}
    if set(best.mapping) != set(cands):
        out.append(f"{label}: mapping covers tokens {sorted(best.mapping)},"
                   f" placeholders are {sorted(cands)}")
    for t, sid in sorted(best.mapping.items()):
        name = inst.program.symbol(sid).name
        if sid not in cands.get(t, ()) or name not in req.scope_names:
            out.append(f"{label}: token {t} got {name!r}, not an in-scope "
                       f"candidate of {sorted(req.scope_names)}")
    if len(best.mapping) != len(req.truth):
        out.append(f"{label}: {len(best.mapping)} placeholders, the cut "
                   f"snippet has {len(req.truth)} variable uses")
    return out + ranking_failures(best.rankings, label)


def dataflow_failures(program, override: Dict[int, Optional[int]],
                      label: str) -> List[str]:
    """The program's use relations under an override against exhaustive
    path enumeration under the same override."""
    got = dataflow_uses(program, override=override)
    want = oracle_dataflow(program, loop_bound=3, override=override)
    return relation_failures(got, want, label)


def relation_failures(got, want, label: str) -> List[str]:
    bad = [key for key in set(got.df_in) | set(want.df_in)
           if got.din(*key) != want.din(*key)]
    bad += [key for key in set(got.df_out) | set(want.df_out)
            if got.dout(*key) != want.dout(*key)]
    return [f"{label}: {len(bad)} use relations differ from the path "
            f"oracle, e.g. (token, symbol) {sorted(bad)[0]}"] if bad else []


def monotone_failures(trace: Sequence[Sequence[float]],
                      label: str) -> List[str]:
    """ICM's per-update totals never decrease within a restart."""
    out = []
    for r, totals in enumerate(trace):
        if any(b < a for a, b in zip(totals, totals[1:])):
            out.append(f"{label}: restart {r} total decreased")
    return out


def exhaustive_optimum(inst, params) -> Optional[float]:
    """The best pseudo-log-likelihood over every joint assignment; None
    when the instance has more than MAP_CAP assignments."""
    if np.prod([len(p.candidates) for p in inst.placeholders]) > MAP_CAP:
        return None
    enc = Encoder(params, inst.program,
                  placeholder_tokens=inst.placeholder_tokens)
    toks = sorted(p.token_index for p in inst.placeholders)
    by_tok = {p.token_index: p.candidates for p in inst.placeholders}
    _, best = oracle_map([by_tok[t] for t in toks],
                         lambda combo: total_log_prob(
                             inst, enc, dict(zip(toks, combo)))[0],
                         cap=MAP_CAP)
    return best


def map_optimal(inst, params, assignment) -> Optional[bool]:
    """Whether ICM's total equals the exhaustive optimum of the same
    objective; None when the instance is too large to enumerate."""
    best = exhaustive_optimum(inst, params)
    if best is None:
        return None
    return abs(assignment.total_log_prob - best) < 1e-9


def item_loss(params, item):
    """One item's softmax cross-entropy over its own candidates, with the
    deterministic (no type dropout) forward pass."""
    prog = item.instance.program
    enc = Encoder(params, prog,
                  placeholder_tokens=item.instance.placeholder_tokens)
    ug = dataflow_uses(prog, override={item.token: None})
    c = enc.context_repr(item.token)
    scores = [nn.dot(c, enc.usage_repr(ug, item.token, v))
              for v in item.candidates]
    loss, _ = nn.softmax_xent(nn.pack(scores),
                              item.candidates.index(item.truth))
    return loss


def item_gradients(params, item, n_coords: int, seed: int):
    """(analytic, coarse, fine, coords): backward-pass gradients of one
    item's loss, and central differences with steps GRAD_STEPS on a seeded
    sample of coordinates whose analytic gradient is not negligible."""
    tensors = params.tensors()
    for t in tensors:
        t.zero_grad()
    item_loss(params, item).backward()
    analytic = [t.grad.copy() if t.grad is not None
                else np.zeros_like(t.data) for t in tensors]
    for t in tensors:
        t.zero_grad()
    live = [(i, idx) for i, g in enumerate(analytic)
            for idx in np.ndindex(g.shape) if abs(g[idx]) > 1e-4]
    coords = random.Random(seed).sample(live, min(n_coords, len(live)))
    coarse, fine = (finite_diff_grad(
        lambda: item_loss(params, item).item(), [t.data for t in tensors],
        step=step, coords=coords) for step in GRAD_STEPS)
    return analytic, coarse, fine, coords


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def gradient_failures(analytic, coarse, fine, coords,
                      label: str) -> List[str]:
    """Analytic against central differences at the smooth coordinates.  The
    max pooling of the tree and type encoders makes the loss piecewise
    smooth; where the two step sizes disagree, a step crossed a kink and
    the difference quotient is no reference, so the coordinate is skipped.
    At least MIN_SMOOTH coordinates must remain."""
    smooth = [(i, idx) for i, idx in coords
              if _rel(coarse[i][idx], fine[i][idx]) < GRAD_RTOL]
    if len(smooth) < MIN_SMOOTH:
        return [f"{label}: {len(smooth)} of {len(coords)} sampled "
                f"coordinates smooth, fewer than {MIN_SMOOTH}"]
    worst = max(_rel(analytic[i][idx], fine[i][idx]) for i, idx in smooth)
    if not worst < GRAD_RTOL:
        return [f"{label}: analytic vs finite-difference gradient relative "
                f"error {worst:.3g} >= {GRAD_RTOL}"]
    return []
