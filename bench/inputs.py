"""Benchmark inputs, all made from the workload seed.

Every corpus here is a held-out `loops` corpus: generator seed
HELD_OUT_BASE + workload seed, never the checkpoints' training seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import corpus
import checks
from smartpaste import taskgen
from smartpaste.minilang import ast

MAX_TOKENS = 60

# The pasted-loop fixture of the test suite (tests/test_infer.py) and the
# names the acceptance suite expects the trained hybrid model to recover.
FIXTURE_TARGET = """\
int SumPositive(int[] arr, int lim) {
  int sum = 0;
  return sum;
}
"""
FIXTURE_SNIPPET = ("for (int i = 0; i < lim; i++)\n"
                   "  if (arr[i] > 0)\n"
                   "    sum += arr[i];")
FIXTURE_TRUTH = ["i", "lim", "i", "arr", "i", "sum", "arr", "i"]

# Cut loops have the fixture's size: 8 placeholders over 4 variables in
# scope.  ICM cost grows with both, so fixing them lets seeds vary names,
# constants and statement order but not the amount of work.
CUT_PLACEHOLDERS = 8
CUT_VARIABLES = 4
# The commonest function-body size among those programs.
EVAL_BODY_PLACEHOLDERS = 11


@dataclass
class PasteRequest:
    name: str
    target: str          # program text the snippet is pasted into
    snippet: str
    line: int            # --at position in the target
    col: int
    anchor: int          # character offset of the insertion in the target
    truth: List[str]     # original name of each placeholder, token order
    scope_names: Set[str]  # variables declared in the enclosing function


def fixture_request() -> PasteRequest:
    anchor = FIXTURE_TARGET.index("return")
    return PasteRequest(name="fixture", target=FIXTURE_TARGET,
                        snippet=FIXTURE_SNIPPET, line=3, col=3,
                        anchor=anchor, truth=list(FIXTURE_TRUTH),
                        scope_names={"arr", "lim", "sum", "i"})


def _char_offsets(program) -> List[int]:
    """Start offset of every token's text in the program source."""
    out, pos = [], 0
    for tok in program.tokens:
        pos += len(tok.leading)
        out.append(pos)
        pos += len(tok.text)
    return out


def _cut_loop(file_id: str, source: str, program, fn: ast.FunctionDef,
              loop: ast.Stmt) -> PasteRequest:
    """Remove the loop's lines from the source; the loop is pasted back
    before the statement that followed it."""
    lo, hi = loop.span
    offsets = _char_offsets(program)
    start = offsets[lo]
    end = offsets[hi] + len(program.tokens[hi].text)
    line_start = source.rfind("\n", 0, start) + 1
    line_end = source.index("\n", end) + 1
    target = source[:line_start] + source[line_end:]
    rest = source[line_end:]
    anchor = line_start + len(rest) - len(rest.lstrip())
    line = target.count("\n", 0, anchor) + 1
    col = anchor - target.rfind("\n", 0, anchor)
    truth = [t.text for t in program.tokens[lo:hi + 1]
             if t.symbol is not None and not t.is_def]
    lo_fn, hi_fn = fn.span
    scope = {s.name for s in program.symbols
             if s.scope_span[0] >= lo_fn and s.scope_span[1] <= hi_fn}
    return PasteRequest(name=f"{file_id}:{fn.name}", target=target,
                        snippet=source[start:end], line=line, col=col,
                        anchor=anchor, truth=truth, scope_names=scope)


def uniform_programs(seed: int, count: Optional[int]):
    """The first `count` (all, when None) programs of the held-out corpus
    that hold one function with one loop over four variables, the fixture's
    shape.
    Inference re-analyses the whole program, so programs of one size keep
    the work per operation alike across seeds."""
    return itertools.islice(
        (prog for prog in corpus.program_stream(corpus.HELD_OUT_BASE + seed)
         if len(prog[2].ast.functions) == 1
         and len(prog[2].symbols) == CUT_VARIABLES), count)


def cut_loop_requests(seed: int) -> List[PasteRequest]:
    """The first while loop and the first for loop of the fixture's size in
    the held-out corpus, each cut out of its program to be pasted back.
    One of each keeps the mix of loop forms, which the models get right at
    different rates, the same in every round."""
    out: Dict[type, PasteRequest] = {}
    for file_id, source, program in uniform_programs(seed, None):
        loop = _loop(program)
        req = _cut_loop(file_id, source, program, program.ast.functions[0],
                        loop)
        if len(req.truth) == CUT_PLACEHOLDERS:
            out.setdefault(type(loop), req)
            if len(out) == 2:
                return [out[ast.While], out[ast.For]]


def paste_requests(seed: int) -> List[PasteRequest]:
    return [fixture_request()] + cut_loop_requests(seed)


def eval_instances(seed: int, n_while: int, n_for: int, n_small: int):
    """Function-body instances of EVAL_BODY_PLACEHOLDERS placeholders from
    uniform held-out programs, `n_while` of while loops and `n_for` of for
    loops, then the first `n_small` instances of two or more placeholders
    small enough for exhaustive MAP search from uniform programs.  Bodies
    of one size and loop form have one token structure, which keeps the
    work per round alike across seeds."""
    bodies = {ast.While: [], ast.For: []}
    want = {ast.While: n_while, ast.For: n_for}
    small: List = []
    for _, _, program in uniform_programs(seed, None):
        insts = taskgen.extract_instances(program, MAX_TOKENS)
        body = max(insts, key=lambda i: len(i.placeholders))
        form = type(_loop(program))
        if len(body.placeholders) == EVAL_BODY_PLACEHOLDERS \
                and len(bodies[form]) < want[form]:
            bodies[form].append(body)
        if len(small) < n_small:
            small += [i for i in insts if len(i.placeholders) >= 2
                      and joint_assignments(i) <= checks.MAP_CAP]
        if all(len(bodies[f]) == want[f] for f in want) \
                and len(small) >= n_small:
            return bodies[ast.While] + bodies[ast.For] + small[:n_small]


def _loop(program) -> ast.Stmt:
    """The loop statement of a uniform program's only function."""
    return next(s for s in ast.walk_statements(program.ast.functions[0].body)
                if isinstance(s, (ast.While, ast.For)))


def joint_assignments(inst) -> int:
    return math.prod(len(p.candidates) for p in inst.placeholders)


def train_split(seed: int, train_items: int, valid_items: int):
    """(train instances, valid instances) spread over the snippets of
    uniform held-out programs.  Whole instances are taken in corpus order
    until a part holds at least the requested number of placeholders (one
    training item each); the valid part starts at the next program, so no
    program is in both."""
    programs = uniform_programs(seed, None)
    parts = []
    for want in (train_items, valid_items):
        part: List = []
        while placeholder_count(part) < want:
            for inst in corpus.spread_instances([next(programs)]):
                if placeholder_count(part) < want:
                    part.append(inst)
        parts.append(part)
    return parts[0], parts[1]


def placeholder_count(instances: Sequence) -> int:
    return sum(len(i.placeholders) for i in instances)
