"""Shared fixtures: the worked sum-of-positives program and small corpora."""

import pytest

from smartpaste import generator, taskgen
from smartpaste.minilang import compile_source
from smartpaste.models import Hyper, ModelParams, build_vocab

# One function exercising params, a loop, a branch, and compound assignment.
SUM_POSITIVE = """\
int SumPositive(int[] arr, int lim) {
  int sum = 0;
  for (int i = 0; i < lim; i++)
    if (arr[i] > 0)
      sum += arr[i];
  return sum;
}
"""

# Token indices of the 13 variable occurrences, in token order.
SUM_POSITIVE_OCCURRENCES = [6, 9, 13, 20, 24, 26, 28, 33, 35, 40, 42, 44, 48]

# The non-defining occurrences inside the for statement (tokens 17..46).
SUM_POSITIVE_USES = [24, 26, 28, 33, 35, 40, 42, 44]
SUM_POSITIVE_TRUTH_NAMES = ["i", "lim", "i", "arr", "i", "sum", "arr", "i"]

# A for statement whose step declares `y`, used after the loop: `y` is out
# of scope there, so the program does not compile.
LEAKING_STEP = ("int f(int n) { for (int i = 0; i < n; int y = 1) "
                "{ n = n + 1; } y = 2; return y; }")


@pytest.fixture(scope="session")
def sum_positive_program():
    return compile_source(SUM_POSITIVE, file_id="sum_positive.ml0")


@pytest.fixture(scope="session")
def sum_positive_symbols(sum_positive_program):
    """Name -> symbol id for the four variables."""
    return {s.name: s.id for s in sum_positive_program.symbols}


def corpus_instances(seed, n_projects, files_per_project, profile,
                     max_tokens=60, per_file=4):
    """Compile a generated corpus and keep a spread of instances per file."""
    out = []
    corpus = generator.generate_corpus(seed, n_projects, files_per_project,
                                       profile)
    for proj, files in sorted(corpus.items()):
        for name, src in files:
            program = compile_source(src, file_id=f"{proj}/{name}")
            got = taskgen.extract_instances(program, max_tokens)
            out.extend(got[::max(1, len(got) // per_file)][:per_file])
    return out


@pytest.fixture(scope="session")
def tiny_instances():
    return corpus_instances(7, 4, 2, "tiny", max_tokens=40, per_file=3)


@pytest.fixture(scope="session")
def small_params(tiny_instances):
    """An untrained small model over the tiny corpus vocabulary."""
    types, lexemes = build_vocab(tiny_instances)
    return ModelParams("hybrid", Hyper(hidden=8, tree_depth=6),
                       types, lexemes, seed=11)
