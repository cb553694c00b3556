"""Seeded MiniLang corpora shared by the benchmark and its checkpoint recipe.

Importing this module puts the checkout's `src/` first on `sys.path`, so the
benchmark always measures the source tree it ships with, never an installed
copy.  It must be imported after the thread-count environment is fixed,
because it imports numpy through the program.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "smartpaste", "__init__.py")):
    raise SystemExit(f"no smartpaste source tree under {SRC}")
sys.path.insert(0, SRC)

import smartpaste  # noqa: E402

if os.path.dirname(os.path.abspath(smartpaste.__file__)) \
        != os.path.join(SRC, "smartpaste"):
    raise SystemExit(f"smartpaste imported from {smartpaste.__file__}, "
                     f"not from {SRC}")

from smartpaste import generator, taskgen  # noqa: E402
from smartpaste.minilang import compile_source  # noqa: E402

# The committed checkpoints are trained on the loops corpus of generator
# seed 1; benchmark corpora use seeds from HELD_OUT_BASE on, so no benchmark
# program is a training program.
TRAIN_SEED = 1
HELD_OUT_BASE = 1_000_000


def compiled_programs(seed: int, n_projects: int, files_per_project: int,
                      profile: str = "loops"):
    """(file id, source, program) for every file of a generated corpus."""
    corpus = generator.generate_corpus(seed, n_projects, files_per_project,
                                       profile)
    out = []
    for project, files in sorted(corpus.items()):
        for name, source in files:
            file_id = f"{project}/{name}"
            out.append((file_id, source,
                        compile_source(source, file_id=file_id)))
    return out


def program_stream(seed: int, profile: str = "loops"):
    """(file id, source, program) for file 0 of project 0, 1, 2, ... of the
    corpus `generator.generate_corpus(seed, ...)` would write, generated
    one at a time (same per-file seeding) for as long as the caller reads."""
    for p in itertools.count():
        rng = random.Random(f"{seed}:{profile}:{p}:0")
        source = generator.generate_file(rng, profile, p, 0)
        file_id = f"proj{p:02d}/file000.ml0"
        yield file_id, source, compile_source(source, file_id=file_id)


def spread_instances(programs, max_tokens: int = 60, per_file: int = 4):
    """Up to `per_file` instances per program, spread over its snippet list
    (the same selection the test suite's corpora use)."""
    out = []
    for _, _, program in programs:
        got = taskgen.extract_instances(program, max_tokens)
        out.extend(got[::max(1, len(got) // per_file)][:per_file])
    return out
