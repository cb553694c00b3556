"""Every top-level function and class under src/ is named somewhere in src/
or bench/ outside its own body.  Imports and `__all__` do not count as a
use; the dotted names the benchmark traces (`bench/spans.py`) do."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node):
    """Identifiers that node reads: names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _dotted_strings(node):
    """The parts of every string constant that spells a dotted name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and DOTTED.fullmatch(sub.value):
            yield from sub.value.split(".")


def dead_definitions(src_paths, bench_paths):
    """(path, name) of each top-level function or class in src_paths that
    no module of src_paths or bench_paths names outside its own body."""
    defined = []
    used = set()
    for path in list(src_paths) + list(bench_paths):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            names = set(_names(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(stmt.name)
                if path in src_paths:
                    defined.append((path, stmt.name))
            used |= names
        if path in bench_paths:
            used.update(_dotted_strings(tree))
    return sorted((path, name) for path, name in defined
                  if name not in used)


def test_every_definition_is_named():
    src = sorted((ROOT / "src").rglob("*.py"))
    bench = sorted((ROOT / "bench").rglob("*.py"))
    assert [(str(path.relative_to(ROOT)), name)
            for path, name in dead_definitions(src, bench)] == []


def test_check_finds_a_dead_definition(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    lib = tmp_path / "src" / "lib.py"
    lib.write_text("__all__ = ['unused', 'helper']\n"
                   "def helper(): return 1\n"
                   "def unused(n): return unused(n - 1) if n else helper()\n"
                   "class Used: pass\n"
                   "class Imported: pass\n"
                   "def traced(): pass\n")
    bench = tmp_path / "bench" / "run.py"
    bench.write_text("from lib import Imported, Used\nUsed()\n"
                     "SPANS = [('lib.traced', 'a sentence')]\n")
    assert dead_definitions([lib], [bench]) == [
        (lib, "Imported"), (lib, "unused")]
