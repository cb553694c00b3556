"""Every top-level function, class, constant and type alias under src/
(a name assigned at the top of a module, dunder names aside) is named
somewhere in src/ or bench/ outside its own definition.  Names resolve by
module: a bare name is the defining module's own or one a module imports
from it, and `X.name` counts only where X is bound to the defining
module, so a local variable or `np.tanh` with the same spelling is not a
use.  Only a read is a use: imports, `__all__` and assignments do not
count; the dotted names the benchmark traces (`bench/spans.py`) do."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _module(path, root):
    """The dotted module name of a file under root, and its package."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def _bindings(tree, package):
    """Name -> qualified name of what each import of a module binds."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] \
                if node.level else ""
            base = ".".join(p for p in (base, node.module) if p)
            for alias in node.names:
                out[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out[bound] = alias.name if alias.asname else bound
    return out


def _qualified(node, module, bindings):
    """The qualified name a Name or a Name.attr... chain reads, or None."""
    if not isinstance(getattr(node, "ctx", None), ast.Load):
        return None  # a store or a delete is not a read
    if isinstance(node, ast.Name):
        return bindings.get(node.id, f"{module}.{node.id}")
    if isinstance(node, ast.Attribute):
        owner = _qualified(node.value, module, bindings)
        return owner and f"{owner}.{node.attr}"
    return None


def _dotted_strings(node):
    """Every string constant that spells a dotted name, split at the dots."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and DOTTED.fullmatch(sub.value):
            yield sub.value.split(".")


def _defined(stmt):
    """The names a top-level statement defines: a function's or class's
    name, or the plain names an assignment binds, dunder names aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) \
        else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def _reexports(name, imports):
    """name, then what each module it passes through imports it as."""
    seen = set()
    while name and name not in seen:
        seen.add(name)
        yield name
        owner, _, last = name.rpartition(".")
        name = imports.get(owner, {}).get(last)


def dead_definitions(src_root, bench_paths):
    """(path, name) of each top-level function, class or assigned name
    under src_root that no module under src_root or in bench_paths reads
    outside its own definition."""
    src_paths = sorted(Path(src_root).rglob("*.py"))
    modules = {path: _module(path, src_root) for path in src_paths}
    modules.update((path, (path.stem, "")) for path in bench_paths)
    trees = {path: ast.parse(path.read_text()) for path in modules}
    imports = {modules[p][0]: _bindings(t, modules[p][1])
               for p, t in trees.items()}
    defined, used = {}, set()
    for path, tree in trees.items():
        module = modules[path][0]
        for stmt in tree.body:
            names = {_qualified(n, module, imports[module])
                     for n in ast.walk(stmt)}
            for name in _defined(stmt):
                names.discard(f"{module}.{name}")
                if path in src_paths:
                    defined[f"{module}.{name}"] = (path, name)
            used |= names
        if path in bench_paths:
            for parts in _dotted_strings(tree):
                used.update(f"{m}.{parts[k]}" for m, _ in modules.values()
                            for k in range(1, len(parts))
                            if f".{m}".endswith("." + ".".join(parts[:k])))
    used = {hop for name in used for hop in _reexports(name, imports)}
    return sorted(site for name, site in defined.items() if name not in used)


def test_every_definition_is_named():
    bench = sorted((ROOT / "bench").rglob("*.py"))
    assert [(str(path.relative_to(ROOT)), name)
            for path, name in dead_definitions(ROOT / "src", bench)] == []


def test_check_finds_a_dead_definition(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    lib = tmp_path / "src" / "lib.py"
    lib.write_text("__all__ = ['unused', 'helper']\n"
                   "__version__ = '1.0'\n"
                   "from typing import Dict, Tuple\n"
                   "ONE = 1\n"
                   "LIMIT = 3\n"
                   "Pair = Tuple[int, int]\n"
                   "Table: type = Dict[int, Pair]\n"
                   "def helper(): return ONE\n"
                   "def unused(n): return unused(n - 1) if n else helper()\n"
                   "class Used: pass\n"
                   "class Imported: pass\n"
                   "def traced(): pass\n"
                   "def tanh(x): return x\n"
                   "def sub(a, b): return a - b\n"
                   "def called(): pass\n")
    # np.tanh and a local `sub` only share a spelling with lib's functions,
    # and a write to lib.LIMIT does not read it
    (tmp_path / "src" / "other.py").write_text(
        "import numpy as np\nimport lib\n"
        "sub = 2\nlib.LIMIT = 4\nprint(np.tanh(sub), lib.called())\n")
    bench = tmp_path / "bench" / "run.py"
    bench.write_text("from lib import Imported, Used\nUsed()\n"
                     "SPANS = [('lib.traced', 'a sentence')]\n")
    assert dead_definitions(tmp_path / "src", [bench]) == [
        (lib, "Imported"), (lib, "LIMIT"), (lib, "Table"), (lib, "sub"),
        (lib, "tanh"), (lib, "unused")]
