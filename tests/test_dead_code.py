"""Every top-level function and class under src/ is named somewhere in src/
or bench/ outside its own body.  Names resolve by module: a bare name is
the defining module's own or one a module imports from it, and `X.name`
counts only where X is bound to the defining module, so a local variable
or `np.tanh` with the same spelling is not a use.  Imports and `__all__`
do not count as a use; the dotted names the benchmark traces
(`bench/spans.py`) do."""

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


def _reexports(name, imports):
    """name, then what each module it passes through imports it as."""
    seen = set()
    while name and name not in seen:
        seen.add(name)
        yield name
        owner, _, last = name.rpartition(".")
        name = imports.get(owner, {}).get(last)


def dead_definitions(src_root, bench_paths):
    """(path, name) of each top-level function or class under src_root that
    no module under src_root or in bench_paths names outside its own
    body."""
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
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(f"{module}.{stmt.name}")
                if path in src_paths:
                    defined[f"{module}.{stmt.name}"] = (path, stmt.name)
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
                   "def helper(): return 1\n"
                   "def unused(n): return unused(n - 1) if n else helper()\n"
                   "class Used: pass\n"
                   "class Imported: pass\n"
                   "def traced(): pass\n"
                   "def tanh(x): return x\n"
                   "def sub(a, b): return a - b\n"
                   "def called(): pass\n")
    # np.tanh and a local `sub` only share a spelling with lib's functions
    (tmp_path / "src" / "other.py").write_text(
        "import numpy as np\nimport lib\n"
        "sub = 2\nprint(np.tanh(sub), lib.called())\n")
    bench = tmp_path / "bench" / "run.py"
    bench.write_text("from lib import Imported, Used\nUsed()\n"
                     "SPANS = [('lib.traced', 'a sentence')]\n")
    assert dead_definitions(tmp_path / "src", [bench]) == [
        (lib, "Imported"), (lib, "sub"), (lib, "tanh"), (lib, "unused")]
