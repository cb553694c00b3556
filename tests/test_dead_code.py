"""Every top-level function, class, constant and type alias under src/
(a name assigned at the top of a module, dunder names aside) is named
somewhere in src/ or bench/ outside its own definition, and every
parameter of a function under src/ (`self`, `cls`, `*args` and
`**kwargs` aside) is read in its body or in a scope nested in it.  Names resolve by
scope, then module: a bare name bound inside a function (an argument, an
assignment or loop target, a nested def; `global` and `nonlocal` aside),
lambda or comprehension is local there, any other is the defining
module's own or one a module imports from it, and `X.name` counts only
where X is bound to the defining module, so a local variable or
`np.tanh` with the same spelling is not a use.  Only a read is a use:
imports, `__all__` and assignments do not count; the dotted names the
benchmark traces (`bench/spans.py`) do."""

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


# the nodes with a scope of their own, and the fields of a function that
# are evaluated where it is defined, outside that scope
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)
OUTER = ("decorator_list", "args", "returns")


def _inner(scope):
    """The child nodes of a scope that see the names it binds."""
    for field, value in ast.iter_fields(scope):
        if field not in OUTER:
            yield from (v for v in (value if isinstance(value, list)
                                    else [value]) if isinstance(v, ast.AST))


def _locals(scope):
    """The names a scope binds itself: a function's arguments, and every
    name stored, deleted, imported, caught or defined in it outside nested
    scopes and classes, but those it declares global or nonlocal."""
    bound, shared = set(), set()
    a = getattr(scope, "args", None)  # a comprehension has none
    if a:
        bound.update(arg.arg for arg in a.posonlyargs + a.args
                     + a.kwonlyargs + [a.vararg, a.kwarg] if arg)
    todo = list(_inner(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            shared.update(node.names)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return bound - shared


def _qualified(node, module, bindings, local):
    """The qualified name a Name or a Name.attr... chain reads, or None;
    a bare name in `local` is a function's own."""
    if not isinstance(getattr(node, "ctx", None), ast.Load):
        return None  # a store or a delete is not a read
    if isinstance(node, ast.Name):
        return None if node.id in local \
            else bindings.get(node.id, f"{module}.{node.id}")
    if isinstance(node, ast.Attribute):
        owner = _qualified(node.value, module, bindings, local)
        return owner and f"{owner}.{node.attr}"
    return None


def _reads(node, module, bindings, local=frozenset()):
    """The qualified names read in a node, each bare name resolved in the
    scopes that enclose it (`local`, the names they bind)."""
    name = _qualified(node, module, bindings, local)
    if name:
        yield name
    inner = list(_inner(node)) if isinstance(node, SCOPES) else []
    scoped = local | _locals(node) if inner else local
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, module, bindings,
                          scoped if any(child is c for c in inner)
                          else local)


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
            names = set(_reads(stmt, module, imports[module]))
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


def _reads_name(node, name):
    """Whether a node reads `name` as bound where the node is: outside the
    nested scopes that bind a `name` of their own."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    inner = list(_inner(node)) if isinstance(node, SCOPES) else []
    shadowed = bool(inner) and name in _locals(node)
    return any(_reads_name(child, name) for child in ast.iter_child_nodes(node)
               if not (shadowed and any(child is c for c in inner)))


def unused_parameters(src_root):
    """(path, function, parameter) of each parameter of a function or
    lambda under src_root that neither its body nor a scope nested in it
    reads; `self`, `cls`, `*args` and `**kwargs` aside."""
    out = []
    for path in sorted(Path(src_root).rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                a = fn.args
                out += [(path, getattr(fn, "name", "<lambda>"), arg.arg)
                        for arg in a.posonlyargs + a.args + a.kwonlyargs
                        if arg.arg not in ("self", "cls") and not any(
                            _reads_name(node, arg.arg) for node in _inner(fn))]
    return sorted(out)


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
                   "def called(): LIMIT = 2; return LIMIT\n"
                   "STEP = 1\n"
                   "WIDTH = 2\n"
                   "COUNT = 0\n"
                   "def outer(STEP):\n"
                   "    def inner(): return STEP\n"
                   "    return inner, [WIDTH for WIDTH in range(STEP)]\n"
                   "def bump():\n"
                   "    global COUNT\n"
                   "    COUNT = COUNT + 1\n")
    # np.tanh and a local `sub` only share a spelling with lib's functions,
    # a write to lib.LIMIT does not read it, and neither do reads of the
    # locals of lib's functions that are spelled LIMIT, STEP or WIDTH; a
    # name declared global is the module's
    (tmp_path / "src" / "other.py").write_text(
        "import numpy as np\nimport lib\n"
        "sub = 2\nlib.LIMIT = 4\n"
        "print(np.tanh(sub), lib.called(), lib.outer, lib.bump)\n")
    bench = tmp_path / "bench" / "run.py"
    bench.write_text("from lib import Imported, Used\nUsed()\n"
                     "SPANS = [('lib.traced', 'a sentence')]\n")
    assert dead_definitions(tmp_path / "src", [bench]) == [
        (lib, "Imported"), (lib, "LIMIT"), (lib, "STEP"), (lib, "Table"),
        (lib, "WIDTH"), (lib, "sub"), (lib, "tanh"), (lib, "unused")]


def test_every_parameter_is_read():
    assert [(str(path.relative_to(ROOT)), fn, arg)
            for path, fn, arg in unused_parameters(ROOT / "src")] == []


def test_check_finds_an_unused_parameter(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used(a, b): return a + b\n"
                   "def ignores(a, b): return a\n"
                   "def nested(x, y):\n"
                   "    def inner(): return x\n"
                   "    def shadow(y): return y\n"
                   "    return inner, shadow\n"
                   "def default(x):\n"
                   "    def inner(z=x): return z\n"
                   "    return inner\n"
                   "def comprehension(n): return [n for n in range(3)]\n"
                   "def shared(v):\n"
                   "    def inner():\n"
                   "        nonlocal v\n"
                   "        v = v + 1\n"
                   "    return inner\n"
                   "def rest(self, *args, **kwargs): return 0\n"
                   "class C:\n"
                   "    def m(self, unused, used): return used\n"
                   "    @classmethod\n"
                   "    def k(cls, *, flag): return 0\n"
                   "pick = lambda u, w: u\n")
    # a parameter read only by an inner function, or in an inner
    # function's default, is read; one that an inner function or a
    # comprehension rebinds before every read is not
    assert unused_parameters(tmp_path) == [
        (lib, "<lambda>", "w"), (lib, "comprehension", "n"),
        (lib, "ignores", "b"), (lib, "k", "flag"), (lib, "m", "unused"),
        (lib, "nested", "y")]
