"""Every module under src/, tests/ and bench/ uses each name it imports.
An import that is kept on purpose says so with `# noqa` on one of its lines;
names a module lists in `__all__` count as used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(path):
    """(line, name) of each imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa\n"
                      "from typing import List, Optional\n"
                      "def f(x: Optional[int]): return x\n")
    assert unused_imports(module) == [(1, "os"), (3, "List")]
