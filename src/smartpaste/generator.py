"""Synthetic MiniLang corpus generator.

Profiles:
  loops    accumulation loops over arrays with counter/accumulator/bound int
           variables: same-type decisions that type information cannot solve.
  typesep  every variable in a function has a distinct declared type, so the
           truth is always the unique candidate of its type.
  tiny     small random control-flow-heavy programs for the dataflow oracle.
  straight branch- and loop-free programs (lexical-degeneration checks).
  mixed    loops + typesep + string/handle templates.

Output is deterministic for a fixed seed; every emitted program type-checks.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

from .minilang import compile_source

WORDS = [
    "count", "total", "value", "item", "index", "limit", "size", "offset",
    "result", "score", "weight", "buffer", "cursor", "depth", "width",
    "height", "step", "delta", "bound", "accum", "probe", "slot", "mark",
    "level", "rank", "span", "batch", "chunk", "tally", "quota",
]

STRING_WORDS = ["path", "name", "label", "prefix", "suffix", "title", "key"]

EXTERNS = {
    "len": "extern fn len(int[]) -> int;",
    "concat": "extern fn concat(string, string) -> string;",
    "basename": "extern fn basename(string) -> string;",
    "exists": "extern fn exists(string) -> bool;",
    "strlen": "extern fn strlen(string) -> int;",
}


class _Names:
    def __init__(self, rng: random.Random, pool: List[str]):
        self.rng = rng
        self.pool = list(pool)
        self.rng.shuffle(self.pool)
        self.used = 0

    def fresh(self) -> str:
        if self.used < len(self.pool):
            name = self.pool[self.used]
        else:
            name = f"v{self.used}"
        self.used += 1
        return name


# --- loops profile ----------------------------------------------------------

def _gen_loop_function(rng: random.Random, fname: str) -> Tuple[str, List[str]]:
    """Counter / accumulator / bound int variables around an array loop."""
    names = _Names(rng, WORDS)
    arr = names.fresh()
    roles = {"bnd": names.fresh(), "acc": names.fresh(), "ctr": names.fresh()}
    extra = names.fresh() if rng.random() < 0.4 else None
    thresh = rng.randrange(0, 10)
    init = rng.randrange(0, 3)
    plus = rng.random() < 0.5  # acc += a[c]  vs  acc = acc + a[c]
    guarded = rng.random() < 0.7
    form = "while" if rng.random() < 0.7 else "for"

    decls = {
        "bnd": f"int {roles['bnd']} = len({arr});",
        "acc": f"int {roles['acc']} = {init};",
        "ctr": f"int {roles['ctr']} = 0;",
    }
    if extra is not None:
        decls["extra"] = f"int {extra} = {rng.randrange(1, 9)};"

    body_use = (f"{roles['acc']} += {arr}[{roles['ctr']}];" if plus else
                f"{roles['acc']} = {roles['acc']} + {arr}[{roles['ctr']}];")
    if guarded:
        body_use = f"if ({arr}[{roles['ctr']}] > {thresh}) {body_use}"

    lines = [f"int {fname}(int[] {arr}) {{"]
    if form == "while":
        order = list(decls)
        rng.shuffle(order)
        for key in order:
            lines.append("    " + decls[key])
        lines.append(f"    while ({roles['ctr']} < {roles['bnd']}) {{")
        lines.append("        " + body_use)
        lines.append(f"        {roles['ctr']}++;")
        lines.append("    }")
    else:
        order = [k for k in decls if k != "ctr"]
        rng.shuffle(order)
        for key in order:
            lines.append("    " + decls[key])
        lines.append(f"    for (int {roles['ctr']} = 0; "
                     f"{roles['ctr']} < {roles['bnd']}; {roles['ctr']}++)")
        lines.append("        " + body_use)
    lines.append(f"    return {roles['acc']};")
    lines.append("}")
    return "\n".join(lines), ["len"]


# --- typesep profile --------------------------------------------------------

def _gen_typesep_function(rng: random.Random, fname: str
                          ) -> Tuple[str, List[str]]:
    """One variable per type; truth is always the unique same-type candidate."""
    names = _Names(rng, WORDS + STRING_WORDS)
    n = names.fresh()
    flag = names.fresh()
    s = names.fresh()
    a = names.fresh()
    params = [f"int {n}", f"bool {flag}", f"string {s}", f"int[] {a}"]
    rng.shuffle(params)
    externs = ["concat", "strlen"]
    lines = [f"int {fname}({', '.join(params)}) {{"]
    stmts = [
        f"if ({flag}) {{ {n} = {n} + {a}[{n} % len({a})]; }}",
        f"{s} = concat({s}, {s});",
        f"if ({flag} && {n} > {rng.randrange(1, 5)}) {{ {n} = strlen({s}); }}",
        f"{n} += {a}[0];",
    ]
    if "len(" in stmts[0]:
        externs.append("len")
    rng.shuffle(stmts)
    for st in stmts[:rng.randrange(2, 5)]:
        lines.append("    " + st)
    lines.append(f"    return {n};")
    lines.append("}")
    return "\n".join(lines), externs


# --- string/handle template (mixed extras) ----------------------------------

def _gen_string_function(rng: random.Random, fname: str
                         ) -> Tuple[str, List[str]]:
    names = _Names(rng, STRING_WORDS + WORDS)
    p1, p2, out = names.fresh(), names.fresh(), names.fresh()
    lines = [f"string {fname}(string {p1}, string {p2}) {{"]
    lines.append(f"    string {out} = basename({p1});")
    lines.append(f"    if (exists({p1})) {{ {out} = concat({out}, {p2}); }}")
    if rng.random() < 0.5:
        lines.append(f"    if ({out} == {p2}) {{ {out} = {p1}; }}")
    lines.append(f"    return {out};")
    lines.append("}")
    return "\n".join(lines), ["basename", "exists", "concat"]


# --- tiny / straight profiles (oracle fodder) -------------------------------

def _int_expr(rng: random.Random, ints: List[str], arrays: List[str],
              depth: int = 0) -> str:
    opts = ["lit", "var"]
    if arrays and ints:
        opts.append("idx")
    if depth < 2 and ints:
        opts.append("bin")
    kind = rng.choice(opts)
    if kind == "lit" or (kind in ("var", "idx", "bin") and not ints):
        return str(rng.randrange(0, 10))
    if kind == "var":
        return rng.choice(ints)
    if kind == "idx":
        return f"{rng.choice(arrays)}[{rng.choice(ints)}]"
    op = rng.choice(["+", "-", "*"])
    return (f"({_int_expr(rng, ints, arrays, depth + 1)} {op} "
            f"{_int_expr(rng, ints, arrays, depth + 1)})")


def _bool_expr(rng: random.Random, ints: List[str], arrays: List[str]) -> str:
    op = rng.choice(["<", "<=", ">", "==", "!="])
    return (f"{_int_expr(rng, ints, arrays, 2)} {op} "
            f"{_int_expr(rng, ints, arrays, 2)}")


def _gen_tiny_function(rng: random.Random, fname: str, max_stmts: int,
                       allow_branches: bool) -> str:
    names = _Names(rng, WORDS)
    ints = [names.fresh(), names.fresh()]
    arrays = [names.fresh()] if rng.random() < 0.6 else []
    params = [f"int {v}" for v in ints] + [f"int[] {a}" for a in arrays]
    lines = [f"int {fname}({', '.join(params)}) {{"]
    budget = rng.randrange(3, max_stmts + 1)
    # keep the number of paths small enough for exhaustive enumeration:
    # at most two loops, loop bodies stay straight-line
    loops_left = 2

    def gen_stmt(indent: str, depth: int, in_loop: bool = False) -> List[str]:
        nonlocal loops_left
        kinds = ["assign", "compound", "incdec", "decl"]
        if allow_branches and depth < 2 and not in_loop:
            kinds += ["if", "if"]
            if loops_left > 0:
                kinds += ["while", "for"]
        kind = rng.choice(kinds)
        if kind == "decl":
            v = names.fresh()
            line = f"{indent}int {v} = {_int_expr(rng, ints, arrays)};"
            ints.append(v)
            return [line]
        if kind == "assign":
            return [f"{indent}{rng.choice(ints)} = "
                    f"{_int_expr(rng, ints, arrays)};"]
        if kind == "compound":
            op = rng.choice(["+=", "-="])
            return [f"{indent}{rng.choice(ints)} {op} "
                    f"{_int_expr(rng, ints, arrays)};"]
        if kind == "incdec":
            return [f"{indent}{rng.choice(ints)}{rng.choice(['++', '--'])};"]
        if kind == "if":
            out = [f"{indent}if ({_bool_expr(rng, ints, arrays)}) {{"]
            before = len(ints)
            out += gen_stmt(indent + "    ", depth + 1)
            del ints[before:]
            if rng.random() < 0.5:
                out.append(f"{indent}}} else {{")
                before = len(ints)
                out += gen_stmt(indent + "    ", depth + 1)
                del ints[before:]
            out.append(f"{indent}}}")
            return out
        if kind == "while":
            loops_left -= 1
            out = [f"{indent}while ({_bool_expr(rng, ints, arrays)}) {{"]
            before = len(ints)
            out += gen_stmt(indent + "    ", depth + 1, in_loop=True)
            del ints[before:]
            out.append(f"{indent}}}")
            return out
        loops_left -= 1
        c = names.fresh()
        out = [f"{indent}for (int {c} = 0; {c} < "
               f"{_int_expr(rng, ints, arrays)}; {c}++) {{"]
        before = len(ints)
        ints.append(c)
        out += gen_stmt(indent + "    ", depth + 1, in_loop=True)
        del ints[before:]
        out.append(f"{indent}}}")
        return out

    emitted = 0
    while emitted < budget:
        block = gen_stmt("    ", 0)
        lines += block
        emitted += 1
    lines.append(f"    return {rng.choice(ints)};")
    lines.append("}")
    return "\n".join(lines)


# --- assembly ---------------------------------------------------------------

def _project_preamble(project_index: int, externs: List[str]) -> List[str]:
    """Per-project nominal lattice plus the extern declarations a file uses."""
    base = f"Base{project_index}"
    mid = f"Mid{project_index}"
    leaf = f"Leaf{project_index}"
    lines = [f"type {base};",
             f"type {mid} implements {base};",
             f"type {leaf} implements {mid}, {base};"]
    for name in sorted(set(externs)):
        lines.append(EXTERNS[name])
    return lines


PROFILES = ("loops", "typesep", "tiny", "straight", "mixed")


def generate_file(rng: random.Random, profile: str, project_index: int,
                  file_index: int) -> str:
    externs: List[str] = []
    bodies: List[str] = []
    n_functions = rng.randrange(1, 3)
    for k in range(n_functions):
        fname = f"fn{file_index}x{k}"
        if profile == "loops":
            body, ex = _gen_loop_function(rng, fname)
        elif profile == "typesep":
            body, ex = _gen_typesep_function(rng, fname)
        elif profile == "tiny":
            body, ex = _gen_tiny_function(rng, fname, 8, True), []
        elif profile == "straight":
            body, ex = _gen_tiny_function(rng, fname, 8, False), []
        elif profile == "mixed":
            pick = rng.random()
            if pick < 0.5:
                body, ex = _gen_loop_function(rng, fname)
            elif pick < 0.8:
                body, ex = _gen_typesep_function(rng, fname)
            else:
                body, ex = _gen_string_function(rng, fname)
        else:
            raise ValueError(f"unknown profile {profile!r}")
        externs.extend(ex)
        bodies.append(body)
    lines = _project_preamble(project_index, externs)
    source = "\n".join(lines) + "\n\n" + "\n\n".join(bodies) + "\n"
    compile_source(source)  # every generated program must check
    return source


def generate_corpus(seed: int, n_projects: int, files_per_project: int,
                    profile: str = "mixed",
                    out_dir: Optional[str] = None
                    ) -> Dict[str, List[Tuple[str, str]]]:
    """Deterministic corpus keyed by project; optionally written to disk as
    one directory per project with .ml0 files."""
    for name, n in (("n_projects", n_projects),
                    ("files_per_project", files_per_project)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    corpus: Dict[str, List[Tuple[str, str]]] = {}
    for p in range(n_projects):
        project = f"proj{p:02d}"
        files = []
        for f in range(files_per_project):
            rng = random.Random(f"{seed}:{profile}:{p}:{f}")
            files.append((f"file{f:03d}.ml0",
                          generate_file(rng, profile, p, f)))
        corpus[project] = files
    if out_dir is not None:
        for project, files in corpus.items():
            pdir = os.path.join(out_dir, project)
            os.makedirs(pdir, exist_ok=True)
            for name, source in files:
                with open(os.path.join(pdir, name), "w") as fh:
                    fh.write(source)
    return corpus


def load_corpus_dir(corpus_dir: str) -> Dict[str, List[Tuple[str, str]]]:
    corpus: Dict[str, List[Tuple[str, str]]] = {}
    for project in sorted(os.listdir(corpus_dir)):
        pdir = os.path.join(corpus_dir, project)
        if not os.path.isdir(pdir):
            continue
        files = []
        for name in sorted(os.listdir(pdir)):
            if name.endswith(".ml0"):
                with open(os.path.join(pdir, name)) as fh:
                    files.append((name, fh.read()))
        if files:
            corpus[project] = files
    return corpus
