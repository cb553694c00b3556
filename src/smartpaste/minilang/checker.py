"""Scope resolution, type checking, and type-lattice construction.

Types are keyed by their surface spelling: "int", "bool", "string", "T[]",
nominal names, and the distinguished UNK_TYPE for unknown/unrepresented types
(also used for placeholder "hole" tokens during paste analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from . import ast
from .lexer import Token

UNK_TYPE = "$unk"
PRIMITIVES = ("int", "bool", "string")
# binary operator -> (type of both operands, result type); == and != take
# any two operands of one type
BINARY_TYPES = {
    **{op: ("int", "int") for op in ("+", "-", "*", "/", "%")},
    **{op: ("int", "bool") for op in ("<", "<=", ">", ">=")},
    **{op: ("bool", "bool") for op in ("&&", "||")},
}


class CheckError(Exception):
    pass


class TypeCheckError(CheckError):
    pass


class NameResolutionError(CheckError):
    pass


class RedeclError(CheckError):
    pass


class LatticeCycleError(CheckError):
    pass


@dataclass
class Symbol:
    id: int
    name: str
    declared_type: str
    scope_span: Tuple[int, int]
    decl_token: int

    def __repr__(self):
        return f"Symbol({self.id}, {self.name}: {self.declared_type})"


@dataclass
class TypeLattice:
    """Nominal types with declared `implements` edges; always contains the
    primitives and UNK_TYPE.  Acyclic by construction check."""

    supers: Dict[str, Set[str]] = field(default_factory=dict)

    def __post_init__(self):
        for p in PRIMITIVES:
            self.supers.setdefault(p, set())
        self.supers.setdefault(UNK_TYPE, set())

    def add_type(self, name: str, supers=()):
        if name == UNK_TYPE and supers:
            raise LatticeCycleError("UnkType cannot have supertypes")
        self.supers.setdefault(name, set()).update(supers)

    @property
    def types(self) -> Set[str]:
        return set(self.supers)

    def check_acyclic(self):
        state: Dict[str, int] = {}  # 1 = in progress, 2 = done

        def visit(t, trail):
            if state.get(t) == 2:
                return
            if state.get(t) == 1:
                raise LatticeCycleError(f"cycle through type {t!r}: {trail}")
            state[t] = 1
            for s in self.supers.get(t, ()):
                visit(s, trail + [s])
            state[t] = 2

        for t in list(self.supers):
            visit(t, [t])


def supertype_closure(lattice: TypeLattice, t: str) -> FrozenSet[str]:
    """Reflexive-transitive closure of the implements relation; unknown types
    collapse to {UNK_TYPE}."""
    if t not in lattice.supers:
        return frozenset([UNK_TYPE])
    seen: Set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(s for s in lattice.supers.get(cur, ()) if s not in seen)
    return frozenset(seen)


@dataclass
class TypedProgram:
    tokens: List[Token]
    ast: ast.Program
    symbols: List[Symbol]
    lattice: TypeLattice
    file_id: str = "<memory>"

    def symbol(self, sid: int) -> Symbol:
        return self.symbols[sid]


def vars_in_scope(program: TypedProgram, t: int) -> Set[int]:
    """SymbolIds whose scope contains token t and whose declaration precedes
    it (parameters always precede body tokens)."""
    out = set()
    for sym in program.symbols:
        lo, hi = sym.scope_span
        if lo <= t <= hi and sym.decl_token < t:
            out.add(sym.id)
    return out


class _Checker:
    def __init__(self, program: ast.Program, tokens: List[Token],
                 lattice: TypeLattice, holes: FrozenSet[int]):
        self.program = program
        self.tokens = tokens
        self.lattice = lattice
        self.holes = holes
        self.symbols: List[Symbol] = []
        self.externs: Dict[str, ast.ExternFn] = {}
        self.fn_sigs: Dict[str, ast.FunctionDef] = {}

    # -- type helpers --

    def resolve_type(self, ref: ast.TypeRef) -> str:
        base = ref.name
        if base not in self.lattice.supers:
            raise NameResolutionError(f"unknown type {base!r}")
        key = ref.key()
        if ref.is_array:
            self.lattice.add_type(key)
        return key

    def assignable(self, value_t: str, target_t: str) -> bool:
        if UNK_TYPE in (value_t, target_t):
            return True
        if value_t == target_t:
            return True
        return target_t in supertype_closure(self.lattice, value_t)

    def require(self, cond: bool, msg: str):
        if not cond:
            raise TypeCheckError(msg)

    # -- toplevel --

    def run(self) -> List[Symbol]:
        for td in self.program.type_decls:
            for s in td.supers:
                if s not in self.lattice.supers and s not in (
                        d.name for d in self.program.type_decls):
                    raise NameResolutionError(
                        f"type {td.name!r} implements unknown type {s!r}")
            self.lattice.add_type(td.name, td.supers)
        self.lattice.check_acyclic()
        for ex in self.program.extern_fns:
            if ex.name in self.externs:
                raise RedeclError(f"duplicate extern fn {ex.name!r}")
            self.externs[ex.name] = ex
            for pt in ex.param_types:
                self.resolve_type(pt)
            self.resolve_type(ex.return_type)
        for fn in self.program.functions:
            if fn.name in self.fn_sigs or fn.name in self.externs:
                raise RedeclError(f"duplicate function {fn.name!r}")
            self.fn_sigs[fn.name] = fn
        for fn in self.program.functions:
            self.check_function(fn)
        return self.symbols

    # -- functions and statements --

    def declare(self, name: str, type_key: str, name_token: int,
                scope_span: Tuple[int, int], env: Dict[str, Symbol],
                fn: ast.FunctionDef) -> Symbol:
        if name in env:
            raise RedeclError(
                f"redeclaration of {name!r} in function {fn.name!r}")
        sym = Symbol(id=len(self.symbols), name=name, declared_type=type_key,
                     scope_span=scope_span, decl_token=name_token)
        self.symbols.append(sym)
        env[name] = sym
        tok = self.tokens[name_token]
        tok.symbol = sym.id
        tok.is_def = True
        return sym

    def check_function(self, fn: ast.FunctionDef):
        ret_t = self.resolve_type(fn.return_type)
        env: Dict[str, Symbol] = {}
        for p in fn.params:
            pt = self.resolve_type(p.type)
            self.declare(p.name, pt, p.name_token, fn.span, env, fn)
        self.check_stmt(fn.body, env, fn, ret_t, fn.body.span)

    def check_stmt(self, stmt: ast.Stmt, env: Dict[str, Symbol],
                   fn: ast.FunctionDef, ret_t: str,
                   enclosing_span: Tuple[int, int]):
        """Check `stmt` and add its declarations to `env`, scoped to the end
        of `enclosing_span`.  A block, a for statement and each branch or
        body of an if or while are checked in a copy of `env` (a for's body
        in the for's copy), so their declarations end with them."""
        if isinstance(stmt, ast.Block):
            inner = dict(env)
            for s in stmt.statements:
                self.check_stmt(s, inner, fn, ret_t, stmt.span)
        elif isinstance(stmt, ast.Decl):
            dt = self.resolve_type(stmt.type)
            if stmt.init is not None:
                it = self.check_expr(stmt.init, env)
                self.require(self.assignable(it, dt),
                             f"cannot initialize {dt} variable {stmt.name!r} "
                             f"with {it}")
            scope = (stmt.span[0], enclosing_span[1])
            self.declare(stmt.name, dt, stmt.name_token, scope, env, fn)
        elif isinstance(stmt, ast.Assign):
            tt = self.check_expr(stmt.target, env)
            vt = self.check_expr(stmt.value, env)
            if stmt.op in ("+=", "-="):
                self.require(self.assignable(tt, "int") and
                             self.assignable(vt, "int"),
                             f"{stmt.op} requires int operands, got {tt}, {vt}")
            else:
                self.require(self.assignable(vt, tt),
                             f"cannot assign {vt} to {tt}")
        elif isinstance(stmt, ast.IncDec):
            tt = self.check_expr(stmt.target, env)
            self.require(self.assignable(tt, "int"),
                         f"{stmt.op} requires an int variable, got {tt}")
        elif isinstance(stmt, ast.If):
            ct = self.check_expr(stmt.cond, env)
            self.require(self.assignable(ct, "bool"),
                         f"if condition must be bool, got {ct}")
            for nested in (stmt.then, stmt.orelse):
                if nested is not None:
                    self.check_stmt(nested, dict(env), fn, ret_t, nested.span)
        elif isinstance(stmt, ast.While):
            ct = self.check_expr(stmt.cond, env)
            self.require(self.assignable(ct, "bool"),
                         f"while condition must be bool, got {ct}")
            self.check_stmt(stmt.body, dict(env), fn, ret_t, stmt.body.span)
        elif isinstance(stmt, ast.For):
            # init and step declarations scope over the whole statement
            inner = dict(env)
            if stmt.init is not None:
                self.check_stmt(stmt.init, inner, fn, ret_t, stmt.span)
            if stmt.cond is not None:
                ct = self.check_expr(stmt.cond, inner)
                self.require(self.assignable(ct, "bool"),
                             f"for condition must be bool, got {ct}")
            if stmt.step is not None:
                self.check_stmt(stmt.step, inner, fn, ret_t, stmt.span)
            self.check_stmt(stmt.body, inner, fn, ret_t, stmt.body.span)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                vt = self.check_expr(stmt.value, env)
                self.require(self.assignable(vt, ret_t),
                             f"cannot return {vt} from function returning {ret_t}")
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, env)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    # -- expressions --

    def check_expr(self, e: ast.Expr, env: Dict[str, Symbol]) -> str:
        if isinstance(e, ast.Var):
            if e.token in self.holes:
                return UNK_TYPE
            sym = env.get(e.name)
            if sym is None:
                raise NameResolutionError(f"undeclared variable {e.name!r}")
            tok = self.tokens[e.token]
            tok.symbol = sym.id
            return sym.declared_type
        if isinstance(e, ast.Literal):
            return e.kind
        if isinstance(e, ast.Unary):
            ot = self.check_expr(e.operand, env)
            if e.op == "!":
                self.require(self.assignable(ot, "bool"),
                             f"! requires bool, got {ot}")
                return "bool"
            self.require(self.assignable(ot, "int"),
                         f"unary - requires int, got {ot}")
            return "int"
        if isinstance(e, ast.Binary):
            lt = self.check_expr(e.left, env)
            rt = self.check_expr(e.right, env)
            if e.op in ("==", "!="):
                self.require(UNK_TYPE in (lt, rt) or lt == rt,
                             f"{e.op} requires matching types, got {lt}, {rt}")
                return "bool"
            operand, result = BINARY_TYPES[e.op]
            self.require(self.assignable(lt, operand) and
                         self.assignable(rt, operand),
                         f"{e.op} requires {operand} operands, got {lt}, {rt}")
            return result
        if isinstance(e, ast.Index):
            bt = self.check_expr(e.base, env)
            it = self.check_expr(e.index, env)
            self.require(self.assignable(it, "int"),
                         f"index must be int, got {it}")
            if bt == UNK_TYPE:
                return UNK_TYPE
            self.require(bt.endswith("[]"), f"cannot index into {bt}")
            return bt[:-2]
        if isinstance(e, ast.Call):
            sig = self.externs.get(e.func)
            if sig is None:
                raise NameResolutionError(f"unknown function {e.func!r}")
            self.require(len(e.args) == len(sig.param_types),
                         f"{e.func!r} expects {len(sig.param_types)} args, "
                         f"got {len(e.args)}")
            for arg, pt in zip(e.args, sig.param_types):
                at = self.check_expr(arg, env)
                self.require(self.assignable(at, pt.key()),
                             f"bad argument to {e.func!r}: {at} vs {pt.key()}")
            return sig.return_type.key()
        raise AssertionError(f"unhandled expression {e!r}")


def check(program: ast.Program, tokens: List[Token],
          file_id: str = "<memory>",
          holes: FrozenSet[int] = frozenset()) -> TypedProgram:
    """Resolve and type-check a parsed program.  `holes` marks variable-use
    tokens of unknown identity (used by paste); they type as UNK_TYPE and do
    not resolve to a symbol."""
    lattice = TypeLattice()
    for tok in tokens:
        tok.symbol = None
        tok.is_def = False
    symbols = _Checker(program, tokens, lattice, holes).run()
    return TypedProgram(tokens=tokens, ast=program, symbols=symbols,
                        lattice=lattice, file_id=file_id)
