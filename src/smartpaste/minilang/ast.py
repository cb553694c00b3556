"""AST node definitions for MiniLang.

Every node but Program records its token span [lo, hi] (inclusive) into the
token list it was parsed from; statement spans nest inside their parents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

Span = Tuple[int, int]


@dataclass
class Node:
    span: Span = field(default=(0, 0))


# --- types ------------------------------------------------------------------

@dataclass
class TypeRef(Node):
    name: str = ""          # "int", "bool", "string", or a nominal name
    is_array: bool = False  # T[]

    def key(self) -> str:
        return self.name + ("[]" if self.is_array else "")


# --- expressions ------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class Var(Expr):
    name: str = ""
    token: int = -1  # token index of the identifier


@dataclass
class Literal(Expr):
    kind: str = ""  # int | bool | string


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Call(Expr):
    func: str = ""
    args: List[Expr] = field(default_factory=list)


# --- statements -------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class Decl(Stmt):
    type: TypeRef = None
    name: str = ""
    name_token: int = -1
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: Expr = None   # Var or Index
    op: str = "="         # "=", "+=", "-="
    value: Expr = None


@dataclass
class IncDec(Stmt):
    target: Var = None
    op: str = ""  # "++" or "--"


@dataclass
class If(Stmt):
    cond: Expr = None
    then: "Stmt" = None
    orelse: Optional["Stmt"] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: "Stmt" = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None  # Decl or Assign, no trailing ';' span issues
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None  # Assign or IncDec
    body: "Stmt" = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


# --- top level --------------------------------------------------------------

@dataclass
class Param(Node):
    type: TypeRef = None
    name: str = ""
    name_token: int = -1


@dataclass
class TypeDecl(Node):
    name: str = ""
    supers: List[str] = field(default_factory=list)


@dataclass
class ExternFn(Node):
    name: str = ""
    param_types: List[TypeRef] = field(default_factory=list)
    return_type: TypeRef = None


@dataclass
class FunctionDef(Node):
    return_type: TypeRef = None
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = None


@dataclass
class Program:
    type_decls: List[TypeDecl] = field(default_factory=list)
    extern_fns: List[ExternFn] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)


def walk_statements(stmt: Stmt):
    """Yield stmt and all statements nested under it, preorder."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.statements:
            yield from walk_statements(s)
    elif isinstance(stmt, If):
        yield from walk_statements(stmt.then)
        if stmt.orelse is not None:
            yield from walk_statements(stmt.orelse)
    elif isinstance(stmt, While):
        yield from walk_statements(stmt.body)
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield from walk_statements(stmt.init)
        if stmt.step is not None:
            yield from walk_statements(stmt.step)
        yield from walk_statements(stmt.body)


def walk_exprs(e: Expr):
    """Yield e and all subexpressions, preorder."""
    yield e
    if isinstance(e, Unary):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Binary):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, Index):
        yield from walk_exprs(e.base)
        yield from walk_exprs(e.index)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)


def stmt_exprs(stmt: Stmt):
    """Yield the expressions directly owned by stmt (not nested statements)."""
    if isinstance(stmt, Decl) and stmt.init is not None:
        yield stmt.init
    elif isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, IncDec):
        yield stmt.target
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, For) and stmt.cond is not None:
        yield stmt.cond  # init and step are statements of their own
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
