"""Recursive-descent parser for MiniLang."""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .lexer import Token


class ParseError(Exception):
    def __init__(self, message: str, token_index: int):
        super().__init__(message)
        self.token_index = token_index


TYPE_KEYWORDS = {"int", "bool", "string"}

BINARY_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def at_kind(self, kind: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.kind == kind

    def advance(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.tokens))
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            raise ParseError(
                f"expected {text!r}, found {t.text if t else 'end of input'!r}",
                self.pos)
        return self.advance()

    def expect_identifier(self) -> Token:
        t = self.peek()
        if t is None or t.kind != "identifier":
            raise ParseError(
                f"expected identifier, found {t.text if t else 'end of input'!r}",
                self.pos)
        return self.advance()

    def parenthesized(self, item) -> list:
        """`( )` around zero or more comma-separated `item()`s."""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.advance()
                items.append(item())
        self.expect(")")
        return items

    # -- grammar --

    def parse_program(self) -> ast.Program:
        prog = ast.Program()
        while self.peek() is not None:
            if self.at("type"):
                prog.type_decls.append(self.parse_type_decl())
            elif self.at("extern"):
                prog.extern_fns.append(self.parse_extern_fn())
            else:
                prog.functions.append(self.parse_function())
        return prog

    def parse_type_decl(self) -> ast.TypeDecl:
        start = self.pos
        self.expect("type")
        name = self.expect_identifier().text
        supers = []
        if self.at("implements"):
            self.advance()
            supers.append(self.expect_identifier().text)
            while self.at(","):
                self.advance()
                supers.append(self.expect_identifier().text)
        self.expect(";")
        return ast.TypeDecl(span=(start, self.pos - 1), name=name, supers=supers)

    def parse_extern_fn(self) -> ast.ExternFn:
        start = self.pos
        self.expect("extern")
        self.expect("fn")
        name = self.expect_identifier().text
        param_types = self.parenthesized(self.parse_type_ref)
        self.expect("->")
        ret = self.parse_type_ref()
        self.expect(";")
        return ast.ExternFn(span=(start, self.pos - 1), name=name,
                            param_types=param_types, return_type=ret)

    def parse_type_ref(self) -> ast.TypeRef:
        start = self.pos
        t = self.peek()
        if t is None or (t.kind != "identifier" and t.text not in TYPE_KEYWORDS):
            raise ParseError("expected a type name", self.pos)
        self.advance()
        is_array = False
        if self.at("[") and self.at("]", 1):
            self.advance()
            self.advance()
            is_array = True
        return ast.TypeRef(span=(start, self.pos - 1), name=t.text, is_array=is_array)

    def parse_function(self) -> ast.FunctionDef:
        start = self.pos
        ret = self.parse_type_ref()
        name = self.expect_identifier().text
        params = self.parenthesized(self.parse_param)
        body = self.parse_block()
        return ast.FunctionDef(span=(start, self.pos - 1), return_type=ret,
                               name=name, params=params, body=body)

    def parse_param(self) -> ast.Param:
        start = self.pos
        ty = self.parse_type_ref()
        nt = self.expect_identifier()
        return ast.Param(span=(start, self.pos - 1), type=ty, name=nt.text,
                         name_token=nt.index)

    def parse_block(self) -> ast.Block:
        start = self.pos
        self.expect("{")
        stmts = []
        while not self.at("}"):
            if self.peek() is None:
                raise ParseError("unterminated block", self.pos)
            stmts.append(self.parse_statement())
        self.expect("}")
        return ast.Block(span=(start, self.pos - 1), statements=stmts)

    def starts_type(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.text in TYPE_KEYWORDS:
            return True
        # nominal declaration: `Name ident ...` — identifier followed by identifier
        return t.kind == "identifier" and self.at_kind("identifier", 1)

    def parse_statement(self) -> ast.Stmt:
        start = self.pos
        if self.at("{"):
            return self.parse_block()
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_statement()
            orelse = None
            if self.at("else"):
                self.advance()
                orelse = self.parse_statement()
            return ast.If(span=(start, self.pos - 1), cond=cond, then=then,
                          orelse=orelse)
        if self.at("while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_statement()
            return ast.While(span=(start, self.pos - 1), cond=cond, body=body)
        if self.at("for"):
            self.advance()
            self.expect("(")
            init = None
            if not self.at(";"):
                init = self.parse_simple_statement()
            self.expect(";")
            cond = None
            if not self.at(";"):
                cond = self.parse_expr()
            self.expect(";")
            step = None
            if not self.at(")"):
                step = self.parse_simple_statement()
            self.expect(")")
            body = self.parse_statement()
            return ast.For(span=(start, self.pos - 1), init=init, cond=cond,
                           step=step, body=body)
        if self.at("return"):
            self.advance()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            return ast.Return(span=(start, self.pos - 1), value=value)
        stmt = self.parse_simple_statement()
        self.expect(";")
        stmt.span = (start, self.pos - 1)
        return stmt

    def parse_simple_statement(self) -> ast.Stmt:
        """Declaration, assignment, compound assignment, inc/dec, or
        expression statement, without the `;` that ends it."""
        start = self.pos
        if self.starts_type():
            ty = self.parse_type_ref()
            nt = self.expect_identifier()
            init = None
            if self.at("="):
                self.advance()
                init = self.parse_expr()
            return ast.Decl(span=(start, self.pos - 1), type=ty, name=nt.text,
                            name_token=nt.index, init=init)
        target = self.parse_expr()
        if self.at("++") or self.at("--"):
            op = self.advance().text
            if not isinstance(target, ast.Var):
                raise ParseError(f"{op} target must be a variable", self.pos - 1)
            return ast.IncDec(span=(start, self.pos - 1), target=target, op=op)
        if self.at("=") or self.at("+=") or self.at("-="):
            op = self.advance().text
            if not isinstance(target, (ast.Var, ast.Index)):
                raise ParseError("assignment target must be a variable or index",
                                 self.pos - 1)
            value = self.parse_expr()
            return ast.Assign(span=(start, self.pos - 1), target=target, op=op,
                              value=value)
        return ast.ExprStmt(span=(start, self.pos - 1), expr=target)

    # -- expressions --

    def parse_expr(self, level: int = 0) -> ast.Expr:
        if level >= len(BINARY_PRECEDENCE):
            return self.parse_unary()
        start = self.pos
        left = self.parse_expr(level + 1)
        while True:
            t = self.peek()
            if t is None or t.text not in BINARY_PRECEDENCE[level]:
                return left
            op = self.advance().text
            right = self.parse_expr(level + 1)
            left = ast.Binary(span=(start, self.pos - 1), op=op, left=left,
                              right=right)

    def parse_unary(self) -> ast.Expr:
        start = self.pos
        if self.at("!") or self.at("-"):
            op = self.advance().text
            operand = self.parse_unary()
            return ast.Unary(span=(start, self.pos - 1), op=op, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        start = self.pos
        e = self.parse_primary()
        while self.at("["):
            self.advance()
            idx = self.parse_expr()
            self.expect("]")
            e = ast.Index(span=(start, self.pos - 1), base=e, index=idx)
        return e

    def parse_primary(self) -> ast.Expr:
        start = self.pos
        t = self.peek()
        if t is None:
            raise ParseError("expected expression", self.pos)
        if t.kind.endswith("-literal"):
            self.advance()
            return ast.Literal(span=(start, start),
                               kind=t.kind.removesuffix("-literal"))
        if t.text == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            e.span = (start, self.pos - 1)
            return e
        if t.kind == "identifier":
            self.advance()
            if self.at("("):
                args = self.parenthesized(self.parse_expr)
                return ast.Call(span=(start, self.pos - 1), func=t.text,
                                args=args)
            return ast.Var(span=(start, start), name=t.text, token=t.index)
        raise ParseError(f"expected expression, found {t.text!r}", self.pos)


def parse(tokens: List[Token]) -> ast.Program:
    return Parser(tokens).parse_program()
