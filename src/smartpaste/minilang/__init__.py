"""MiniLang: a small statically typed language with a nominal type lattice."""

from . import ast
from .checker import (CheckError, LatticeCycleError, NameResolutionError,
                      RedeclError, Symbol, TypeCheckError, TypeLattice,
                      TypedProgram, UNK_TYPE, check, supertype_closure,
                      vars_in_scope)
from .lexer import LexError, Token, reconstruct, tokenize
from .parser import ParseError, parse

__all__ = [
    "ast", "CheckError", "LatticeCycleError", "NameResolutionError",
    "RedeclError", "Symbol", "TypeCheckError", "TypeLattice", "TypedProgram",
    "UNK_TYPE", "check", "supertype_closure", "vars_in_scope", "LexError",
    "Token", "reconstruct", "tokenize", "ParseError", "parse",
]


def compile_source(source: str, file_id: str = "<memory>") -> TypedProgram:
    """tokenize + parse + check in one call."""
    tokens = tokenize(source)
    program = parse(tokens)
    return check(program, tokens, file_id=file_id)
