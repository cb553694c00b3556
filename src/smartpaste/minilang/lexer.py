"""Tokenizer for MiniLang source files (.ml0)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

KEYWORDS = {
    "int", "bool", "string", "true", "false", "if", "else", "while", "for",
    "return", "type", "implements", "extern", "fn",
}

# Longest-match first.
OPERATORS = [
    "+=", "-=", "++", "--", "<=", ">=", "==", "!=", "&&", "||", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
]

PUNCTUATION = {"(", ")", "{", "}", "[", "]", ";", ",", ":"}


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


@dataclass(slots=True)
class Token:
    """One lexeme.  `leading` holds the whitespace/comments preceding it so
    that concatenating leading+text over all tokens, plus the last token's
    `trailing`, reproduces the source.  Slotted: a program keeps one per
    lexeme for as long as it lives."""

    index: int
    text: str
    kind: str  # keyword | identifier | int-literal | string-literal | bool-literal | operator | punctuation
    line: int
    column: int
    leading: str = ""
    symbol: Optional[int] = field(default=None, compare=False)
    is_def: bool = field(default=False, compare=False)
    trailing: str = field(default="", compare=False)

    def __repr__(self):
        return f"Token({self.index}, {self.text!r}, {self.kind})"


def tokenize(source: str) -> List[Token]:
    """Split source into tokens; raises LexError on characters outside the
    MiniLang alphabet.  Token indices are contiguous from 0."""
    tokens: List[Token] = []
    i = 0
    line, col = 1, 1
    n = len(source)
    pending = []  # leading trivia chars

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        # whitespace and // comments are trivia
        if ch in " \t\r\n":
            pending.append(ch)
            advance(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            j = i
            while j < n and source[j] != "\n":
                j += 1
            pending.append(source[i:j])
            advance(source[i:j])
            i = j
            continue

        start_line, start_col = line, col
        leading = "".join(pending)
        pending = []

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            if text in ("true", "false"):
                kind = "bool-literal"
            elif text in KEYWORDS:
                kind = "keyword"
            else:
                kind = "identifier"
        elif ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            text = source[i:j]
            kind = "int-literal"
        elif ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError("unterminated string literal", start_line, start_col)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", start_line, start_col)
            j += 1
            text = source[i:j]
            kind = "string-literal"
        elif ch in PUNCTUATION:
            text = ch
            kind = "punctuation"
        else:
            for op in OPERATORS:
                if source.startswith(op, i):
                    text = op
                    kind = "operator"
                    break
            else:
                raise LexError(f"illegal character {ch!r}", start_line, start_col)

        tokens.append(Token(index=len(tokens), text=text, kind=kind,
                            line=start_line, column=start_col, leading=leading))
        advance(text)
        i += len(text)

    if tokens:
        tokens[-1].trailing = "".join(pending)
    return tokens


def reconstruct(tokens: List[Token],
                names: Optional[Dict[int, str]] = None) -> str:
    """Inverse of tokenize; `names` (token index -> text) rewrites the
    tokens it maps, trivia kept."""
    names = names or {}
    parts = [t.leading + names.get(t.index, t.text) for t in tokens]
    if tokens:
        parts.append(tokens[-1].trailing)
    return "".join(parts)
