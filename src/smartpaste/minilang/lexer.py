"""Tokenizer for MiniLang source files (.ml0): one regular expression,
built from the operator and punctuation tables, matches each token with
the blanks and comments before it."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

KEYWORDS = {
    "int", "bool", "string", "true", "false", "if", "else", "while", "for",
    "return", "type", "implements", "extern", "fn",
}

# Longest-match first: the token pattern tries them in this order.
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


# One token and the trivia before it: blanks and // comments.  Group names
# are the token kinds, "_" for "-"; an identifier is also a keyword or a
# bool literal by its text.  `[^\W\d]` admits non-decimal numerals such as
# "²", which `tokenize` rejects as an identifier's first character.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]|//[^\n]*)*)"
    r"(?:(?P<identifier>[^\W\d]\w*)|(?P<int_literal>\d+)"
    r'|(?P<string_literal>"[^"\n]*")'
    r"|(?P<operator>" + "|".join(map(re.escape, OPERATORS)) + ")"
    r"|(?P<punctuation>[" + re.escape("".join(sorted(PUNCTUATION))) + "]))?")


def tokenize(source: str) -> List[Token]:
    """Split source into tokens, one `_TOKEN` match each; raises LexError on
    characters outside the MiniLang alphabet.  An identifier starts with a
    letter or "_" and goes on with letters, digits or "_"; an int literal
    is decimal digits.  A tab counts one column.  Token indices are
    contiguous from 0."""
    tokens: List[Token] = []
    pos, line, line_start = 0, 1, 0
    while True:
        m = _TOKEN.match(source, pos)
        leading, start = m.group(1), m.end(1)
        if "\n" in leading:
            line += leading.count("\n")
            line_start = source.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        kind, text = m.lastgroup, m.group(m.lastindex)
        if kind is None or (kind == "identifier"
                            and not (text[0].isalpha() or text[0] == "_")):
            if start == len(source):
                break
            ch = source[start]
            raise LexError("unterminated string literal" if ch == '"'
                           else f"illegal character {ch!r}", line, column)
        if text in KEYWORDS:
            kind = "bool-literal" if text in ("true", "false") else "keyword"
        tokens.append(Token(index=len(tokens), text=text,
                            kind=kind.replace("_", "-"), line=line,
                            column=column, leading=leading))
        pos = m.end()
    if tokens:
        tokens[-1].trailing = leading
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
