"""A hand-written lexer for the SQL subset.

Keywords and identifiers are case-insensitive and normalized to upper case;
string literals (single-quoted, with ``''`` as the escape for a quote)
preserve their exact contents.

Every INTEGER, FLOAT and STRING literal token gets a *parameter slot*,
numbered in text order, except the pattern string after ``LIKE`` (the
grammar takes the pattern as part of the predicate, not as a value).  A
statement's *shape* is its token sequence with each slotted literal
replaced by its token type; :func:`lex_statement` returns the shape with
the literal values by slot, which is what the statement cache keys on.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from ..errors import LexerError


class TokenType(enum.Enum):
    """Kinds of lexical tokens."""
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


KEYWORDS = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "ORDER", "BY",
        "ASC", "DESC", "AND", "OR", "NOT", "BETWEEN", "IN", "IS", "NULL",
        "LIKE", "AS", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
        "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE", "CLUSTER",
        "ON", "INTEGER", "INT", "FLOAT", "VARCHAR", "STATISTICS", "HAVING",
        "SEGMENT",
    }
)

_SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "+", "-", "*", "/")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset."""
    type: TokenType
    value: object
    position: int
    #: Parameter slot of a literal token (None for every other token and
    #: for a LIKE pattern).
    slot: int | None = field(default=None, compare=False)

    def matches_keyword(self, keyword: str) -> bool:
        """True when this token is the given keyword."""
        return self.type is TokenType.KEYWORD and self.value == keyword

    def matches_symbol(self, symbol: str) -> bool:
        """True when this token is the given symbol."""
        return self.type is TokenType.SYMBOL and self.value == symbol

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "<end of input>"
        return repr(self.value)


#: Whitespace (``str.isspace``) and ``--`` comments up to the end of line.
_SKIP = re.compile(r"(?:\s+|--[^\n]*\n?)+")
#: A word's characters after its first (``str.isalnum`` or ``_``).
_WORD = re.compile(r"\w*")
#: A string literal; ``''`` inside it is an escaped quote.  The closing
#: quote may not start another ``''``, so backtracking cannot end the
#: literal inside an escape: ``'ab''`` is unterminated.
_STRING = re.compile(r"'((?:[^']|'')*)'(?!')")
#: The digit-and-dot run of a number (checked for stray dots after).
_NUMBER = re.compile(r"[\d.]*")
_SYMBOL = re.compile("|".join(re.escape(symbol) for symbol in _SYMBOLS))


class Lexer:  # concurrency: statement-scoped
    """Tokenizer over SQL text."""

    def __init__(self, text: str):
        self._text = text

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, ending with EOF."""
        text = self._text
        end = len(text)
        position = 0
        slot = 0
        after_like = False
        result: list[Token] = []
        while True:
            position = _match_end(_SKIP, text, position)
            if position >= end:
                result.append(Token(TokenType.EOF, None, position))
                return result
            char = text[position]
            if char.isalpha() or char == "_":
                stop = _match_end(_WORD, text, position + 1)
                word = text[position:stop].upper()
                kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
                result.append(Token(kind, word, position))
                after_like = word == "LIKE"
                position = stop
                continue
            if char == "'":
                matched = _STRING.match(text, position)
                if matched is None:
                    raise LexerError("unterminated string literal", position)
                value = matched.group(1).replace("''", "'")
                if after_like:
                    # A LIKE pattern is part of the predicate, not a value.
                    result.append(Token(TokenType.STRING, value, position))
                else:
                    result.append(Token(TokenType.STRING, value, position, slot))
                    slot += 1
                position = matched.end()
            elif char.isdigit() or (
                char == "." and position + 1 < end and text[position + 1].isdigit()
            ):
                token, position = _number(text, position, slot)
                result.append(token)
                slot += 1
            else:
                matched = _SYMBOL.match(text, position)
                if matched is None:
                    raise LexerError(f"unexpected character {char!r}", position)
                symbol = matched.group()
                value = "<>" if symbol == "!=" else symbol
                result.append(Token(TokenType.SYMBOL, value, position))
                position = matched.end()
            after_like = False


def _match_end(pattern: re.Pattern[str], text: str, position: int) -> int:
    """Where ``pattern`` matched at ``position`` ends (``position`` if not)."""
    matched = pattern.match(text, position)
    return position if matched is None else matched.end()


def _number(text: str, start: int, slot: int) -> tuple[Token, int]:
    """The number token at ``start`` and the position after it."""
    literal = text[start : _match_end(_NUMBER, text, start)]
    # ``EMP.DNO`` must not swallow the dot after a digitless run, and
    # ``1.2.3`` is malformed.
    if literal.count(".") > 1:
        raise LexerError("malformed number", start)
    if literal.endswith("."):
        # Trailing dot belongs to a qualified name, not the number.
        literal = literal[:-1]
    if not literal:
        raise LexerError("malformed number", start)
    stop = start + len(literal)
    if "." in literal:
        return Token(TokenType.FLOAT, float(literal), start, slot), stop
    return Token(TokenType.INTEGER, int(literal), start, slot), stop


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, including the trailing EOF token."""
    return Lexer(text).tokens()


@dataclass(frozen=True)
class LexedStatement:
    """One statement's tokens, its shape, and its literal values by slot."""

    tokens: list[Token]
    #: The token sequence without EOF: a keyword, identifier or symbol
    #: token stands for itself, a slotted literal for its token type, and
    #: a LIKE pattern for its type and text.
    shape: tuple
    #: Each slotted literal token's value, indexed by slot.
    values: tuple


def lex_statement(text: str) -> LexedStatement:
    """Lex a statement once, for both the cache lookup and the parser."""
    tokens = Lexer(text).tokens()
    shape: list[object] = []
    values: list[object] = []
    for token in tokens[:-1]:
        if token.slot is not None:
            shape.append(token.type)
            values.append(token.value)
        elif token.type is TokenType.STRING:
            shape.append((token.type, token.value))
        else:
            shape.append(token.value)
    return LexedStatement(tokens, tuple(shape), tuple(values))
