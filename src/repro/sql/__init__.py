"""SQL front end: lexer, abstract syntax tree, and parser.

Covers the language surface the paper exercises: SELECT / FROM / WHERE with
boolean combinations of predicates (comparisons, BETWEEN, IN lists, LIKE,
IS NULL), GROUP BY / ORDER BY, aggregate functions, scalar and IN
subqueries including correlation references, plus the DDL and DML needed to
drive the system (CREATE TABLE / INDEX, INSERT, UPDATE, DELETE, and the
UPDATE STATISTICS command).
"""

from . import ast
from .lexer import LexedStatement, Lexer, Token, TokenType, lex_statement, tokenize
from .parser import Parser, parse_lexed, parse_statement, slot_values

__all__ = [
    "LexedStatement",
    "Lexer",
    "Parser",
    "Token",
    "TokenType",
    "ast",
    "lex_statement",
    "parse_lexed",
    "parse_statement",
    "slot_values",
    "tokenize",
]
