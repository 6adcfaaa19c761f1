"""Small shared utilities: text parsing helpers."""

from repro.util.text import strip_comment, tokenize_line, parse_scalar

__all__ = [
    "strip_comment",
    "tokenize_line",
    "parse_scalar",
]
