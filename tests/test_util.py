"""Shared utilities: text lexing (repro.util)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.text import parse_proc_range, parse_scalar, strip_comment, tokenize_line


class TestStripComment:
    def test_bang_comment(self):
        assert strip_comment("atmosphere 0 15   ! overlap with atm") == "atmosphere 0 15"

    def test_hash_comment(self):
        assert strip_comment("ocean # python style") == "ocean"

    def test_earliest_comment_char_wins(self):
        assert strip_comment("a # b ! c") == "a"
        assert strip_comment("a ! b # c") == "a"

    def test_no_comment(self):
        assert strip_comment("plain line") == "plain line"

    def test_comment_only_line(self):
        assert strip_comment("! all comment") == ""

    def test_trailing_whitespace_removed(self):
        assert strip_comment("token   ") == "token"


class TestTokenize:
    def test_fields(self):
        assert tokenize_line("Ocean1 0 15 infl alpha=3") == ["Ocean1", "0", "15", "infl", "alpha=3"]

    def test_blank_and_comment_lines_empty(self):
        assert tokenize_line("") == []
        assert tokenize_line("   ") == []
        assert tokenize_line("! note") == []

    def test_comment_mid_line(self):
        assert tokenize_line("coupler ! single") == ["coupler"]


class TestParseScalar:
    def test_int(self):
        assert parse_scalar("3") == 3 and isinstance(parse_scalar("3"), int)

    def test_float(self):
        assert parse_scalar("4.5") == 4.5

    def test_string(self):
        assert parse_scalar("finite_volume") == "finite_volume"

    def test_negative(self):
        assert parse_scalar("-7") == -7

    @given(st.integers(-10**9, 10**9))
    def test_int_roundtrip(self, n):
        assert parse_scalar(str(n)) == n


class TestParseProcRange:
    def test_basic(self):
        assert parse_proc_range(["16", "31"]) == (16, 31)

    def test_single_proc(self):
        assert parse_proc_range(["4", "4"]) == (4, 4)

    def test_missing_token(self):
        with pytest.raises(ValueError, match="low high"):
            parse_proc_range(["5"])

    def test_noninteger(self):
        with pytest.raises(ValueError, match="integers"):
            parse_proc_range(["a", "b"])

    def test_inverted(self):
        with pytest.raises(ValueError, match="invalid"):
            parse_proc_range(["5", "2"])

    def test_negative(self):
        with pytest.raises(ValueError, match="invalid"):
            parse_proc_range(["-1", "2"])
