"""The shared command tokenizer against its reference, ``shlex.split``."""

import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.argv import split

# Every character class the fast path must get right: the ones that end
# a plain line (quotes, escape, non-ASCII), the ones ``str.split`` would
# split on but shlex keeps inside a word (\x0b, \x0c, \x1c-\x1f, \x85,
# \xa0), ``#`` (comments are off), and ordinary command text.
_ALPHABET = list("\"'\\# \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0éßЖ漢-./:=!0aZ")

lines = st.text(alphabet=st.sampled_from(_ALPHABET) | st.characters(), max_size=40)


def _outcome(tokenize, line):
    try:
        return "ok", tokenize(line)
    except ValueError as exc:
        return type(exc), str(exc)


@given(lines)
@settings(max_examples=600)
def test_split_matches_shlex(line):
    assert _outcome(split, line) == _outcome(shlex.split, line)


@given(st.lists(st.text(), max_size=6))
@settings(max_examples=200)
def test_quoted_argv_round_trips(argv):
    # How a vsys request line is built (VsysConnection.call) and parsed.
    assert split(" ".join(shlex.quote(arg) for arg in argv)) == argv


@pytest.mark.parametrize(
    "line",
    [
        "-t mangle -A OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 0x1",
        "  route add default\tdev ppp0 table umts\r\n",
        "add 1.2.3.4 # not a comment",
        "",
    ],
)
def test_plain_lines_split_on_whitespace(line):
    assert split(line) == line.split() == shlex.split(line)


@pytest.mark.parametrize("line", ["add 'unbalanced", 'add "unbalanced', "trailing \\"])
def test_malformed_lines_raise_like_shlex(line):
    with pytest.raises(ValueError):
        split(line)
