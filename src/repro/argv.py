"""Command-line tokenizing shared by every string front door.

The vsys request line and the ``ip``/``iptables`` commands the back-end
runs are literal strings, tokenized as a POSIX shell would
(:func:`shlex.split`).  Almost every such line is *plain*: printable
ASCII words separated by spaces, with no quoting or escaping.  For a
plain line, ``str.split`` yields exactly the tokens ``shlex.split``
yields, at a small fraction of the cost, so :func:`split` takes that
path and hands every other line to ``shlex.split`` unchanged.
"""

from __future__ import annotations

import re
import shlex
from typing import List

# Printable ASCII plus the three whitespace characters shlex splits on
# besides space, minus the POSIX quote and escape characters.  Other
# characters ``str.split`` treats as whitespace (``\x0b``, ``\x1c``,
# ``\xa0``...) are word characters to shlex, so they are excluded too.
_PLAIN = re.compile(r"[\t\n\r !#-&(-\[\]-~]*")


def split(line: str) -> List[str]:
    """Tokenize ``line`` exactly as ``shlex.split(line)`` does.

    Raises ``ValueError`` where ``shlex.split`` does (an unbalanced
    quote or a trailing escape).
    """
    if _PLAIN.fullmatch(line):
        return line.split()
    return shlex.split(line)
