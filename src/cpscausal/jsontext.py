"""The one layout of every JSON artifact the CLI writes, and the text
helpers that its file readers share.

:func:`json_text` lays a value out as ``json.dumps(obj, indent=2)`` does,
except that :class:`Rows`, such as a dataset's records, get one row per
line, as the dataset file's writer writes them. Standard library and the
package's errors only.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable

from .errors import ParseError

# JSON can escape a lone surrogate into a string, which no UTF-8 output can write
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def refuse_lone_surrogate(field: str, *texts: str) -> None:
    """Raise :class:`ParseError` naming ``field`` and the first of ``texts`` that holds a lone surrogate."""
    for text in texts:
        if _SURROGATE_RE.search(text):
            raise ParseError(f"{field} {json.dumps(text)} holds a lone surrogate")


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, split at ``\\r\\n``, ``\\r`` and ``\\n`` only;
    ``str.splitlines`` also splits at form feeds, U+0085, U+2028 and other
    characters that may sit in a comment."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class Rows:
    """Rows of integers, which :func:`json_text` writes one per line:
    ``chunks(sep)`` gives them as compact JSON lists joined by ``sep``, in
    pieces."""

    def __init__(self, chunks: Callable[[bytes], Iterable[bytes]]):
        self.chunks = chunks


def json_text(obj, newline: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` lays it out, for a value that
    starts a line after ``newline``, except that :class:`Rows` get one row
    per line."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(str(key))}: {json_text(value, inner)}" for key, value in obj.items()) + newline + "}"
    if isinstance(obj, list) and obj:
        return "[" + inner + ("," + inner).join(json_text(value, inner) for value in obj) + newline + "]"
    if isinstance(obj, Rows):
        return "[" + inner + b"".join(obj.chunks(("," + inner).encode())).decode() + newline + "]"
    return json.dumps(obj)
