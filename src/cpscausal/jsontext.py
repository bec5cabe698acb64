"""The one layout of every JSON artifact the CLI writes, and the text
helpers that its file readers share.

:func:`json_text` lays a value out as ``json.dumps(obj, indent=2)`` does,
except that a 2-D integer array, such as a dataset's records, gets one row
per line. Standard library and the package's errors only: an array can
only exist once numpy is loaded, so a value that holds none is written
without importing it, and the rows of one that does are written by
:func:`ingest.records_json`, through the dataset file's writer. The
readers of net, attack and domain-graph files use these helpers without
loading numpy.
"""

from __future__ import annotations

import json
import re
import sys

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


def json_text(obj, newline: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` lays it out, for a value that
    starts a line after ``newline``, except that a 2-D integer array, such as
    a dataset's records, gets one row per line."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(str(key))}: {json_text(value, inner)}" for key, value in obj.items()) + newline + "}"
    if isinstance(obj, list) and obj:
        return "[" + inner + ("," + inner).join(json_text(value, inner) for value in obj) + newline + "]"
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray) and len(obj):
        from .ingest import records_json

        return "[" + inner + records_json(obj, ("," + inner).encode()).decode() + newline + "]"
    return json.dumps(obj)
