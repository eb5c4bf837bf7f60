"""Shared output helpers: CSV text with 17-significant-digit floats, JSON text, atomic writes."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# `_cell` for the exact types the package's tables hold, by one lookup; an
# instance of any other type, a subclass included, goes through `_cell`'s checks
_CELL_OF_TYPE = {float: "%.17g".__mod__, np.float64: "%.17g".__mod__, int: str, bool: str,
                 str: str}


def csv_text(header, rows, comment: str | None = None) -> str:
    """Render a CSV document with LF line endings.

    Floats are written at 17 significant digits so that reading them back
    reproduces the exact double.  `comment` becomes a single leading line
    starting with '#'.  Each cell is formatted by `_CELL_OF_TYPE`'s entry for
    its exact type, or by `_cell` for any other type, with the same text.
    """
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(str(h) for h in header))
    cell_of_type = _CELL_OF_TYPE.get
    for row in rows:
        lines.append(",".join([cell_of_type(type(c), _cell)(c) for c in row]))
    return "\n".join(lines) + "\n"


def _finite(value):
    """`value` with each non-finite float, in any dict, list or tuple, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def json_text(doc) -> str:
    """Canonical JSON rendering: sorted keys, fixed separators, LF-terminated.

    JSON has no inf or NaN, so a non-finite float is written as null; only a
    document that holds one is walked by `_finite` and rendered again.
    """
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write a file via a same-directory temp file and rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
