"""Deterministic renderers: canonical JSON, CSV, and LaTeX tables.

Reports must be byte-identical across runs for identical inputs: keys are
sorted, rationals are canonical "p/q" strings, and nothing time- or
path-dependent is ever embedded.

`dump_json` writes exactly the bytes of `json.dumps(obj, sort_keys=True,
indent=2)` plus a newline.  Given an indent, `json.dumps` leaves its C
encoder for the pure-Python generators of `json.encoder._make_iterencode`;
`dump_json` instead walks the document once, encodes every string with
`json.encoder.encode_basestring_ascii`, the C function `json.dumps` itself
uses, and joins one list of pieces.
"""

from __future__ import annotations

import csv
import io
import json

JSON = "json"
CSV = "csv"
LATEX = "latex"
FORMATS = (JSON, CSV, LATEX)


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(obj) -> str:
    """obj as indented JSON with sorted keys, and a final newline.

    obj holds dicts with str keys, lists, tuples, str, int, bool and None;
    anything else, a non-str key included, raises TypeError.
    """
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, pad: str, out: list):
    # pad is the newline and indent of the line obj starts on; str and int
    # items are written in the container's loop, without a recursive call
    # per leaf (type(v) is int leaves bool, whose repr is not JSON, to the call)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            out.append(sep + _encode_str(key) + ": ")
            if isinstance(value, str):
                out.append(_encode_str(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            else:
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            if isinstance(value, str):
                out.append(_encode_str(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            else:
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def dump_latex_table(headers, rows, align: str | None = None) -> str:
    """A tabular in the usual recurrence-table layout: header row, rule, body."""
    if align is None:
        align = "r|" + "r" * (len(headers) - 1)
    lines = [f"\\begin{{tabular}}{{{align}}}"]
    lines.append(" & ".join(headers) + r" \\")
    lines.append("\\hline")
    for row in rows:
        lines.append(" & ".join(str(c) for c in row) + r" \\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"
