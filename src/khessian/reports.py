"""Deterministic CSV/JSON report writers.

Floats are rendered with repr (shortest round-trip), JSON keys are sorted,
and nothing time-dependent enters the report bodies, so identical inputs
produce byte-identical files.  Run metadata with timestamps goes to a
separate ``*.runinfo.json`` sidecar.

``write_json`` renders its object in one recursive pass, numpy scalars and
arrays included, to exactly the text of ``json.dumps(obj, indent=2,
sort_keys=True)`` (numpy values taken as the Python values they hold): an
indent makes ``json.dumps`` fall back to its pure-Python encoder, which is
slower than writing the same text here.  Plain scalars are looked up by
exact type, so a dict writes its scalar values without a recursive call,
and a list of plain floats, such as a sample's spectrum, is one join.
"""

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "profile_files",
    "radial_solution_files",
    "field_files",
]


def fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(x)
    return _NONFINITE_TEXT.get(text, text)


# text of the plain scalars, looked up by exact type: a subclass (numpy's
# float64 among them) takes the general path of _encode
_SCALAR_TEXT = {
    float: _float_text,
    bool: lambda x: "true" if x else "false",
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda x: "null",
}


def _encode_dict(obj, out, indent):
    if not obj:
        out.append("{}")
        return
    inner = indent + "  "
    sep = "{" + inner
    for key, value in sorted(obj.items()):
        if not isinstance(key, str):
            key = json.dumps(key)  # json's own text for an int, float, bool or None key
        head = sep + encode_basestring_ascii(key) + ": "
        text = _SCALAR_TEXT.get(type(value))
        if text is None:
            out.append(head)
            _encode(value, out, inner)
        else:
            out.append(head + text(value))
        sep = "," + inner
    out.append(indent + "}")


def _encode(obj, out, indent):
    """Append the JSON text of obj to the list out; indent is a newline plus obj's indent."""
    kind = type(obj)
    text = _SCALAR_TEXT.get(kind)
    if text is not None:
        out.append(text(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, out, indent)
    elif kind is list and obj and all(type(x) is float for x in obj):
        inner = indent + "  "
        out.append("[" + inner + ("," + inner).join(map(_float_text, obj)) + indent + "]")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj.tolist() if isinstance(obj, np.ndarray) else obj:
            out.append(sep)
            _encode(value, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    out = []
    _encode(obj, out, "\n")
    out.append("\n")
    Path(path).write_text("".join(out))


def profile_files(base, p, xi, rows):
    """Profile table: CSV (t, phi, phi_prime, M, predicted) + JSON header."""
    write_csv(f"{base}.csv", ["t", "phi", "phi_prime", "M", "predicted"], rows)
    write_json(f"{base}.json", {**p.header(), "xi": xi, "rows": len(rows)})


def radial_solution_files(base, sol):
    write_csv(f"{base}.csv", ["r", "u", "u1"], zip(sol.r, sol.u, sol.u1))
    write_json(f"{base}.json", {"Rstar": sol.Rstar, **sol.meta})


def field_files(base, fld, extra_meta=None):
    rows = zip(fld.node_x, fld.node_y, fld.node_d, fld.interior_values())
    write_csv(f"{base}.csv", ["x", "y", "d", "u"], rows)
    meta = dict(fld.meta)
    if extra_meta:
        meta.update(extra_meta)
    write_json(f"{base}.json", meta)
