"""Deterministic CSV/JSON report writers.

Floats are rendered with repr (shortest round-trip), JSON keys are sorted,
and nothing time-dependent enters the report bodies, so identical inputs
produce byte-identical files.  Run metadata with timestamps goes to a
separate ``*.runinfo.json`` sidecar.

JSON bodies are compact, on one line with sorted keys: without an indent,
``json.dumps`` runs its C encoder.  ``python -m json.tool --sort-keys
--indent 2`` restores the indented layout.
"""

import json
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


def _plain(obj):
    """The Python value of a numpy scalar or array, for json.dumps."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, default=_plain) + "\n")


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
