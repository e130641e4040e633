"""Deterministic CSV/JSON report writers.

``cli.run`` writes every report through these two functions: a command's
table to ``NAME.csv``, its body to ``NAME.json`` and the run metadata to the
``NAME.runinfo.json`` sidecar.  CSV values are floats rendered with repr
(shortest round-trip), JSON keys are sorted, and nothing time-dependent
enters the report bodies, so identical inputs produce byte-identical files;
timestamps go to the sidecar only.

JSON bodies are compact, on one line with sorted keys: without an indent,
``json.dumps`` runs its C encoder.  ``python -m json.tool --sort-keys
--indent 2`` restores the indented layout.
"""

import json
from pathlib import Path

__all__ = ["write_csv", "write_json"]


def write_csv(path, columns, rows):
    """The header row of columns, then one line of float reprs per row."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")
