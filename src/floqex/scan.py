"""Tabular scan results and their CSV/JSON serialization.

Floats are written with ``repr`` (shortest round-trip form), so parsing the
emitted CSV recovers every value bit-exactly and identical runs produce
byte-identical files. JSON has no NaN or infinity (RFC 8259), so the JSON
files write non-finite values as ``null``; the CSV keeps ``nan``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _scalar(x):
    """A table value as a Python ``int`` (bools and integers) or ``float``."""
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return int(x)
    return float(x)


def format_number(x) -> str:
    """Shortest decimal form that round-trips the value."""
    return repr(_scalar(x))


def _scalars(col) -> list:
    """The values of a float, integer or bool column as :func:`_scalar` gives them."""
    col = np.asarray(col)
    return (col.astype(int) if col.dtype == bool else col).tolist()


# JSON has no NaN or infinity: the formatted non-finite floats become null.
_NULL = {"nan": "null", "inf": "null", "-inf": "null"}


def _json_list(values, depth: int) -> str:
    """A list of JSON values as ``json.dumps`` writes it at indent 1, nested ``depth`` deep."""
    if not values:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(values) + "\n" + " " * depth + "]"


@dataclass
class ScanResult:
    """One named axis plus equal-length named columns, with a reproducibility echo."""

    axis_name: str
    axis: np.ndarray
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.axis)
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(
                    f"column {name!r} has length {len(col)}, axis has {n}"
                )

    @classmethod
    def from_rows(cls, axis_name: str, names, rows, metadata=None) -> "ScanResult":
        """Table from rows (axis value, then one value per column of ``names``)."""
        axis, *columns = (np.array(col) for col in zip(*rows))
        return cls(axis_name=axis_name, axis=axis, columns=dict(zip(names, columns)),
                   metadata={} if metadata is None else metadata)

    def column_names(self):
        return [self.axis_name, *self.columns.keys()]

    def to_csv(self) -> str:
        return self._csv(self._formatted())

    def to_json(self) -> str:
        return self._json(self._formatted())

    def _formatted(self) -> list:
        """Each column, the axis first, as the ``repr`` of its values (:func:`format_number`)."""
        return [list(map(repr, _scalars(col))) for col in (self.axis, *self.columns.values())]

    def _csv(self, formatted) -> str:
        lines = [",".join(self.column_names())]
        lines.extend(map(",".join, zip(*formatted)))
        return "\n".join(lines) + "\n"

    def _json(self, formatted) -> str:
        """``json.dumps`` of {axis_name, axis, columns} at indent 1, non-finite values
        as ``null``, joined from the formatted values."""
        axis, *columns = ([_NULL.get(text, text) for text in col] for col in formatted)
        items = [f'"axis_name": {json.dumps(self.axis_name)}', f'"axis": {_json_list(axis, 1)}']
        if columns:
            entries = ",\n  ".join(f"{json.dumps(name)}: {_json_list(col, 2)}"
                                   for name, col in zip(self.columns, columns))
            items.append(f'"columns": {{\n  {entries}\n }}')
        else:
            items.append('"columns": {}')
        return "{\n " + ",\n ".join(items) + "\n}"

    def write(self, out_dir, name: str) -> list:
        """Write <name>.csv, <name>.json, and <name>.meta.json; returns the paths.

        Each value is formatted once, for both tables."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        formatted = self._formatted()
        paths = []
        csv_path = out / f"{name}.csv"
        csv_path.write_text(self._csv(formatted))
        paths.append(csv_path)
        json_path = out / f"{name}.json"
        json_path.write_text(self._json(formatted))
        paths.append(json_path)
        meta_path = out / f"{name}.meta.json"
        meta_path.write_text(json.dumps(_finite_or_null(self.metadata), indent=1,
                                        sort_keys=True, allow_nan=False))
        paths.append(meta_path)
        return paths


def _finite_or_null(x):
    """``x`` with every non-finite float, also inside dicts and lists, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _finite_or_null(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(value) for value in x]
    return x


def parse_csv(text: str):
    """Inverse of :meth:`ScanResult.to_csv`: header list plus float columns."""
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data
