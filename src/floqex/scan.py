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

    def rows(self):
        cols = [self.axis, *self.columns.values()]
        for i in range(len(self.axis)):
            yield [col[i] for col in cols]

    def to_csv(self) -> str:
        lines = [",".join(self.column_names())]
        for row in self.rows():
            lines.append(",".join(format_number(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "axis_name": self.axis_name,
            "axis": [_scalar(x) for x in self.axis],
            "columns": {
                name: [_scalar(x) for x in col] for name, col in self.columns.items()
            },
        }
        return json.dumps(_finite_or_null(payload), indent=1, allow_nan=False)

    def write(self, out_dir, name: str) -> list:
        """Write <name>.csv, <name>.json, and <name>.meta.json; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        csv_path = out / f"{name}.csv"
        csv_path.write_text(self.to_csv())
        paths.append(csv_path)
        json_path = out / f"{name}.json"
        json_path.write_text(self.to_json())
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
