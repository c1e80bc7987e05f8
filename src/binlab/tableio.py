"""Tabular results: an in-memory table and deterministic CSV round-trip.

Floats are written with 9 significant digits, LF line endings, minimal
quoting — fixed input yields byte-identical files.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


def format_cell(v) -> str:
    if isinstance(v, float):  # first: most cells are floats, and no bool is one
        return f"{v:.9g}"
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


@dataclass
class Table:
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        self.headers = tuple(self.headers)
        if len(set(self.headers)) != len(self.headers):
            raise ValueError("duplicate column names")

    def append(self, row) -> None:
        row = tuple(row)
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns")
        self.rows.append(row)

    def column(self, name: str) -> list:
        try:
            i = self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}") from None
        return [r[i] for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def dumps_csv(table: Table) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(table.headers)
    w.writerows([format_cell(v) for v in row] for row in table.rows)
    return buf.getvalue()


def write_csv(table: Table, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dumps_csv(table))


def _parse_cell(s: str):
    if s == "":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def read_csv(path) -> Table:
    """Read a CSV written by write_csv; cells come back as int, float,
    str, or None for empties."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            headers = next(r)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        t = Table(headers=tuple(headers))
        for row in r:
            if len(row) != len(t.headers):
                raise ValueError(f"{path}: ragged row {row!r}")
            t.append(tuple(_parse_cell(c) for c in row))
    return t
