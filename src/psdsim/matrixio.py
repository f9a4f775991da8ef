"""Plain-text matrix file format used by the CLI.

Header line: ``psdm <field> <rows> [<cols>]`` with field in {real, complex};
cols defaults to rows (square matrices). Body: one row per line; complex
entries are written as interleaved real/imaginary decimal pairs, so a
complex row has 2*cols numbers. Blocks in multi-matrix streams are
separated by a blank line.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError

MAGIC = "psdm"


def format_matrix(M) -> str:
    """One matrix block; the field tag is complex iff M has a complex dtype."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ParseError("can only serialize 2-d arrays")
    field = "complex" if np.iscomplexobj(M) else "real"
    rows, cols = M.shape
    head = f"{MAGIC} {field} {rows}" + ("" if rows == cols else f" {cols}")
    lines = [head]
    for i in range(rows):
        if field == "complex":
            vals = []
            for z in M[i]:
                z = complex(z)
                vals.extend((z.real, z.imag))
        else:
            vals = [float(v) for v in M[i]]
        lines.append(" ".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str):
    """Parse one matrix block; returns (array, field)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix block")
    head = lines[0].split()
    if len(head) not in (3, 4) or head[0] != MAGIC:
        raise ParseError(f"bad header line {lines[0]!r}")
    field = head[1]
    if field not in ("real", "complex"):
        raise ParseError(f"unknown field tag {field!r}")
    try:
        rows = int(head[2])
        cols = int(head[3]) if len(head) == 4 else rows
    except ValueError:
        raise ParseError(f"bad dimensions in header {lines[0]!r}")
    if rows <= 0 or cols <= 0:
        raise ParseError("matrix dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} data rows, found {len(lines) - 1}")
    per_row = 2 * cols if field == "complex" else cols
    data = []
    for ln in lines[1:]:
        try:
            vals = [float(v) for v in ln.split()]
        except ValueError:
            raise ParseError(f"non-numeric entry in row {ln!r}")
        if len(vals) != per_row:
            raise ParseError(f"expected {per_row} values per row, found {len(vals)}")
        data.append(vals)
    arr = np.array(data, dtype=float)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ParseError(f"non-finite entry in row {lines[1 + int(np.argmin(finite))]!r}")
    if field == "complex":
        arr = arr[:, 0::2] + 1j * arr[:, 1::2]
    return arr, field


def parse_matrix_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    try:
        return parse_matrix_text(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}")
