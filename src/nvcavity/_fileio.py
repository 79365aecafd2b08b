"""The toolkit's one file layer: tables, plot files and JSON reports.

Every file the toolkit writes or reads goes through these helpers, so the
formats are decided here and nowhere else:

- numbers are written with 17 significant digits (``%.17g``), which read
  back as the same float;
- a table is a header line followed by one line per row, its values
  joined by a separator: CSV files use ``,``; gnuplot ``.dat`` files use a
  space, start with a ``#`` column line and separate blocks by blank lines;
- JSON reports are indented by 2 and end with a newline;
- every write is atomic (temp file plus rename), and a new file gets the
  permission bits a plain ``open(path, "w")`` would give.
"""

import contextlib
import json
import math
import os
import stat
import tempfile

from .errors import ValidationError


def _open_mode(path: str) -> int:
    """Permission bits ``open(path, "w")`` would leave: an existing file
    keeps its own, a new one gets 0o666 less the process umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # The umask can only be read by setting it; the toolkit writes
        # from one thread, so restoring it at once is safe.
        umask = os.umask(0o022)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file + rename.

    The temp file lives in the target directory so the final
    ``os.replace`` never crosses a filesystem boundary, and it is given
    the permission bits a plain ``open(path, "w")`` would give.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), _open_mode(path))
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_table(path, header: str, rows, sep: str = ",") -> None:
    """Write ``header``, then each row as ``%.17g`` values joined by ``sep``.

    A ``None`` row writes an empty line, which gnuplot reads as a block
    break.  The file is written atomically.
    """
    lines = [header]
    for row in rows:
        lines.append("" if row is None else sep.join(["%.17g"] * len(row)) % tuple(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_table(path, header: str, n_columns: int, module: str):
    """Read a CSV table written by :func:`write_table`.

    The first line must be ``header``; blank lines are skipped, and every
    other line must hold ``n_columns`` finite numbers.  Returns the values
    as a float array of shape (rows, n_columns) and the file line number
    of each row.  A defect is a ``ValidationError`` of ``module`` that
    names ``path:line``.

    The body is parsed in one ``np.loadtxt`` pass, which uses the same
    string-to-float conversion as ``float``.  Whenever that pass does not
    give every line as a row of finite numbers (a blank line, a defect,
    or a spelling only ``float`` accepts, such as ``1_0``), a line scan
    reads the body instead and names the first defective line.
    """
    import numpy as np  # only readers need it; writers start without numpy

    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", module=module) from exc
    if not raw_lines or raw_lines[0].strip() != header:
        raise ValidationError(f"{path}: first line must be the header {header!r}",
                              module=module)
    body_lines = raw_lines[1:]
    # np.loadtxt skips empty lines (and warns on a body of nothing else),
    # so a body with one goes straight to the line scan.
    if body_lines and "" not in body_lines:
        with contextlib.suppress(ValueError):
            table = np.loadtxt(body_lines, delimiter=",", comments=None, ndmin=2)
            if (table.shape == (len(body_lines), n_columns)
                    and np.isfinite(table).all()):
                return table, list(range(2, len(body_lines) + 2))
    values = []
    line_numbers = []
    for lineno, line in enumerate(body_lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise ValidationError(f"{path}:{lineno}: expected {n_columns} columns, "
                                  f"got {len(parts)}", module=module)
        try:
            row = list(map(float, parts))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparsable number",
                                  module=module) from exc
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"{path}:{lineno}: non-finite value", module=module)
        values += row
        line_numbers.append(lineno)
    return np.array(values, dtype=float).reshape(-1, n_columns), line_numbers


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON indented by 2, plus a newline (atomic)."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
