"""Small file-output helpers shared by the writer routines."""

import contextlib
import os
import stat
import tempfile


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
