"""Tests for the shared atomic file writer."""

import os
import stat

from nvcavity._fileio import atomic_write_text


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_new_file_gets_the_umask_mode(tmp_path):
    path = tmp_path / "design.json"
    previous = os.umask(0o022)
    try:
        atomic_write_text(path, "{}\n")
    finally:
        os.umask(previous)
    assert path.read_text() == "{}\n"
    assert mode_of(path) == 0o644


def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "design.json"
    path.write_text("old\n")
    os.chmod(path, 0o640)
    atomic_write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert mode_of(path) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["design.json"]
