"""Design and spectroscopy toolkit for 3D lumped-element microwave
cavities coupled to NV electron-spin ensembles.

Submodules load on first use (``nvcavity.fieldmap`` imports the field
solver, and numpy with it, only when it is first read), so a command
starts without the modules it does not run.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("_fileio", "circuit", "cli", "constants", "coupling", "errors",
               "fieldmap", "nvspin", "spectroscopy")


def __getattr__(name):
    if name in _SUBMODULES:
        # The import binds the submodule as a package attribute, so this
        # runs once per name.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
