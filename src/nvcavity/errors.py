"""Exception types shared across the toolkit.

Each error carries the owning module name and a short machine-readable
code; the CLI prints them as ``ERROR:<module>:<code>``.
"""

import sys


class ToolkitError(ValueError):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, message: str, *, module: str = "core"):
        super().__init__(message)
        self.module = module


def require_allocatable(n_elements: int, what: str) -> None:
    """MemoryError for ``n_elements`` past numpy's array size limit, where numpy
    raises ValueError; below it, at up to 64 bytes an element, allocation fails."""
    if n_elements > sys.maxsize // 64:
        raise MemoryError(f"{n_elements} {what} exceed numpy's array size limit")


class DomainError(ToolkitError):
    """An input violates a physical or mathematical precondition."""

    code = "domain"


class ValidationError(ToolkitError):
    """A file or configuration failed structural validation."""

    code = "validation"


class NoSolutionError(ToolkitError):
    """A root/inverse solve has no solution in its search range."""

    code = "no_solution"


class SingularityError(ToolkitError):
    """Evaluation point coincides with a field source."""

    code = "singularity"


class NoSplittingError(ToolkitError):
    """A spectrum does not contain two resolvable peaks."""

    code = "no_splitting"


class FitConvergenceError(ToolkitError):
    """Fit did not converge; carries the best state reached so far."""

    code = "fit_nonconverged"

    def __init__(self, message: str, *, module: str = "spectroscopy", best=None):
        super().__init__(message, module=module)
        self.best = best
