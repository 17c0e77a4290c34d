"""Exception taxonomy shared by all solver modules."""


class TriFvmError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParseError(TriFvmError):
    """Malformed text input (mesh file, timings CSV, ...)."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class TopologyError(TriFvmError):
    """Mesh connectivity violates the face/triangle contracts."""


class DegenerateDiamond(TriFvmError):
    """Diamond cell area collapsed below the degeneracy threshold."""


class InvalidK(TriFvmError):
    """Requested part count outside 1..n_cells."""


class SingularSystem(TriFvmError):
    """Poisson operator has a nullspace (all-Neumann without a pinned cell)."""


class SingularMatrix(TriFvmError):
    """No acceptable pivot during LU elimination."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class DimensionMismatch(TriFvmError):
    """Operand shapes disagree with the factored system."""


class ZeroDt(TriFvmError):
    """Stability limit collapsed to zero with nonzero transport."""


class Timeout(TriFvmError):
    """A rank waited too long on a message link.

    deadline: the monotonic time at which the rank's own wait expired, or
    None when it stopped waiting because a peer had failed.
    """

    def __init__(self, message, rank=None, deadline=None):
        super().__init__(message)
        self.rank = rank
        self.deadline = deadline


class SimulationError(TriFvmError):
    """A rank failed mid-run; carries where it happened."""

    def __init__(self, message, step=None, rank=None, phase=None):
        super().__init__(message)
        self.step = step
        self.rank = rank
        self.phase = phase


class ConfigError(TriFvmError):
    """Bad or missing configuration value."""


class MissingBase(TriFvmError):
    """Scaling baseline core count absent from the timing table."""


class UnknownCase(TriFvmError):
    """Convergence study name not recognized."""
