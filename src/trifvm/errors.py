"""Exception taxonomy shared by all solver modules.

An error is its exit code.  Everything raised on purpose derives from one of
two bases: ConfigError (exit 2) or NumericError (exit 3), and `cli.main`
catches those two.  A new error subclasses one of them, and it gets a class
of its own only when a caller reads more than its message.
"""


class TriFvmError(Exception):
    """Base class for everything raised on purpose by this package."""


class ConfigError(TriFvmError):
    """Bad input: a config value, a mesh, a table or a request (exit 2)."""


class NumericError(TriFvmError):
    """A numeric failure: a degenerate or singular system, a collapsed step,
    a failed rank (exit 3)."""


class ParseError(ConfigError):
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


class SingularMatrix(NumericError):
    """No acceptable pivot during LU elimination."""


class Timeout(NumericError):
    """A rank waited too long on a message link.

    deadline: the monotonic time at which the rank's own wait expired, or
    None when it stopped waiting because a peer had failed.
    """

    def __init__(self, message, deadline=None):
        super().__init__(message)
        self.deadline = deadline


class SimulationError(NumericError):
    """A rank failed mid-run; carries where it happened."""

    def __init__(self, message, step=None, rank=None, phase=None):
        super().__init__(message)
        self.step = step
        self.rank = rank
        self.phase = phase
