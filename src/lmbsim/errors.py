"""Exception types shared across the package.

Configuration and data problems are user errors and map to CLI exit code 2;
verification mismatches map to exit code 3.  Protocol and deadlock errors
indicate internal invariant violations and should never fire on valid input.
"""


class LmbsimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LmbsimError):
    """Invalid configuration: bad shapes, unknown keys, impossible geometry."""


class DataError(LmbsimError):
    """Malformed input data (tensor files, out-of-range coordinates)."""


class NumericalError(LmbsimError):
    """Numerical failure, e.g. a singular normal-equations system."""


class ProtocolError(LmbsimError):
    """Internal memory-system invariant violated (simulator bug)."""


class DeadlockError(LmbsimError):
    """Simulation made no progress; carries a state dump for debugging."""

    def __init__(self, message, dump=""):
        super().__init__(message)
        self.dump = dump


class VerificationError(LmbsimError):
    """Simulated output did not match the functional oracle."""
