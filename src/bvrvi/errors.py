"""Exception types shared across the package.

The hierarchy keeps four user-facing failure classes apart: bad call
arguments (ParameterError), points outside the domain of a mirror map or
metric (DomainError), violated premises of a convergence guarantee
(PremiseViolationError), and runs whose iterates stop being finite
(DivergenceError).  Structural mismatches between vectors and a
geometry get their own class so shape bugs fail loudly instead of
broadcasting silently.
"""


class BvrviError(Exception):
    """Base class for all package errors."""


class ParameterError(BvrviError, ValueError):
    """A call argument is outside its admissible range."""


class DomainError(BvrviError, ValueError):
    """A point lies outside the domain required by the operation."""


class LayoutError(BvrviError, ValueError):
    """Block structure of a vector does not match the geometry."""


class PremiseViolationError(BvrviError, ValueError):
    """A theoretical premise fails; the message names the inequality."""


class DivergenceError(BvrviError):
    """An iterate stopped being finite; the message names the iterations
    between the last finite logging point and the one that caught it."""


class UsageError(BvrviError, ValueError):
    """Command line or config file input is invalid."""
