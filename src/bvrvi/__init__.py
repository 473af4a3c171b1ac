"""Variance-reduced Bregman proximal methods for finite-sum variational
inequalities, plus a reproducible experiment harness."""

from . import geometry, operators, metrics, solver, harness  # noqa: F401
from .errors import (  # noqa: F401
    BvrviError,
    DivergenceError,
    DomainError,
    LayoutError,
    ParameterError,
    PremiseViolationError,
    UsageError,
)

__version__ = "0.1.0"
