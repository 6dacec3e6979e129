"""Exception types shared across the package."""

from __future__ import annotations


class LoopjetError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LoopjetError):
    """Operands live in incompatible contexts or matrix dimensions."""


class TrustError(LoopjetError):
    """A coefficient outside the trusted degree window was read.

    Raised instead of silently returning zero: silent truncation corruption
    is the dominant failure mode of this kind of arithmetic.
    """


class WindowExhausted(LoopjetError):
    """The configured lambda window cannot hold a certified-nonzero degree.

    Signals that the truncation depth is insufficient for the requested
    computation; rerun with a deeper window.
    """


class ShapeError(LoopjetError):
    """A series violates a structural precondition (invertibility, block
    shape, membership in a twisted subalgebra, ...)."""


class ConfigError(LoopjetError):
    """A scenario configuration failed validation."""


class ResourceError(LoopjetError):
    """The host lacks what a run needs: memory, or a C compiler that builds
    the compiled pair walk."""
