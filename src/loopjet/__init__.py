"""Truncated-series calculus for soliton hierarchies built from loop-group
splittings: Birkhoff factorization of vacuum frames against scattering data,
tau functions through their derivative formulas, and positive-half Virasoro
actions, with every identity checked numerically at truncation precision."""

from .context import JetContext, default_window
from .errors import (ConfigError, DimensionMismatch, LoopjetError,
                     ResourceError, ShapeError, TrustError, WindowExhausted)
from .series import (ScalarJet, Series, cocycle, commutator,
                     directional_derivative, exp_series)

__all__ = [
    "JetContext", "default_window",
    "LoopjetError", "DimensionMismatch", "TrustError", "WindowExhausted",
    "ShapeError", "ConfigError", "ResourceError",
    "Series", "ScalarJet", "exp_series", "cocycle", "commutator",
    "directional_derivative",
]

__version__ = "0.1.0"
