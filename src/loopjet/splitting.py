"""Splittings of the loop algebra and group.

The standard splitting separates non-negative from strictly negative
lambda degrees.  Twisted variants restrict to the sub loop group cut out by
a reality condition:

* ``u_real``      -- conjugate-linear condition tau(g(conj lambda)) = g(lambda),
                     tau either (conj(g)^t)^-1 ("hermitian") or conj(g) ("real");
* ``sigma_twisted`` -- complex-linear condition g(lambda) = sigma(g(-lambda)),
                     sigma either c g c^-1 ("conj") or (g^t)^-1 ("transpose_inv");
* ``tau_sigma``   -- both at once;
* ``kdv_twisted`` -- n = 2, phi(lambda) g(lambda) phi(lambda)^-1 even in
                     lambda, with phi = [[1,0],[lambda,1]].

Because the twisted subalgebras sit inside the standard halves, the standard
projections are also the twisted ones.  Conjugation in lambda acts coefficientwise (all degrees are integers)
and lambda -> -lambda flips odd coefficients, so every condition is evaluated
exactly at truncation, never on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import JetContext
from .errors import DimensionMismatch, ShapeError
from .series import Series, exp_series

__all__ = ["SplittingSpec", "reality_check",
           "sample_negative_element", "SplitMix64", "kdv_twist"]

VARIANTS = ("standard", "u_real", "sigma_twisted", "tau_sigma", "kdv_twisted")


@dataclass(frozen=True)
class SplittingSpec:
    """Which splitting of the loop algebra is active, plus its parameters."""

    variant: str
    n: int
    tau_mode: str = "hermitian"          # "hermitian" | "real"
    sigma_mode: str = "conj"             # "conj" | "transpose_inv"
    sigma_conjugator: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DimensionMismatch(f"unknown splitting variant {self.variant!r}")
        if self.variant == "kdv_twisted" and self.n != 2:
            raise DimensionMismatch("kdv_twisted requires n = 2")
        if self.sigma_conjugator is not None:
            c = np.asarray(self.sigma_conjugator)
            sq = c @ c
            if not np.allclose(sq, sq[0, 0] * np.eye(self.n)):
                raise ShapeError("sigma conjugator squared must be scalar")


def _phi(ctx: JetContext) -> Series:
    return Series.from_degree_matrices(
        ctx, {0: np.eye(2), 1: np.array([[0, 0], [1, 0]], dtype=complex)})


def _phi_inv(ctx: JetContext) -> Series:
    return Series.from_degree_matrices(
        ctx, {0: np.eye(2), 1: np.array([[0, 0], [-1, 0]], dtype=complex)})


def kdv_twist(x: Series) -> Series:
    """The involution phi^-1 (phi x phi^-1)|_{lambda -> -lambda} phi whose
    fixed points form the twisted algebra of the KdV splitting."""
    ctx = x.ctx
    h = _phi(ctx) * x * _phi_inv(ctx)
    return _phi_inv(ctx) * h.flip_lambda() * _phi(ctx)


def reality_check(spec: SplittingSpec, g: Series) -> float:
    """Max violation of the variant's defining group identity (0 for
    standard)."""
    if spec.variant == "standard":
        return 0.0
    worst = 0.0
    ident = Series.identity(g.ctx)
    if spec.variant in ("u_real", "tau_sigma"):
        if spec.tau_mode == "hermitian":
            # tau(g(conj lambda)) = g  <=>  conj-coeff(g)^t g = I
            worst = max(worst, (g.conj_coeffs().transpose() * g - ident).max_abs())
        else:
            worst = max(worst, (g.conj_coeffs() - g).max_abs())
    if spec.variant in ("sigma_twisted", "tau_sigma"):
        if spec.sigma_mode == "conj":
            c = np.asarray(spec.sigma_conjugator, dtype=complex)
            worst = max(worst, (g.flip_lambda().conjugate_by(c) - g).max_abs())
        else:
            worst = max(worst, (g.flip_lambda().transpose() * g - ident).max_abs())
    if spec.variant == "kdv_twisted":
        h = _phi(g.ctx) * g * _phi_inv(g.ctx)
        worst = max(worst, (h - h.flip_lambda()).max_abs())
    return worst


# ---------------------------------------------------------------------------
# Seeded scattering data

_M64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (public-domain algorithm), used so fixtures are
    reproducible from the seed alone by any implementation.

    ``uniform`` returns doubles in [-1, 1) built from the top 53 bits.
    """

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return 2.0 * ((self.next_u64() >> 11) / float(1 << 53)) - 1.0

    def complex_entry(self, amplitude: float) -> complex:
        re = self.uniform()
        im = self.uniform()
        return amplitude * (re + 1j * im)


def _constrain_coeff(spec: SplittingSpec, xi: np.ndarray, degree: int) -> np.ndarray:
    """Project one algebra coefficient onto the variant's subspace."""
    out = xi
    if spec.variant in ("u_real", "tau_sigma"):
        if spec.tau_mode == "hermitian":
            out = 0.5 * (out - np.conj(out).T)
        else:
            out = out.real.astype(complex)
    if spec.variant in ("sigma_twisted", "tau_sigma"):
        if spec.sigma_mode == "conj":
            c = np.asarray(spec.sigma_conjugator, dtype=complex)
            cinv = np.linalg.inv(c)
            out = 0.5 * (out + (-1.0) ** degree * (c @ out @ cinv))
        else:
            out = 0.5 * (out + (-1.0) ** (degree + 1) * out.T)
    return out


def sample_negative_element(spec: SplittingSpec, ctx: JetContext, seed: int,
                            depth: int, amplitude: float) -> Series:
    """Deterministic f in the variant's negative subgroup.

    Draw order (fixed for reproducibility): for degree -j, j = 1..depth, the
    n x n coefficient is filled row-major, real part then imaginary part,
    from a SplitMix64 stream seeded with ``seed``.  Each coefficient is then
    projected onto the variant's constraint subspace (for the KdV variant
    the whole element is symmetrized under the twist involution and
    re-projected to negative degrees), and f = exp(xi).
    """
    if depth < 1:
        raise DimensionMismatch("depth must be >= 1")
    gen = SplitMix64(seed)
    n = ctx.n
    coeffs: dict[int, np.ndarray] = {}
    for j in range(1, depth + 1):
        m = np.empty((n, n), dtype=complex)
        for r in range(n):
            for c in range(n):
                m[r, c] = gen.complex_entry(amplitude)
        coeffs[-j] = m
    if spec.variant == "kdv_twisted":
        xi = Series.from_degree_matrices(ctx, coeffs)
        xi = (xi + kdv_twist(xi)).scale(0.5).minus()
    else:
        coeffs = {k: _constrain_coeff(spec, m, k) for k, m in coeffs.items()}
        xi = Series.from_degree_matrices(ctx, coeffs)
    return exp_series(xi, stage="sample_negative_element")
