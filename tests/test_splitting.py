"""Splitting tests: projections, pairings, cocycle, reality conditions,
seeded scattering data."""

from __future__ import annotations

import numpy as np
import pytest

from loopjet import JetContext, Series, ShapeError, cocycle, commutator
from loopjet.splitting import (SplitMix64, SplittingSpec, kdv_twist,
                               reality_check, sample_negative_element)

from helpers import (alg_defect, project, random_laurent_dict, rng,
                     series_from_dict)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def fctx(n=2, lo=-14, hi=6):
    return JetContext((), 0, n, lo, hi)


def random_series(seed, ctx, lo=-3, hi=2):
    return series_from_dict(ctx, random_laurent_dict(rng(seed), ctx.n, lo, hi))


# -- projections --------------------------------------------------------------

def test_project_standard():
    ctx = fctx()
    gen = rng(1)
    a, b, c = (gen.standard_normal((2, 2)) + 0j for _ in range(3))
    x = (Series.monomial(ctx, a, -1) + Series.monomial(ctx, b, 0)
         + Series.monomial(ctx, c, 1))
    spec = SplittingSpec("standard", 2)
    plus = project(spec, x, "+")
    minus = project(spec, x, "-")
    assert (plus - Series.monomial(ctx, b, 0) - Series.monomial(ctx, c, 1)).max_abs() == 0
    assert (minus - Series.monomial(ctx, a, -1)).max_abs() == 0
    assert (plus + minus - x).max_abs() == 0


def test_project_kdv_membership_and_closure():
    ctx = fctx()
    x = random_series(3, ctx, -3, -1)
    sym = (x + kdv_twist(x)).scale(0.5)
    spec = SplittingSpec("kdv_twisted", 2)
    assert alg_defect(spec, sym) < 1e-13
    for sign in "+-":
        part = project(spec, sym, sign)
        assert alg_defect(spec, part) < 1e-13
    with pytest.raises(ShapeError):
        project(spec, x, "-")  # generic element violates the condition


# -- pairings and cocycle ------------------------------------------------------

def test_pairing_examples_and_shift():
    ctx = fctx()
    gen = rng(5)
    a = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    b = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    assert abs(Series.monomial(ctx, a, 2).pairing(Series.monomial(ctx, b, -3), -1)
               .coeff(0) - np.trace(a @ b)) < 1e-12
    assert abs(Series.monomial(ctx, a, 1).pairing(Series.monomial(ctx, b, -1), -1)
               .coeff(0)) == 0.0
    x = random_series(7, ctx)
    y = random_series(8, ctx)
    assert abs(x.shift(1).pairing(y, 0).coeff(0)
               - x.pairing(y, -1).coeff(0)) < 1e-12


def test_pairing_ad_invariance():
    ctx = fctx(lo=-16)
    x, y, z = (random_series(s, ctx) for s in (11, 12, 13))
    for k in (-1, 0, 1):
        lhs = commutator(z, x).pairing(y, k).coeff(0)
        rhs = x.pairing(commutator(z, y), k).coeff(0)
        assert abs(lhs + rhs) < 1e-9


def test_cocycle_values_and_antisymmetry():
    ctx = fctx()
    e11 = np.diag([1.0, 0.0]).astype(complex)
    up = Series.monomial(ctx, e11, 1)
    dn = Series.monomial(ctx, e11, -1)
    assert abs(cocycle(up, dn).coeff(0) - 1.0) < 1e-13
    assert abs(cocycle(dn, up).coeff(0) + 1.0) < 1e-13


def test_cocycle_vanishes_on_both_halves():
    ctx = fctx()
    xp = random_series(17, ctx, 0, 3)
    yp = random_series(18, ctx, 0, 3)
    xm = random_series(19, ctx, -4, -1)
    ym = random_series(20, ctx, -4, -1)
    assert abs(cocycle(xp, yp).coeff(0)) < 1e-12
    assert abs(cocycle(xm, ym).coeff(0)) < 1e-12


def test_cocycle_jacobi_identity():
    ctx = fctx(lo=-18)
    x, y, z = (random_series(s, ctx) for s in (23, 24, 25))
    total = (cocycle(commutator(x, y), z).coeff(0)
             + cocycle(commutator(y, z), x).coeff(0)
             + cocycle(commutator(z, x), y).coeff(0))
    assert abs(total) < 1e-9


# -- reality conditions ---------------------------------------------------------

@pytest.mark.parametrize("spec", [
    SplittingSpec("standard", 2),
    SplittingSpec("u_real", 2),
    SplittingSpec("sigma_twisted", 2, sigma_mode="conj",
                  sigma_conjugator=np.array([[0, 1], [1, 0]], dtype=complex)),
    SplittingSpec("tau_sigma", 2, sigma_mode="transpose_inv"),
    SplittingSpec("kdv_twisted", 2),
])
def test_identity_satisfies_every_condition(spec):
    ctx = fctx()
    assert reality_check(spec, Series.identity(ctx)) < 1e-14


def test_kdv_condition_on_vacuum_generator():
    # J = a lam + e12 conjugated by phi is [[0,1],[lam^2,0]], even in lam
    ctx = fctx()
    J = Series.from_degree_matrices(ctx, {1: np.diag([1.0, -1.0]), 0: E12})
    spec = SplittingSpec("kdv_twisted", 2)
    assert alg_defect(spec, J) < 1e-14
    phi = Series.from_degree_matrices(ctx, {0: np.eye(2), 1: E21})
    phi_inv = Series.from_degree_matrices(ctx, {0: np.eye(2), 1: -E21})
    h = phi * J * phi_inv
    expect = Series.from_degree_matrices(
        ctx, {0: E12, 2: E21})
    assert (h - expect).max_abs() < 1e-14


def test_u_real_first_order():
    ctx = fctx()
    gen = rng(31)
    xi = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    xi = 0.01 * (xi - np.conj(xi).T)
    f = Series.identity(ctx) + Series.monomial(ctx, xi, -1)
    spec = SplittingSpec("u_real", 2)
    # anti-hermitian first-order perturbation passes to first order in xi
    assert reality_check(spec, f) < 5e-4  # O(xi^2)
    assert reality_check(spec, f) > 1e-6  # but not exactly (group, not algebra)


# -- seeded sampling ------------------------------------------------------------

def test_splitmix64_reference_values():
    # first outputs for seed 0 of the published algorithm
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4


def test_sample_deterministic():
    ctx = fctx()
    spec = SplittingSpec("u_real", 2)
    a = sample_negative_element(spec, ctx, seed=9, depth=3, amplitude=0.3)
    b = sample_negative_element(spec, ctx, seed=9, depth=3, amplitude=0.3)
    assert (a - b).max_abs() == 0.0
    c = sample_negative_element(spec, ctx, seed=10, depth=3, amplitude=0.3)
    assert (a - c).max_abs() > 1e-3


@pytest.mark.parametrize("spec,n", [
    (SplittingSpec("standard", 2), 2),
    (SplittingSpec("u_real", 2), 2),
    (SplittingSpec("u_real", 3), 3),
    (SplittingSpec("sigma_twisted", 2, sigma_mode="conj",
                   sigma_conjugator=np.array([[0, 1], [1, 0]], dtype=complex)), 2),
    (SplittingSpec("tau_sigma", 2, sigma_mode="transpose_inv"), 2),
    (SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv"), 3),
    (SplittingSpec("tau_sigma", 3, tau_mode="real",
                   sigma_mode="transpose_inv"), 3),
    (SplittingSpec("kdv_twisted", 2), 2),
])
def test_sampled_f_passes_group_condition(spec, n):
    ctx = fctx(n=n)
    f = sample_negative_element(spec, ctx, seed=41, depth=3, amplitude=0.3)
    assert reality_check(spec, f) < 1e-9
    assert (f - Series.identity(ctx)).plus().max_abs() < 1e-14
