import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from ballwav import flag, laguerre

from _bessel_oracle import KS, TABLE


def test_cpj_matches_closed_form():
    # c^p_j = (-1)^j (p+2)! / ((p-j)! j! (j+2)!), checked in exact arithmetic
    P = 32
    table = flag._cpj_table(P)
    for p in range(P):
        for j in range(p + 1):
            expect = Fraction((-1) ** j * math.factorial(p + 2),
                              math.factorial(p - j) * math.factorial(j)
                              * math.factorial(j + 2))
            assert table[p, j] == pytest.approx(float(expect), rel=1e-13)
        assert np.all(table[p, p + 1:] == 0.0)


@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_moment_at_zero_k(tau):
    # mu^0_j(0) = 2^(j+1) j! tau^(3/2)
    for j in range(0, 9):
        val, cond = flag._mu_moment(0, j, 0.0, tau)
        assert val == pytest.approx(2.0 ** (j + 1) * math.factorial(j) * tau**1.5,
                                    rel=1e-13)
        assert np.isfinite(cond)
    # every higher angular order vanishes at k = 0
    for ell in range(1, 6):
        assert flag._mu_moment(ell, ell + 2, 0.0, tau) == (0.0, 1.0)


def test_jlp_zero_k_values():
    bridge = flag.build_bessel_bridge(6, 6)
    assert flag.jlp(bridge, 0, 0, 0.0) == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
    for ell in range(1, 6):
        for p in range(6):
            assert flag.jlp(bridge, ell, p, 0.0) == 0.0


def test_jlp_against_direct_quadrature():
    bridge = flag.build_bessel_bridge(4, 4)
    sch = laguerre.build_radial_scheme(4)
    val = flag.jlp(bridge, 0, 1, 0.7)
    # the integrand decays like exp(-r/2); the tail beyond 80 is below 1e-14
    oracle, err = quad(
        lambda r: laguerre.basis_k(sch, 1, r) * spherical_jn(0, 0.7 * r) * r * r,
        0.0, 80.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    assert val == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("ell,p", [(0, 0), (3, 5), (8, 8), (5, 2), (1, 7)])
def test_jlp_against_frozen_table(ell, p):
    bridge = flag.build_bessel_bridge(9, 9)
    for ik, k in enumerate(KS):
        assert flag.jlp(bridge, ell, p, k) == pytest.approx(TABLE[ell, p, ik],
                                                            rel=1e-9)


def test_jlp_flags_cancellation_loss():
    bridge = flag.build_bessel_bridge(40, 130)
    val, flagged = flag.jlp(bridge, 0, 60, 5.0, return_flag=True)
    assert flagged
    # a benign case stays unflagged
    _, ok = flag.jlp(bridge, 0, 3, 1.0, return_flag=True)
    assert not ok
    # moments that overflow to +-inf give a flagged value, not an error
    big = flag.build_bessel_bridge(1, 150)
    with np.errstate(over="ignore", invalid="ignore"):
        val, flagged = flag.jlp(big, 0, 149, 0.5, return_flag=True)
    assert flagged and not np.isfinite(val)


def test_jlp_argument_errors():
    bridge = flag.build_bessel_bridge(4, 4)
    with pytest.raises(ValueError):
        flag.jlp(bridge, 4, 0, 1.0)
    with pytest.raises(ValueError):
        flag.jlp(bridge, 0, 4, 1.0)
    with pytest.raises(ValueError):
        flag.jlp(bridge, 0, 0, -0.5)
    with pytest.raises(ValueError):
        flag.build_bessel_bridge(0, 5)


def test_fourier_bessel_zero_input():
    bridge = flag.build_bessel_bridge(3, 3)
    out = flag.fourier_bessel(bridge, np.zeros((3, 9), dtype=complex), [0.5, 1.0])
    assert np.all(out.values == 0.0)
    assert not np.any(out.flagged)


def test_fourier_bessel_unit_monopole_at_zero():
    bridge = flag.build_bessel_bridge(2, 2)
    c = np.zeros((2, 4), dtype=complex)
    c[0, 0] = 1.0
    out = flag.fourier_bessel(bridge, c, [0.0])
    assert out.values[0, 0] == pytest.approx(16.0 / math.sqrt(math.pi), rel=1e-12)
    assert np.all(out.values[1:, 0] == 0.0)


def test_fourier_bessel_matches_radial_quadrature():
    # f~_00(k) of a pure-monopole signal, against direct integration of the
    # synthesized radial profile
    P = 4
    bridge = flag.build_bessel_bridge(1, P)
    sch = laguerre.build_radial_scheme(P)
    rng = np.random.default_rng(5)
    prof = rng.standard_normal(P)
    c = np.zeros((P, 1), dtype=complex)
    c[:, 0] = prof
    ks = [0.5, 1.0, 2.0]
    out = flag.fourier_bessel(bridge, c, ks)
    assert not np.any(out.flagged)
    for ik, k in enumerate(ks):
        oracle, err = quad(
            lambda r: laguerre.radial_synthesis(sch, prof, [r])[0]
            * spherical_jn(0, k * r) * r * r,
            0.0, 80.0, limit=200, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        expect = math.sqrt(2.0 / math.pi) * oracle
        assert out.values[0, ik] == pytest.approx(expect, rel=1e-7)


def test_fourier_bessel_validation():
    bridge = flag.build_bessel_bridge(2, 2)
    with pytest.raises(ValueError):
        flag.fourier_bessel(bridge, np.zeros((3, 4), dtype=complex), [1.0])
    with pytest.raises(ValueError):
        flag.fourier_bessel(bridge, np.zeros((2, 4), dtype=complex), [-1.0])
    with pytest.raises(ValueError):
        flag.fourier_bessel(bridge, np.zeros((2, 4), dtype=complex), [np.nan])


def test_fourier_bessel_matches_per_entry_jlp():
    # every (l, m) output against its own sum over p of single jlp overlaps
    L, P, ks = 6, 24, [0.5, 5.0]
    bridge = flag.build_bessel_bridge(L, P)
    c = flag.random_coeffs(L, P, 3).values
    out = flag.fourier_bessel(bridge, c, ks)
    table = {(ell, ik): [flag.jlp(bridge, ell, p, k, return_flag=True)
                         for p in range(P)]
             for ell in range(L) for ik, k in enumerate(ks)}
    ell_of, _ = flag.sht._lm_arrays(L)
    for lm, ell in enumerate(ell_of):
        for ik in range(len(ks)):
            vals, flags = map(np.array, zip(*table[ell, ik]))
            terms = c[:, lm] * vals
            expect = math.sqrt(2.0 / math.pi) * terms.sum()
            scale = math.sqrt(2.0 / math.pi) * np.abs(terms).sum()
            assert abs(out.values[lm, ik] - expect) <= 1e-12 * scale
            assert out.flagged[lm, ik] == np.any(flags[c[:, lm] != 0])
    assert out.flagged.any() and not out.flagged.all()
