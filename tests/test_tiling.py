import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwav import tiling


def test_schwartz_bump_values():
    assert tiling.schwartz_s(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert tiling.schwartz_s(0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)
    assert tiling.schwartz_s(1.0) == 0.0
    assert tiling.schwartz_s(-1.0) == 0.0
    assert tiling.schwartz_s(3.7) == 0.0
    arr = tiling.schwartz_s(np.array([-0.3, 0.3]))
    assert arr[0] == arr[1]


@given(st.floats(-2.0, 2.0))
def test_schwartz_bump_bounded_by_center(t):
    assert tiling.schwartz_s(t) <= tiling.schwartz_s(0.0)
    assert tiling.schwartz_s(t) >= 0.0


def test_cutoff_flat_regions_exact():
    for lam in (2.0, 3.0, 1.7):
        assert tiling.k_lambda(lam, 0.0) == 1.0
        assert tiling.k_lambda(lam, 1.0 / lam) == 1.0
        assert tiling.k_lambda(lam, 0.3 / lam) == 1.0
        assert tiling.k_lambda(lam, 1.0) == 0.0
        assert tiling.k_lambda(lam, 17.0) == 0.0


def test_cutoff_strictly_decreasing_in_transition():
    assert tiling.k_lambda(2.0, 0.6) > tiling.k_lambda(2.0, 0.75)
    assert tiling.k_lambda(2.0, 0.75) > tiling.k_lambda(2.0, 0.9)
    assert 0.0 < tiling.k_lambda(2.0, 0.9) < 1.0


def test_cutoff_argument_errors():
    with pytest.raises(ValueError):
        tiling.k_lambda(1.0, 0.5)
    with pytest.raises(ValueError):
        tiling.k_lambda(2.0, -0.1)


@pytest.mark.parametrize("lam", [2.0, 3.0, 1.7, 1.05, 10.0])
def test_cutoff_interpolant_matches_quadrature(lam):
    # the fixed-order fast path against the adaptive defining integral
    ts = np.linspace(1.0 / lam + 1e-3, 1.0 - 1e-3, 23)
    fast = tiling._k_eval(lam, ts)
    slow = np.array([tiling.k_lambda(lam, t) for t in ts])
    assert np.max(np.abs(fast - slow)) < 1e-13


def test_cutoff_interpolant_monotone():
    ts = np.linspace(0.0, 1.1, 4001)
    vals = tiling._k_eval(2.0, ts)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[0] == 1.0 and vals[-1] == 0.0


def test_import_path_loads_no_integrate_or_interpolate():
    # a fresh interpreter, so that sys.modules holds only what the modules load
    code = """
import sys
from ballwav import laguerre, sht, flag, tiling, flaglet, denoise, ballfile
tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 16, 16))
print(" ".join(sorted(m for m in ("scipy.integrate", "scipy.interpolate")
                      if m in sys.modules)))
"""
    src = str(pathlib.Path(tiling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_generator_values():
    kappa, eta, hybrid = tiling.generators(2.0, 2.0, 1.0, 0.25)
    assert kappa == pytest.approx(1.0, abs=1e-14)
    assert eta == 0.0
    kappa2, eta2, hybrid2 = tiling.generators(2.0, 3.0, 0.2, 0.1)
    assert eta2 == 1.0
    assert hybrid2 == pytest.approx(1.0, abs=1e-14)
    assert kappa2 == 0.0


@given(st.floats(1.05, 4.0), st.floats(1.0, 1e6))
@settings(max_examples=200)
def test_ceil_log_is_smallest_exponent(base, x):
    j = tiling._ceil_log(base, x)
    assert tiling._pow(base, j) >= x
    if j > 0:
        assert tiling._pow(base, j - 1) < x


def test_params_scale_counts():
    p = tiling.make_tiling_params(2.0, 2.0, 5, 5)
    assert p.J == 2 and p.Jp == 2
    big = tiling.make_tiling_params(2.0, 2.0, 128, 128)
    assert big.J == 7 and big.Jp == 7
    assert len(big.scales) == 64
    offset = tiling.make_tiling_params(2.0, 2.0, 128, 128, J0=3, J0p=5)
    assert offset.scales[0] == (3, 5) and offset.scales[-1] == (7, 7)
    assert len(offset.scales) == 5 * 3


def test_params_validation():
    with pytest.raises(ValueError):
        tiling.make_tiling_params(1.0, 2.0, 16, 16)
    with pytest.raises(ValueError):
        tiling.make_tiling_params(2.0, 2.0, 1, 16)
    with pytest.raises(ValueError):
        tiling.make_tiling_params(2.0, 2.0, 16, 16, J0=4)
    with pytest.raises(ValueError):
        tiling.make_tiling_params(2.0, 2.0, 16, 16, J0p=99)
    # the max scales are derived, so they cannot be passed in at all
    with pytest.raises(TypeError):
        tiling.TilingParams(lam=2.0, nu=2.0, J0=0, J0p=0, L=16, P=16, J=3, Jp=4)


@pytest.mark.parametrize("bad", [1.0 + 2.0**-52, 1e300, 1e308, math.inf, math.nan])
@pytest.mark.parametrize("which", ["lam", "nu"])
def test_params_reject_dilations_out_of_range(which, bad):
    # 1 + 2^-52 would list about 1e16 scales; 1e300 and up overflow
    # lam^(J+1); inf and nan are no dilation at all
    dil = {"lam": 2.0, "nu": 2.0, which: bad}
    for L in (4, 8, 128):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="dilation"):
            tiling.make_tiling_params(dil["lam"], dil["nu"], L, L)
        assert time.perf_counter() - t0 < 1.0


def test_kernel_bandlimits():
    p = tiling.make_tiling_params(2.0, 3.0, 128, 128)
    assert p.J == 7 and p.Jp == 5
    assert tiling.kernel_bandlimits(p, 3, 2) == (16, 27)
    # the top scale clamps at the band-limit
    assert tiling.kernel_bandlimits(p, 7, 5) == (128, 128)
    with pytest.raises(ValueError):
        tiling.kernel_bandlimits(p, 8, 0)
    with pytest.raises(ValueError):
        tiling.kernel_bandlimits(p, 0, 6)


def test_wavelet_kernel_compact_support():
    # scale j covers only degrees strictly between lam^(j-1) and lam^(j+1)
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 16, 16))
    psi22 = kern.psi_scale(2, 2)
    inside_l = np.array([3, 4, 5, 6, 7])
    inside_p = np.array([3, 4, 5, 6, 7])
    assert np.all(psi22[np.ix_(inside_l, inside_p)] > 0.0)
    assert np.all(psi22[:3, :] == 0.0)
    assert np.all(psi22[8:, :] == 0.0)
    assert np.all(psi22[:, :3] == 0.0)
    assert np.all(psi22[:, 8:] == 0.0)


@pytest.mark.parametrize("lam", [2.0, 3.0])
@pytest.mark.parametrize("nu", [2.0, 3.0])
def test_admissibility_identity(lam, nu):
    kern = tiling.build_tiling(tiling.make_tiling_params(lam, nu, 16, 16))
    ells = np.arange(16.0)
    total = kern.phi**2 + np.sum(kern.psi**2, axis=(0, 1))
    residual = 4.0 * np.pi / (2.0 * ells[:, None] + 1.0) * total - 1.0
    assert np.max(np.abs(residual)) < 1e-10
    assert kern.residual == np.max(np.abs(residual))


def test_kernels_hold_the_cutoffs_not_psi():
    # psi and psi_scale are formed on demand from ka and kb: stored, psi takes
    # (J+1)(Jp+1) L P doubles, 8.4 MB at L=P=128
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 32, 32))
    held = sum(v.nbytes for v in (getattr(kern, f.name) for f in dataclasses.fields(kern))
               if isinstance(v, np.ndarray))
    assert held == kern.ka.nbytes + kern.kb.nbytes + kern.phi.nbytes
    assert kern.psi.shape == (6, 6, 32, 32)
    for j, jp in kern.params.scales:
        assert kern.psi_scale(j, jp).tobytes() == kern.psi[j, jp].tobytes()


def test_psi_matches_generator_products():
    lam, nu = 2.0, 2.0
    kern = tiling.build_tiling(tiling.make_tiling_params(lam, nu, 16, 16))
    for j in (1, 3):
        for jp in (2, 4):
            block = kern.psi_scale(j, jp)
            for l in (1, 5, 11):
                for p in (3, 7, 13):
                    ka = tiling.generators(lam, nu, l / lam**j, 0.0)[0]
                    kb = tiling.generators(nu, lam, p / nu**jp, 0.0)[0]
                    fac = math.sqrt((2.0 * l + 1.0) / (4.0 * math.pi))
                    assert block[l, p] == pytest.approx(fac * ka * kb, abs=1e-10)


FACTOR_CASES = [
    (2.0, 3.0, 16, 16, 0, 0),
    (1.7, 2.5, 24, 13, 1, 1),
    (3.0, 2.0, 9, 20, 1, 2),
]


@pytest.mark.parametrize("lam, nu, L, P, J0, J0p", FACTOR_CASES)
def test_kernel_factors_into_angular_times_radial(lam, nu, L, P, J0, J0p):
    # sqrt(4 pi/(2l+1)) psi(j, jp) is the outer product of the angular factor
    # of j and the radial factor of jp, at every scale of the offset table
    kern = tiling.build_tiling(tiling.make_tiling_params(lam, nu, L, P, J0=J0, J0p=J0p))
    prm = kern.params
    assert kern.ka.shape == (prm.J + 1 - J0, L)
    assert kern.kb.shape == (prm.Jp + 1 - J0p, P)
    fac = np.sqrt(4.0 * np.pi / (2.0 * np.arange(L) + 1.0))
    for j, jp in prm.scales:
        want = np.outer(kern.ka[j - J0], kern.kb[jp - J0p])
        got = fac[:, None] * kern.psi_scale(j, jp)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("lam, nu, L, P, J0, J0p", FACTOR_CASES)
def test_scaling_kernel_lives_on_its_band_limits(lam, nu, L, P, J0, J0p):
    # phi is nonzero exactly on the degrees l < La and the rows p < Pb
    params = tiling.make_tiling_params(lam, nu, L, P, J0=J0, J0p=J0p)
    La, Pb = tiling.scaling_bandlimits(params)
    support = (np.arange(L)[:, None] < La) | (np.arange(P)[None, :] < Pb)
    np.testing.assert_array_equal(tiling.build_tiling(params).phi > 0.0, support)


def test_phi_matches_closed_form():
    params = tiling.make_tiling_params(2.0, 2.0, 16, 16, J0=1, J0p=2)
    kern = tiling.build_tiling(params)
    for l in (0, 1, 4, 9):
        for p in (0, 2, 6, 15):
            a = tiling.k_lambda(2.0, l / 2.0**1)
            b = tiling.k_lambda(2.0, p / 2.0**2)
            fac = math.sqrt((2.0 * l + 1.0) / (4.0 * math.pi))
            expect = fac * math.sqrt(a + b - a * b)
            assert kern.phi[l, p] == pytest.approx(expect, abs=1e-10)


def test_psi_scale_range_errors():
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 16, 16, J0=1))
    with pytest.raises(ValueError):
        kern.psi_scale(0, 0)
    with pytest.raises(ValueError):
        kern.psi_scale(5, 0)
    assert kern.psi_scale(4, 4).shape == (16, 16)
