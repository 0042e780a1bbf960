import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from ballwav import sht


def random_sph_coeffs(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)) / np.sqrt(2.0)


def test_lm_index():
    assert sht.lm_index(0, 0) == 0
    assert sht.lm_index(1, -1) == 1
    assert sht.lm_index(1, 0) == 2
    assert sht.lm_index(1, 1) == 3
    assert sht.lm_index(2, -2) == 4


def test_scheme_l1():
    sch = sht.build_angular_scheme(1)
    assert sch.n_theta == 1 and sch.n_phi == 1
    assert sch.thetas[0] == pytest.approx(math.pi / 2, rel=1e-15)
    assert sch.theta_weights[0] == pytest.approx(2.0, rel=1e-15)


def test_scheme_l2_nodes():
    sch = sht.build_angular_scheme(2)
    np.testing.assert_allclose(np.sort(np.cos(sch.thetas)),
                               [-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)], rtol=1e-14)


@pytest.mark.parametrize("L", [1, 2, 5, 16, 64])
def test_theta_weights_total_measure(L):
    sch = sht.build_angular_scheme(L)
    assert np.sum(sch.theta_weights) == pytest.approx(2.0, abs=1e-12)
    assert sch.n_phi == 2 * L - 1


@pytest.mark.parametrize("L", [16, 64])
def test_scheme_holds_one_legendre_table(L):
    # one float64 P_lm table over m >= 0, plus the O(L) nodes and weights
    sch = sht.build_angular_scheme(L)
    held = sum(v.nbytes for v in (getattr(sch, f.name) for f in dataclasses.fields(sch))
               if isinstance(v, np.ndarray))
    per_node = sch.thetas.nbytes + sch.theta_weights.nbytes + sch.phis.nbytes
    assert held <= L * L * sch.n_theta * 8 + per_node


def test_invalid_band_limit():
    with pytest.raises(ValueError):
        sht.build_angular_scheme(0)


def test_ylm_point_matches_scipy():
    L = 9
    for theta, phi in [(0.3, 0.0), (1.1, 2.4), (2.9, 5.5)]:
        ours = sht.ylm_point(L, theta, phi)
        for ell in range(L):
            for m in range(-ell, ell + 1):
                ref = complex(sph_harm_y(ell, m, theta, phi))
                assert ours[sht.lm_index(ell, m)] == pytest.approx(ref, abs=1e-13)


def test_forward_constant_grid():
    sch = sht.build_angular_scheme(6)
    grid = np.ones(sch.grid_shape, dtype=complex)
    coeffs = sht.sht_forward(sch, grid)
    assert coeffs[0] == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
    assert np.max(np.abs(coeffs[1:])) < 1e-12


@pytest.mark.parametrize("ell, m", [(ell, m) for ell in range(6)
                                     for m in range(-ell, ell + 1)])
def test_forward_pure_harmonic_sampled_from_scipy(ell, m):
    # grid built from the external evaluation, not from our own inverse; a
    # sign error at negative m shared by both directions would survive a
    # round trip but not this
    L = 6
    sch = sht.build_angular_scheme(L)
    tt, pp = np.meshgrid(sch.thetas, sch.phis, indexing="ij")
    grid = sph_harm_y(ell, m, tt, pp)
    unit = np.zeros(L * L, dtype=complex)
    unit[sht.lm_index(ell, m)] = 1.0
    np.testing.assert_allclose(sht.sht_forward(sch, grid), unit, atol=1e-12)
    np.testing.assert_allclose(sht.sht_inverse(sch, unit), grid, atol=1e-12)


def test_inverse_unit_monopole():
    sch = sht.build_angular_scheme(4)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[0] = 1.0
    grid = sht.sht_inverse(sch, coeffs)
    np.testing.assert_allclose(grid, 1.0 / (2.0 * math.sqrt(math.pi)), atol=1e-14)
    assert np.all(sht.sht_inverse(sch, np.zeros(16)) == 0.0)


@pytest.mark.parametrize("L", [2, 4, 16, 64])
def test_round_trip(L):
    sch = sht.build_angular_scheme(L)
    f = random_sph_coeffs(L, seed=L)
    back = sht.sht_forward(sch, sht.sht_inverse(sch, f))
    assert np.max(np.abs(back - f)) < 1e-10


def test_round_trip_batched():
    sch = sht.build_angular_scheme(8)
    f = np.stack([random_sph_coeffs(8, seed=s) for s in range(5)]).reshape(5, 64)
    back = sht.sht_forward(sch, sht.sht_inverse(sch, f))
    assert back.shape == (5, 64)
    assert np.max(np.abs(back - f)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(-5, 5))
def test_single_mode_round_trip(L, ell, m):
    if ell >= L or abs(m) > ell:
        return
    sch = sht.build_angular_scheme(L)
    f = np.zeros(L * L, dtype=complex)
    f[sht.lm_index(ell, m)] = 1.0 + 0.5j
    back = sht.sht_forward(sch, sht.sht_inverse(sch, f))
    assert np.max(np.abs(back - f)) < 1e-11


def test_parseval_identity():
    L = 16
    sch = sht.build_angular_scheme(L)
    f = random_sph_coeffs(L, seed=3)
    grid = sht.sht_inverse(sch, f)
    quad = sht.sph_parseval_energy(sch, grid)
    assert quad == pytest.approx(float(np.sum(np.abs(f) ** 2)), rel=1e-10)


def test_longitude_shift_preserves_moduli():
    L = 12
    sch = sht.build_angular_scheme(L)
    f = random_sph_coeffs(L, seed=9)
    grid = sht.sht_inverse(sch, f)
    rolled = np.roll(grid, 1, axis=-1)
    g = sht.sht_forward(sch, rolled)
    np.testing.assert_allclose(np.abs(g), np.abs(f), atol=1e-12)


def test_real_symmetric_coeffs_give_real_grid():
    from ballwav import flag

    L = 10
    f = flag.random_coeffs(L, 1, seed=4, real=True).values[0]
    sch = sht.build_angular_scheme(L)
    grid = sht.sht_inverse(sch, f)
    assert np.max(np.abs(grid.imag)) < 1e-12


def test_inverse_promotes_lower_band_limit():
    big = sht.build_angular_scheme(12)
    f8 = random_sph_coeffs(8, seed=5)
    # the packed index l*l+l+m does not depend on L, so padding is a prefix copy
    padded = np.zeros(144, dtype=complex)
    padded[:64] = f8
    np.testing.assert_allclose(sht.sht_inverse(big, f8),
                               sht.sht_inverse(big, padded), atol=1e-14)
    # down to Lc = 1, and batched
    for L, Lc in ((5, 1), (5, 2), (16, 7)):
        sch = sht.build_angular_scheme(L)
        f = np.stack([random_sph_coeffs(Lc, seed=s) for s in range(2)])
        padded = np.zeros((2, L * L), dtype=complex)
        padded[:, :Lc * Lc] = f
        diff = sht.sht_inverse(sch, f) - sht.sht_inverse(sch, padded)
        assert np.max(np.abs(diff)) < 1e-12


def test_shape_and_band_limit_errors():
    sch = sht.build_angular_scheme(4)
    with pytest.raises(ValueError):
        sht.sht_forward(sch, np.zeros((3, 7)))
    with pytest.raises(ValueError):
        sht.sht_inverse(sch, np.zeros(25, dtype=complex))
    with pytest.raises(ValueError):
        sht.sht_inverse(sch, np.zeros(15, dtype=complex))
    with pytest.raises(ValueError):
        sht.sht_inverse(sch, np.zeros(0, dtype=complex))
    for Lc in (0, 5):
        with pytest.raises(ValueError):
            sht.sht_forward(sch, np.zeros((4, 7)), Lc)


# band-limits on either side of the real path's direct-DFT crossover, and
# low and full band-limits at L = 64 (n_phi = 127) and L = 128 (n_phi = 255)
_CROSSOVER = [(128, sht._DFT_MAX_BINS), (128, sht._DFT_MAX_BINS + 1),
              (64, 2), (64, 64), (128, 8), (128, 128)]


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the calls of np.fft.rfft and np.fft.irfft: the real path's
    longitude step calls one of them only above the crossover."""
    calls = []
    for name in ("rfft", "irfft"):
        def spy(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    return calls


@pytest.mark.parametrize("L,Lc", [(1, 1), (5, 1), (5, 2), (8, 5), (8, 8), (16, 7),
                                  (2, 1), (2, 2), (5, 5), (16, 16), (33, 16),
                                  (33, 33)] + _CROSSOVER)
def test_forward_band_limit_is_a_prefix(L, Lc, fft_calls):
    sch = sht.build_angular_scheme(L)
    rng = np.random.default_rng(L + Lc)
    grid = (rng.standard_normal((3,) + sch.grid_shape)
            + 1j * rng.standard_normal((3,) + sch.grid_shape))
    for g in (grid, grid.real):
        out = sht.sht_forward(sch, g, Lc)
        assert out.shape == (3, Lc * Lc)
        assert np.max(np.abs(out - sht.sht_forward(sch, g)[:, :Lc * Lc])) < 1e-12
    # a float grid takes the real path: the m >= 0 half, m < 0 by symmetry;
    # a float32 grid, batched or single, is read as float64
    fft_calls.clear()
    for g in (grid.real, grid.real.astype(np.float32), grid.real[0].astype(np.float32)):
        real_path = sht.sht_forward(sch, g, Lc)
        complex_path = sht.sht_forward(sch, g.astype(complex), Lc)
        assert real_path.dtype == np.complex128
        assert np.max(np.abs(real_path - complex_path)) < 1e-12
    # a direct DFT of the Lc bins up to the crossover, an rfft above it
    assert fft_calls == ([] if Lc <= sht._DFT_MAX_BINS else ["rfft"] * 3)


@pytest.mark.parametrize("L,Lc", [(1, 1), (2, 1), (2, 2), (5, 2), (5, 5),
                                  (16, 7), (16, 16), (33, 16), (33, 33)]
                         + _CROSSOVER)
def test_real_inverse_matches_complex(L, Lc, fft_calls):
    from ballwav import flag

    sch = sht.build_angular_scheme(L)
    # three conjugate-symmetric coefficient rows: a batch axis
    f = flag.random_coeffs(Lc, 3, seed=L + Lc, real=True).values
    grid = sht._inverse_real(sch, f)
    assert fft_calls == ([] if Lc <= sht._DFT_MAX_BINS else ["irfft"])
    assert grid.dtype == np.float64 and grid.shape == (3,) + sch.grid_shape
    assert np.max(np.abs(grid - sht.sht_inverse(sch, f))) < 1e-12


def test_check_real_bound():
    from ballwav import flag

    L = 6
    f = 10.0 * flag.random_coeffs(L, 2, seed=8, real=True).values
    sht.check_real(f)
    bound = 1e-10 * np.max(np.abs(f))
    for ell, m in ((3, -2), (4, 0), (5, 5)):
        g = f.copy()
        g[1, sht.lm_index(ell, m)] += 0.1 * bound * 1j
        sht.check_real(g)
        g[1, sht.lm_index(ell, m)] += 10.0 * bound * 1j
        with pytest.raises(ArithmeticError, match="real signal"):
            sht.check_real(g)
    # a NaN in either half, or at m = 0, fails whatever the bound
    for ell, m in ((3, -2), (3, 2), (4, 0)):
        g = f.copy()
        g[1, sht.lm_index(ell, m)] = np.nan
        with pytest.raises(ArithmeticError, match="real signal"):
            sht.check_real(g)


def test_check_real_runs_in_blocks_of_rows(monkeypatch):
    import tracemalloc

    from ballwav import flag

    L = P = 32
    f = flag.random_coeffs(L, P, seed=4, real=True).values
    g = f.copy()
    g[P - 1, sht.lm_index(7, -3)] += 1e-6j  # in the last block

    def verdict(c):
        try:
            sht.check_real(c)
        except ArithmeticError as exc:
            return str(exc)
        return None

    one_block = verdict(g)
    assert verdict(f) is None and "real signal" in one_block
    budget = 4 * 16 * L * L  # four coefficient rows of 16 kB
    monkeypatch.setattr(sht, "_BLOCK_BYTES", budget)
    assert len(sht._blocks(P, 16 * L * L)) == P // 4
    assert verdict(f) is None and verdict(g) == one_block
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sht.check_real(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the coefficients take 0.5 MB; in one pass the temporaries took 1.9 times that
    assert peak <= 4 * budget
