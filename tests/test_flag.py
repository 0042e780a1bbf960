import math

import numpy as np
import pytest

from ballwav import flag, flaglet, laguerre, sht, tiling


def test_scheme_properties():
    sch = flag.build_ball_scheme(8, 6, tau=0.5)
    assert sch.L == 8 and sch.P == 6 and sch.tau == 0.5
    assert sch.grid_shape == (6, 8, 15)
    assert sch.R == pytest.approx(sch.radial.nodes[-1])


def test_schemes_are_cached_shared_and_read_only():
    sch = flag.build_ball_scheme(8, 8)
    assert flag.build_ball_scheme(8, 8) is sch
    # one angular scheme per L and one radial scheme per (P, tau)
    assert flag.build_ball_scheme(8, 5).angular is sch.angular
    assert flag.build_ball_scheme(6, 8).radial is sch.radial
    assert flag.build_ball_scheme(8, 8, tau=0.5).radial is not sch.radial
    for arr in (sch.angular._plm, *(blk for _, blk in sch.angular._plm_blocks),
                sch.angular.theta_weights, sch.radial.weighted_basis,
                sch.radial.node_synthesis):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_unit_coefficient_monopole_shells():
    # coefficient (l, m, p) = (0, 0, 0) is angularly constant with radial
    # profile K_0, so every grid point on shell i carries K_0(r_i) * Y_00
    sch = flag.build_ball_scheme(4, 4)
    c = np.zeros((4, 16), dtype=complex)
    c[0, 0] = 1.0
    sig = flag.flag_synthesis(sch, c)
    shells = sch.radial.node_synthesis[:, 0] / (2.0 * math.sqrt(math.pi))
    expect = np.broadcast_to(shells[:, None, None], sig.shape)
    np.testing.assert_allclose(sig, expect, atol=1e-14)
    # closed-form value at the origin
    v0 = laguerre.radial_synthesis(sch.radial, c[:, 0].real, [0.0])[0]
    assert v0 / (2.0 * math.sqrt(math.pi)) == pytest.approx(0.19947114020071635, rel=1e-12)


def test_analysis_recovers_unit_coefficient():
    sch = flag.build_ball_scheme(4, 4)
    c = np.zeros((4, 16), dtype=complex)
    c[0, 0] = 1.0
    back = flag.flag_analysis(sch, flag.flag_synthesis(sch, c))
    assert back[0, 0] == pytest.approx(1.0, rel=1e-12)
    back[0, 0] = 0.0
    assert np.max(np.abs(back)) < 1e-12


def test_zero_signal_zero_coeffs():
    sch = flag.build_ball_scheme(3, 3)
    out = flag.flag_analysis(sch, np.zeros(sch.grid_shape, dtype=complex))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("LP", [8, 16, 32, 128])
def test_round_trip(LP):
    sch = flag.build_ball_scheme(LP, LP)
    f = flag.random_coeffs(LP, LP, seed=LP).values
    back = flag.flag_analysis(sch, flag.flag_synthesis(sch, f))
    assert np.max(np.abs(back - f)) < 1e-9


def test_real_round_trip_L256():
    # the ceiling: a real grid at L=P=256 takes 268 MB, its complex twin 535 MB
    sch = flag.build_ball_scheme(256, 256)
    f = flag.random_coeffs(256, 256, seed=256, real=True).values
    back = flag.flag_analysis(sch, flag.flag_synthesis(sch, f, real=True))
    assert np.max(np.abs(back - f)) < 1e-10


def test_round_trip_off_square_and_tau():
    sch = flag.build_ball_scheme(12, 20, tau=0.3)
    f = flag.random_coeffs(12, 20, seed=7).values
    back = flag.flag_analysis(sch, flag.flag_synthesis(sch, f))
    assert np.max(np.abs(back - f)) < 1e-10


def test_linearity_of_synthesis():
    sch = flag.build_ball_scheme(6, 5)
    c1 = flag.random_coeffs(6, 5, seed=1).values
    c2 = flag.random_coeffs(6, 5, seed=2).values
    a, b = 2.5, -1.25 + 0.5j
    lhs = flag.flag_synthesis(sch, a * c1 + b * c2)
    rhs = a * flag.flag_synthesis(sch, c1) + b * flag.flag_synthesis(sch, c2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_both_transform_orders_agree():
    # radial-then-angular must equal angular-then-radial
    sch = flag.build_ball_scheme(9, 7)
    rng = np.random.default_rng(0)
    grid = rng.standard_normal(sch.grid_shape) + 1j * rng.standard_normal(sch.grid_shape)
    route_a = np.einsum("pi,il->pl", sch.radial.weighted_basis,
                        sht.sht_forward(sch.angular, grid))
    radial_first = np.einsum("pi,itk->ptk", sch.radial.weighted_basis, grid)
    route_b = sht.sht_forward(sch.angular, radial_first)
    assert np.max(np.abs(route_a - route_b)) < 1e-12
    np.testing.assert_allclose(flag.flag_analysis(sch, grid), route_a, atol=1e-12)


def test_parseval_on_ball():
    sch = flag.build_ball_scheme(16, 16)
    f = flag.random_coeffs(16, 16, seed=11).values
    sig = flag.flag_synthesis(sch, f)
    quad = flag.ball_energy_quadrature(sch, sig)
    assert quad == pytest.approx(float(np.sum(np.abs(f) ** 2)), rel=1e-10)


def test_batched_leading_axes():
    sch = flag.build_ball_scheme(5, 4)
    c = np.stack([flag.random_coeffs(5, 4, seed=s).values for s in range(3)])
    grids = flag.flag_synthesis(sch, c)
    assert grids.shape == (3,) + sch.grid_shape
    back = flag.flag_analysis(sch, grids)
    assert np.max(np.abs(back - c)) < 1e-10


def test_band_limit_errors():
    sch = flag.build_ball_scheme(4, 4)
    with pytest.raises(ValueError):
        flag.flag_analysis(sch, np.zeros((4, 4, 8), dtype=complex))
    with pytest.raises(ValueError):
        flag.flag_synthesis(sch, np.zeros((5, 16), dtype=complex))
    with pytest.raises(ValueError):
        flag.flag_synthesis(sch, np.zeros((4, 25), dtype=complex))
    for bandlimits in ((5, 4), (4, 5), (0, 4), (4, 0)):
        with pytest.raises(ValueError):
            flag.flag_analysis(sch, np.zeros(sch.grid_shape), bandlimits)


def test_wrappers_are_not_transform_input():
    # the transforms take arrays; a wrapper fails their shape check
    sch = flag.build_ball_scheme(4, 3)
    c = flag.random_coeffs(4, 3, seed=0)
    with pytest.raises(ValueError):
        flag.flag_synthesis(sch, c)
    sig = flag.BallSignal(scheme=sch, values=flag.flag_synthesis(sch, c.values))
    with pytest.raises(ValueError):
        flag.flag_analysis(sch, sig)


@pytest.mark.parametrize("transform", [
    lambda c: sht.sht_inverse(sht.build_angular_scheme(4), c),
    lambda c: flag.ball_convolve_axisym(c, np.zeros_like(c)),
    lambda c: flag.fourier_bessel(flag.build_bessel_bridge(4, 4), c, [1.0]),
], ids=["sht_inverse", "ball_convolve_axisym", "fourier_bessel"])
def test_packed_length_must_be_square(transform):
    with pytest.raises(ValueError, match="length 5 is not a square"):
        transform(np.ones((3, 5), dtype=complex))


@pytest.mark.parametrize("call", [
    lambda: sht.sht_inverse(sht.build_angular_scheme(4), 3.0),
    lambda: flag.ball_convolve_axisym(1.0, 1.0),
    lambda: flag.fourier_bessel(flag.build_bessel_bridge(4, 4), 1.0, [1.0]),
    lambda: flag.fourier_bessel(flag.build_bessel_bridge(4, 4), np.ones(4), [1.0]),
], ids=["sht_inverse-0d", "ball_convolve_axisym-0d", "fourier_bessel-0d",
        "fourier_bessel-1d"])
def test_too_few_axes_is_a_value_error(call):
    with pytest.raises(ValueError, match="must have shape"):
        call()


def test_real_coeffs_have_conjugate_symmetry():
    L, P = 7, 5
    f = flag.random_coeffs(L, P, seed=13, real=True)
    assert f.real
    ell, m = sht._lm_arrays(L)
    for i in np.where(m > 0)[0]:
        neg = i - 2 * m[i]
        expect = (-1.0) ** m[i] * np.conj(f.values[:, i])
        np.testing.assert_allclose(f.values[:, neg], expect, atol=0)
    sch = flag.build_ball_scheme(L, P)
    sig = flag.flag_synthesis(sch, f.values)
    assert np.max(np.abs(sig.imag)) < 1e-13


def test_convolve_identity_kernel():
    L, P = 5, 4
    f = flag.random_coeffs(L, P, seed=3).values
    l0 = np.arange(L)
    h = np.zeros((P, L * L), dtype=complex)
    h[:, l0 * l0 + l0] = np.sqrt((2.0 * l0 + 1.0) / (4.0 * np.pi))
    out = flag.ball_convolve_axisym(f, h)
    np.testing.assert_allclose(out, f, rtol=1e-14)
    zero = flag.ball_convolve_axisym(np.zeros((P, L * L), dtype=complex), h)
    assert np.all(zero == 0.0)


def test_convolve_rejects_non_axisymmetric_kernel():
    f = flag.random_coeffs(4, 3, seed=1).values
    h = flag.random_coeffs(4, 3, seed=2).values
    with pytest.raises(ValueError):
        flag.ball_convolve_axisym(f, h)
    with pytest.raises(ValueError):
        flag.ball_convolve_axisym(f, flag.random_coeffs(4, 2, seed=2).values)


def test_convolve_matches_brute_force_inner_product():
    # (f * h)(r0, omega0) must equal the ball inner product of f against the
    # kernel rotated to omega0 and translated to r0, computed by quadrature
    L = P = 4
    sch = flag.build_ball_scheme(L, P)
    f = flag.random_coeffs(L, P, seed=21).values
    l0 = np.arange(L)
    rng = np.random.default_rng(22)
    h = np.zeros((P, L * L), dtype=complex)
    h[:, l0 * l0 + l0] = rng.standard_normal((P, L))

    conv = flag.ball_convolve_axisym(f, h)
    k_at_r0 = sch.radial.node_synthesis[1]
    theta0, phi0 = 1.1, 0.7
    y0 = sht.ylm_point(L, theta0, phi0)
    pointwise = np.einsum("pl,p,l->", conv, k_at_r0, y0)

    # rotating an axisymmetric kernel spreads h_l over m via Y_lm(omega0)
    ell, _ = sht._lm_arrays(L)
    fac = np.sqrt(4.0 * np.pi / (2.0 * ell + 1.0))
    moved = fac * h[:, ell * ell + ell] * np.conj(y0) * k_at_r0[:, None]
    grid_f = flag.flag_synthesis(sch, f)
    grid_h = flag.flag_synthesis(sch, moved)
    q = sch.radial.radial_quad_weights
    w = sch.angular.theta_weights * (2.0 * np.pi / sch.angular.n_phi)
    brute = np.einsum("i,t,itk,itk->", q, w, grid_f, np.conj(grid_h))
    assert pointwise == pytest.approx(brute, rel=1e-11)


def test_energy_quadrature_on_known_signal():
    # unit coefficient: quadrature energy must be exactly one
    sch = flag.build_ball_scheme(6, 6)
    c = np.zeros((6, 36), dtype=complex)
    c[2, sht.lm_index(1, -1)] = 1.0
    sig = flag.flag_synthesis(sch, c)
    assert flag.ball_energy_quadrature(sch, sig) == pytest.approx(1.0, rel=1e-12)


# (L, P) over {1, 2, 5, 16, 33}, at full and at reduced band-limits (Lc, Pc)
REAL_BANDS = [(1, 1, 1, 1), (2, 2, 2, 2), (2, 5, 1, 5), (5, 2, 5, 1),
              (5, 5, 2, 2), (16, 16, 16, 16), (16, 33, 7, 33), (33, 16, 33, 5),
              (33, 33, 16, 16), (33, 33, 33, 33)]


@pytest.mark.parametrize("L,P,Lc,Pc", [(6, 5, 6, 5), (6, 5, 1, 1), (6, 5, 6, 2),
                                       (6, 5, 2, 5), (9, 7, 4, 3), (8, 8, 8, 1)]
                         + REAL_BANDS)
def test_analysis_band_limits_are_a_slice(L, P, Lc, Pc):
    sch = flag.build_ball_scheme(L, P, tau=0.8)
    rng = np.random.default_rng(L * P + Lc)
    grid = (rng.standard_normal((2,) + sch.grid_shape)
            + 1j * rng.standard_normal((2,) + sch.grid_shape))
    for g in (grid, grid.real):
        full = flag.flag_analysis(sch, g)
        out = flag.flag_analysis(sch, g, (Lc, Pc))
        assert out.shape == (2, Pc, Lc * Lc)
        assert np.max(np.abs(out - full[:, :Pc, :Lc * Lc])) < 1e-12
    # a float grid takes the real path, with float matmuls on both axes; a
    # float32 grid, batched or single, is read as float64; a zero batch is empty
    for g in (grid.real, grid.real.astype(np.float32), grid.real[0].astype(np.float32),
              grid.real[:0]):
        real_path = flag.flag_analysis(sch, g, (Lc, Pc))
        complex_path = flag.flag_analysis(sch, g.astype(complex), (Lc, Pc))
        assert real_path.dtype == np.complex128
        assert real_path.shape == complex_path.shape
        assert np.max(np.abs(real_path - complex_path), initial=0.0) < 1e-12


@pytest.mark.parametrize("L,P,Lc,Pc", REAL_BANDS)
def test_real_synthesis_matches_complex(L, P, Lc, Pc):
    sch = flag.build_ball_scheme(L, P, tau=0.8)
    block = np.stack([flag.random_coeffs(Lc, Pc, seed=s, real=True).values
                      for s in range(2)])
    grid = flag.flag_synthesis(sch, block, real=True)
    assert grid.dtype == np.float64 and grid.shape == (2,) + sch.grid_shape
    assert np.max(np.abs(grid - flag.flag_synthesis(sch, block))) < 1e-12
    # complex64 coefficients, batched or single, are read as complex128; a
    # zero batch is empty
    for b in (block.astype(np.complex64), block[0].astype(np.complex64), block[:0]):
        grid = flag.flag_synthesis(sch, b, real=True)
        assert grid.dtype == np.float64
        complex_path = flag.flag_synthesis(sch, b.astype(complex))
        assert grid.shape == complex_path.shape
        assert np.max(np.abs(grid - complex_path), initial=0.0) < 1e-12


@pytest.mark.parametrize("call", [
    lambda sch, f: flag.flag_synthesis(sch, f, real=True),
    lambda sch, f: flaglet.analysis_from_coeffs(
        sch, f, tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 6, 4)),
        real=True),
], ids=["flag_synthesis", "analysis_from_coeffs"])
def test_real_claim_on_asymmetric_coeffs_raises(call):
    # the m < 0 half is never read on the real path, so a false claim would
    # drop it silently; each entry that takes the claim checks it once
    sch = flag.build_ball_scheme(6, 4)
    f = flag.random_coeffs(6, 4, seed=5, real=True).values
    call(sch, f)
    g = f.copy()
    g[0, sht.lm_index(3, -1)] += 1e-3
    with pytest.raises(ArithmeticError, match="real signal"):
        call(sch, g)
    # a NaN in the m < 0 half would be dropped as silently
    for ell, m in ((3, -2), (3, 2), (4, 0)):
        g = f.copy()
        g[2, sht.lm_index(ell, m)] = np.nan
        with pytest.raises(ArithmeticError, match="real signal"):
            call(sch, g)


@pytest.mark.parametrize("Lc,Pc", [(1, 1), (3, 2), (6, 4), (2, 5)])
def test_synthesis_of_a_block_matches_zero_padding(Lc, Pc):
    sch = flag.build_ball_scheme(6, 5)
    block = np.stack([flag.random_coeffs(Lc, Pc, seed=s).values for s in range(2)])
    padded = np.zeros((2, 5, 36), dtype=complex)
    padded[:, :Pc, :Lc * Lc] = block
    diff = flag.flag_synthesis(sch, block) - flag.flag_synthesis(sch, padded)
    assert np.max(np.abs(diff)) < 1e-12
