import dataclasses

import numpy as np
import pytest

from ballwav import flag, flaglet, sht, tiling


def _setup(L=16, P=16, lam=2.0, nu=2.0, J0=0, J0p=0):
    scheme = flag.build_ball_scheme(L, P)
    params = tiling.make_tiling_params(lam, nu, L, P, J0=J0, J0p=J0p)
    return scheme, tiling.build_tiling(params)


@pytest.mark.parametrize("multires", [False, True])
def test_round_trip(multires):
    scheme, kernels = _setup()
    f = flag.random_coeffs(16, 16, seed=4)
    sig = flag.flag_synthesis(scheme, f.values)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=multires)
    back = flaglet.flaglet_synthesis(w, kernels, scheme)
    assert np.max(np.abs(back.values - sig)) < 1e-9
    # the coefficient-space pair: no grid on either end
    wc = flaglet.analysis_from_coeffs(scheme, f.values, kernels, multires=multires)
    assert np.max(np.abs(flaglet.synthesis_to_coeffs(wc, kernels, scheme)
                         - f.values)) < 1e-9
    assert np.max(np.abs(wc.scaling - w.scaling)) < 1e-12
    for s in w.scales:
        assert wc.wavelets[s].shape == w.wavelets[s].shape
        assert np.max(np.abs(wc.wavelets[s] - w.wavelets[s])) < 1e-12


def test_multires_and_full_reconstructions_agree():
    scheme, kernels = _setup()
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(16, 16, seed=9).values)
    full = flaglet.flaglet_analysis(scheme, sig, kernels, multires=False)
    multi = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    r_full = flaglet.flaglet_synthesis(full, kernels, scheme)
    r_multi = flaglet.flaglet_synthesis(multi, kernels, scheme)
    assert np.max(np.abs(r_full.values - r_multi.values)) < 1e-10


def test_multires_wavelet_upsamples_to_full_resolution():
    # padding a reduced-grid scale back to the full grid must reproduce the
    # full-resolution wavelet signal: the kernel vanishes above (Lj, Pjp)
    scheme, kernels = _setup()
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(16, 16, seed=2).values)
    full = flaglet.flaglet_analysis(scheme, sig, kernels, multires=False)
    multi = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    for j, jp in multi.scales:
        sub = flaglet.scale_scheme(scheme, kernels.params, j, jp, True)
        g = flag.flag_analysis(sub, multi.wavelets[(j, jp)].astype(complex))
        padded = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
        ell, _ = sht._lm_arrays(sub.L)
        padded[: sub.P, : sub.L * sub.L] = g
        up = flag.flag_synthesis(scheme, padded)
        assert np.max(np.abs(up - full.wavelets[(j, jp)])) < 1e-10


def test_reduced_grids_are_smaller():
    scheme, kernels = _setup()
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(16, 16, seed=1).values)
    multi = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    shapes = {s: multi.wavelets[s].shape for s in multi.scales}
    assert shapes[(1, 1)] == (4, 4, 7)
    assert shapes[(4, 4)] == scheme.grid_shape
    assert multi.scaling.shape == scheme.grid_shape
    full = flaglet.flaglet_analysis(scheme, sig, kernels, multires=False)
    assert all(full.wavelets[s].shape == scheme.grid_shape
               for s in full.scales)


def test_tight_frame_energy():
    # coefficient energy, summed over all scales plus the scaling part,
    # equals the input energy with no per-degree reweighting: the kernel
    # normalization cancels against the analysis prefactor
    scheme, kernels = _setup()
    f = flag.random_coeffs(16, 16, seed=7)
    sig = flag.flag_synthesis(scheme, f.values)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=False)
    e_in = float(np.sum(np.abs(f.values) ** 2))
    total = float(np.sum(np.abs(flag.flag_analysis(scheme, w.scaling)) ** 2))
    for s in w.scales:
        g = flag.flag_analysis(scheme, w.wavelets[s])
        total += float(np.sum(np.abs(g) ** 2))
    assert total == pytest.approx(e_in, rel=1e-9)


def test_zero_signal_maps_to_zero():
    scheme, kernels = _setup(L=8, P=8)
    zero = np.zeros(scheme.grid_shape)
    w = flaglet.flaglet_analysis(scheme, zero, kernels)
    assert np.all(w.scaling == 0.0)
    assert all(np.all(w.wavelets[s] == 0.0) for s in w.scales)
    back = flaglet.flaglet_synthesis(w, kernels, scheme)
    assert np.all(back.values == 0.0)


def test_single_mode_lands_in_matching_scales():
    # a coefficient at (l, p) = (3, 3) lives strictly inside scales 1 and 2
    # on both axes for lam = nu = 2, and nowhere else
    scheme, kernels = _setup()
    c = np.zeros((16, 256), dtype=complex)
    c[3, sht.lm_index(3, 0)] = 1.0
    sig = flag.flag_synthesis(scheme, c)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=False)
    assert np.max(np.abs(w.scaling)) < 1e-14
    hot = {s for s in w.scales if np.max(np.abs(w.wavelets[s])) > 1e-14}
    assert hot == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_linearity():
    scheme, kernels = _setup(L=8, P=8)
    s1 = flag.flag_synthesis(scheme, flag.random_coeffs(8, 8, seed=11).values)
    s2 = flag.flag_synthesis(scheme, flag.random_coeffs(8, 8, seed=12).values)
    a, b = 1.5, -0.5 + 2.0j
    w1 = flaglet.flaglet_analysis(scheme, s1, kernels)
    w2 = flaglet.flaglet_analysis(scheme, s2, kernels)
    w12 = flaglet.flaglet_analysis(scheme, a * s1 + b * s2, kernels)
    for s in w12.scales:
        combo = a * w1.wavelets[s] + b * w2.wavelets[s]
        assert np.max(np.abs(w12.wavelets[s] - combo)) < 1e-12
    combo0 = a * w1.scaling + b * w2.scaling
    assert np.max(np.abs(w12.scaling - combo0)) < 1e-12


def test_real_input_yields_real_arrays():
    scheme, kernels = _setup(L=8, P=8)
    f = flag.random_coeffs(8, 8, seed=3, real=True)
    sig = flag.flag_synthesis(scheme, f.values)
    real_grid = sig.real
    w = flaglet.flaglet_analysis(scheme, real_grid, kernels, multires=True)
    assert w.scaling.dtype.kind == "f"
    assert all(w.wavelets[s].dtype.kind == "f" for s in w.scales)
    back = flaglet.flaglet_synthesis(w, kernels, scheme)
    assert back.values.dtype.kind == "f"
    assert np.max(np.abs(back.values - real_grid)) < 1e-9
    # complex input stays complex
    wc = flaglet.flaglet_analysis(scheme, sig, kernels)
    assert wc.scaling.dtype.kind == "c"
    # the real path matches the complex one on the same grid, part by part
    for multires in (False, True):
        w = flaglet.flaglet_analysis(scheme, real_grid, kernels, multires=multires)
        wc = flaglet.flaglet_analysis(scheme, real_grid.astype(complex), kernels,
                                      multires=multires)
        for s in w.scales:
            assert np.max(np.abs(w.wavelets[s] - wc.wavelets[s])) < 1e-12
        assert np.max(np.abs(w.scaling - wc.scaling)) < 1e-12
        rec = flaglet.flaglet_synthesis(w, kernels, scheme).values
        rec_c = flaglet.flaglet_synthesis(wc, kernels, scheme).values
        assert np.max(np.abs(rec - rec_c)) < 1e-12
    # float32 parts are read as float64
    w32, wc32 = (dataclasses.replace(
        w, scaling=w.scaling.astype(np.float32).astype(dt),
        wavelets={s: v.astype(np.float32).astype(dt) for s, v in w.wavelets.items()})
        for dt in (np.float32, complex))
    rec = flaglet.flaglet_synthesis(w32, kernels, scheme).values
    assert rec.dtype == np.float64
    rec_c = flaglet.flaglet_synthesis(wc32, kernels, scheme).values
    assert np.max(np.abs(rec - rec_c)) < 1e-12


def test_band_limit_mismatch_raises():
    scheme, kernels = _setup(L=8, P=8)
    other_scheme = flag.build_ball_scheme(16, 8)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(8, 8, seed=1).values)
    with pytest.raises(ValueError):
        flaglet.flaglet_analysis(other_scheme, sig, kernels)
    w = flaglet.flaglet_analysis(scheme, sig, kernels)
    other_kernels = tiling.build_tiling(tiling.make_tiling_params(3.0, 2.0, 8, 8))
    with pytest.raises(ValueError):
        flaglet.flaglet_synthesis(w, other_kernels, scheme)


def test_scales_property_matches_params():
    scheme, kernels = _setup(L=16, P=16, J0=1, J0p=2)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(16, 16, seed=6).values)
    w = flaglet.flaglet_analysis(scheme, sig, kernels)
    assert w.scales == kernels.params.scales
    assert set(w.wavelets) == set(kernels.params.scales)
    back = flaglet.flaglet_synthesis(w, kernels, scheme)
    assert np.max(np.abs(back.values - sig)) < 1e-9


@pytest.mark.parametrize("L,P,lam,nu", [(16, 16, 2.0, 2.0), (12, 9, 3.0, 2.0)])
def test_full_resolution_scale_matches_padded_synthesis(L, P, lam, nu):
    # a full-resolution scale is computed at its kernel band-limits; it must
    # equal the full-band synthesis of its zero-padded coefficient block, and
    # the scaling part that of its full-band block
    scheme, kernels = _setup(L=L, P=P, lam=lam, nu=nu)
    f = flag.random_coeffs(L, P, seed=12).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, multires=False)
    fac = flag.sqrt4pi_factor(L)
    parts = {None: (w.scaling, kernels.phi)}
    parts.update({s: (w.wavelets[s], kernels.psi_scale(*s)) for s in w.scales})
    for part, kern2d in parts.values():
        padded = fac[None, :] * f * flaglet._packed_kernel(kern2d, L, P)
        ref = flag.flag_synthesis(scheme, padded)
        assert np.max(np.abs(part - ref)) < 1e-12


def test_part_on_wrong_grid_raises():
    # a multires set whose part sits on the full grid, not its scale's grid
    scheme, kernels = _setup(L=8, P=8)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(8, 8, seed=3).values)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    assert flaglet.scale_scheme(scheme, kernels.params, 1, 1, True).grid_shape \
        != scheme.grid_shape
    w.wavelets[(1, 1)] = np.zeros(scheme.grid_shape, dtype=complex)
    with pytest.raises(ValueError):
        flaglet.synthesis_to_coeffs(w, kernels, scheme)
