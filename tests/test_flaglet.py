import dataclasses

import numpy as np
import pytest

from ballwav import flag, flaglet, sht, tiling

from _memory import peak_above_inputs


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


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("multires", [False, True])
def test_parts_are_disjoint_views_into_one_block(multires, real):
    # writing into one part leaves every other part byte-unchanged
    scheme, kernels = _setup(L=8, P=8)
    f = flag.random_coeffs(8, 8, seed=5, real=real).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, multires=multires, real=real)
    parts = [w.scaling, *w.wavelets.values()]
    assert len({id(p.base) for p in parts}) == 1 and parts[0].base is not None
    before = [p.tobytes() for p in parts]
    for i, part in enumerate(parts):
        part[...] = np.nan
        assert [p.tobytes() for j, p in enumerate(parts) if j != i] \
            == before[:i] + before[i + 1:]
        part[...] = np.frombuffer(before[i], dtype=part.dtype).reshape(part.shape)


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


@pytest.mark.parametrize("multires", [False, True])
@pytest.mark.parametrize("j, jp", [(1.5, 1), (1, 1.5), (2.0, 1), (4, 0), (0, -1)])
def test_scale_bandlimits_rejects_a_scale_the_tiling_lacks(j, jp, multires):
    # in either mode: (1.5, 1) gave the band-limits (6, 4) of no scale, and at
    # full resolution any key gave (L, P); numpy integers pass
    params = tiling.make_tiling_params(2.0, 2.0, 8, 8)
    with pytest.raises(ValueError, match="scale out of range"):
        flaglet.scale_bandlimits(params, j, jp, multires)
    want = (4, 4) if multires else (8, 8)
    assert flaglet.scale_bandlimits(params, np.int64(1), np.int32(1), multires) == want


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


@pytest.mark.parametrize("L,P,lam,nu,J0,multires", [
    pytest.param(16, 16, 2.0, 2.0, 0, False, id="16-16-2.0-2.0"),
    pytest.param(12, 9, 3.0, 2.0, 0, False, id="12-9-3.0-2.0"),
    pytest.param(12, 9, 3.0, 2.0, 1, False, id="12-9-3.0-2.0-J0=1"),
    pytest.param(10, 14, 2.0, 2.0, 1, False, id="10-14-2.0-2.0-J0=1"),
    pytest.param(16, 16, 2.0, 2.0, 0, True, id="16-16-2.0-2.0-multires"),
    pytest.param(12, 9, 3.0, 2.0, 1, True, id="12-9-3.0-2.0-J0=1-multires"),
    pytest.param(10, 14, 2.0, 2.0, 1, True, id="10-14-2.0-2.0-J0=1-multires"),
])
def test_full_resolution_scale_matches_padded_synthesis(L, P, lam, nu, J0, multires):
    # a scale is computed from the factors of its kernel; at full resolution
    # it must equal the full-band synthesis of its zero-padded coefficient
    # block, in multires mode the synthesis of its (Lj, Pjp) block on the
    # scale's own scheme, and the scaling part that of its full-band block
    scheme, kernels = _setup(L=L, P=P, lam=lam, nu=nu, J0=J0, J0p=J0)
    f = flag.random_coeffs(L, P, seed=12).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, multires=multires)
    parts = [(scheme, w.scaling, kernels.phi)]
    parts += [(flaglet.scale_scheme(scheme, kernels.params, *s, multires),
               w.wavelets[s], kernels.psi_scale(*s)) for s in w.scales]
    for sub, part, kern2d in parts:
        Lc, Pc = sub.L, sub.P
        block = (flag.sqrt4pi_factor(Lc)[None, :] * f[:Pc, : Lc * Lc]
                 * flaglet._packed_kernel(kern2d, Lc, Pc))
        ref = flag.flag_synthesis(sub, block)
        assert np.max(np.abs(part - ref)) < 1e-12


_SUPPORT_CASES = [(8, 8, 2.0, 2.0, 0), (32, 32, 2.0, 2.0, 0), (33, 20, 1.5, 1.3, 1),
                  (16, 16, 2.0, 2.0, 2)]


def _untrimmed(axes):
    """The walk's axes with every radial matrix over all rows p < Pjp, the
    zeros of kb_jp below its support included."""
    angular, radial = axes
    return angular, [rad._replace(
        lo=0, synthesis=rad.scheme.node_synthesis[:, : rad.P] * rad.kb,
        analysis=rad.kb[:, None] * rad.scheme.weighted_basis[: rad.P]) for rad in radial]


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("multires", [False, True])
@pytest.mark.parametrize("L,P,lam,nu,J0p", _SUPPORT_CASES)
def test_radial_products_run_over_the_kernel_support(L, P, lam, nu, J0p, multires, real):
    # trimming the rows where kb_jp is zero changes parts and coefficients
    # by rounding only; at nu = 1.3 no radial order lies strictly between
    # nu^0 and nu^2, so kb_1 is all zero, its matrices are empty and its
    # parts must come out exactly zero
    scheme, kernels = _setup(L=L, P=P, lam=lam, nu=nu, J0p=J0p)
    axes = flaglet._axes(scheme, kernels, multires)
    for rad in axes[1]:
        assert not rad.kb[: rad.lo].any()
        assert rad.lo == rad.P or rad.kb[rad.lo] != 0
        assert rad.synthesis.shape[1] == rad.analysis.shape[0] == rad.P - rad.lo
    empty = {rad.jp for rad in axes[1] if rad.lo == rad.P}
    assert empty == ({1} if nu == 1.3 else set())
    f = flag.random_coeffs(L, P, seed=13, real=real).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, multires=multires, real=real)
    ref = {}

    def keep(key, part, ang, rad):
        ref[key] = part

    flaglet._walk(scheme, kernels, _untrimmed(axes), keep, f, real)
    assert ref.keys() == {None, *w.wavelets}
    assert _close(w.scaling, ref.pop(None))
    for key, part in ref.items():
        assert _close(w.wavelets[key], part), key
        assert key[1] not in empty or not w.wavelets[key].any()

    def stored(key, part, ang, rad):
        return w.scaling if key is None else w.wavelets[key]

    want = flaglet._walk(scheme, kernels, _untrimmed(axes), stored, real=real)
    assert _close(flaglet.synthesis_to_coeffs(w, kernels, scheme), want)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("multires", [False, True])
@pytest.mark.parametrize("L,P,J0p", [(32, 32, 0), (16, 16, 2)])
def test_walk_transforms_only_the_rows_a_part_reads(monkeypatch, L, P, J0p, multires, real):
    # kb_jp(0) = 0 at every dilation, so no part reads row 0, and at J0p = 2
    # none reads rows 0..2: each angular scale's transforms skip those rows
    scheme, kernels = _setup(L=L, P=P, J0p=J0p)
    angular, radial = flaglet._axes(scheme, kernels, multires)
    lo, Pm = min(rad.lo for rad in radial), max(rad.P for rad in radial)
    assert lo == {0: 1, 2: 3}[J0p]
    calls = []
    for name in ("sht_inverse", "_inverse_real", "sht_forward"):
        def spy(ang, vals, *args, _name=name, _call=getattr(sht, name)):
            calls.append((_name, ang, np.shape(vals)))
            return _call(ang, vals, *args)

        monkeypatch.setattr(sht, name, spy)
    f = flag.random_coeffs(L, P, seed=2, real=real).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, multires, real)
    flaglet.synthesis_to_coeffs(w, kernels, scheme)
    # the walk's own transforms come last in each direction, one per j,
    # after those of the scaling part
    analysis = [c for c in calls if c[0] == ("_inverse_real" if real else "sht_inverse")]
    synthesis = [c for c in calls if c[0] == "sht_forward"]
    for ang, (_, a_ang, a_shape), (_, s_ang, s_shape) in zip(
            angular, analysis[-len(angular):], synthesis[-len(angular):]):
        assert a_ang is ang.scheme and s_ang is ang.scheme
        assert a_shape == (Pm - lo, ang.L * ang.L)
        assert s_shape == (Pm - lo,) + ang.scheme.grid_shape


def test_part_on_wrong_grid_raises():
    # a multires set whose part sits on the full grid, not its scale's grid
    scheme, kernels = _setup(L=8, P=8)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(8, 8, seed=3).values)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    assert flaglet.scale_scheme(scheme, kernels.params, 1, 1, True).grid_shape \
        != scheme.grid_shape
    part = w.wavelets[(1, 1)]
    w.wavelets[(1, 1)] = np.zeros(scheme.grid_shape, dtype=complex)
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        flaglet.synthesis_to_coeffs(w, kernels, scheme)
    # nor may a part that would broadcast onto its scale's grid
    w.wavelets[(1, 1)] = part
    Pjp = flaglet.scale_scheme(scheme, kernels.params, 2, 1, True).P
    w.wavelets[(2, 1)] = np.ones((Pjp, 1, 1), dtype=complex)
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        flaglet.synthesis_to_coeffs(w, kernels, scheme)


def test_multires_round_trip_at_the_L128_ceiling():
    # a real signal at L=P=128, lambda=nu=2: 64 scales on 7 distinct
    # band-limits per axis, which share the cached angular and radial schemes
    L = P = 128
    scheme, kernels = _setup(L, P)
    subs = [flaglet.scale_scheme(scheme, kernels.params, j, jp, True)
            for j, jp in kernels.params.scales]
    assert len(subs) == 64
    assert len({id(s.angular) for s in subs}) == 7
    assert len({id(s.radial) for s in subs}) == 7
    assert all(s.angular is scheme.angular for s in subs if s.L == L)
    f = flag.random_coeffs(L, P, seed=11, real=True).values
    sig = flag.flag_synthesis(scheme, f, real=True)
    w = flaglet.flaglet_analysis(scheme, sig, kernels, multires=True)
    back = flaglet.flaglet_synthesis(w, kernels, scheme)
    assert not np.iscomplexobj(back.values)
    assert np.max(np.abs(flag.flag_analysis(scheme, back.values) - f)) < 1e-9


def _peak_in_real_parts(scheme, call):
    """(traced peak of call() in full real grids of scheme, its result),
    after one untraced call fills the lazy caches."""
    call()
    peak, out = peak_above_inputs(call)
    return peak / np.empty(scheme.grid_shape).nbytes, out


def test_analysis_holds_little_above_the_set():
    # full resolution, real, L=P=32: above its 37-part block the analysis
    # holds one angular scale's coefficient rows and grid and the transforms'
    # scratch, about 3.2 parts; keeping a grid past its angular scale takes
    # it above 4
    scheme, kernels = _setup(L=32, P=32)
    f = flag.random_coeffs(32, 32, seed=6, real=True).values
    peak, w = _peak_in_real_parts(
        scheme, lambda: flaglet.analysis_from_coeffs(scheme, f, kernels, real=True))
    parts = [w.scaling, *w.wavelets.values()]
    assert len(parts) == 37 and {p.shape for p in parts} == {scheme.grid_shape}
    assert peak - 37 <= 4


def test_synthesis_accumulates_in_one_reused_grid():
    # full resolution, real, L=P=32: the result, one accumulation grid that
    # every angular scale reuses and the transforms' scratch, about 4.7
    # parts; a fresh accumulation grid per angular scale, or the whole
    # (P, L^2) scaling kernel, takes it above 5
    scheme, kernels = _setup(L=32, P=32)
    f = flag.random_coeffs(32, 32, seed=7, real=True).values
    w = flaglet.analysis_from_coeffs(scheme, f, kernels, real=True)
    peak, _ = _peak_in_real_parts(
        scheme, lambda: flaglet.synthesis_to_coeffs(w, kernels, scheme))
    assert peak <= 5


def test_analysis_from_coeffs_rejects_kernels_of_other_bandlimits():
    scheme, _ = _setup(L=8, P=8)
    _, kernels = _setup(L=8, P=6)
    f = flag.random_coeffs(8, 8, seed=1).values
    with pytest.raises(ValueError, match="kernel band-limits do not match scheme"):
        flaglet.analysis_from_coeffs(scheme, f, kernels)


def test_analysis_from_coeffs_rejects_coefficients_of_other_bandlimits():
    scheme, kernels = _setup(L=8, P=8)
    f = flag.random_coeffs(6, 8, seed=1).values
    with pytest.raises(ValueError, match="coefficient band-limits do not match scheme"):
        flaglet.analysis_from_coeffs(scheme, f, kernels)
