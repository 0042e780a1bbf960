from dataclasses import replace

import numpy as np
import pytest

from ballwav import denoise, flag, flaglet, laguerre, sht, tiling

from _memory import peak_above_inputs


def _kernels(L, P, lam=2.0, nu=2.0):
    return tiling.build_tiling(tiling.make_tiling_params(lam, nu, L, P))


def test_noise_determinism_and_symmetry():
    m1 = denoise.NoiseModel(sigma=1.0, L=8, P=8, seed=42)
    n1 = denoise.generate_noise(m1)
    n2 = denoise.generate_noise(m1)
    assert np.array_equal(n1.values, n2.values)
    n3 = denoise.generate_noise(denoise.NoiseModel(sigma=1.0, L=8, P=8, seed=43))
    assert not np.array_equal(n1.values, n3.values)
    # the p = 0 row carries zero variance
    assert np.all(n1.values[0] == 0.0)
    ell, m = sht._lm_arrays(8)
    pos = np.where(m > 0)[0]
    neg = pos - 2 * m[pos]
    np.testing.assert_array_equal(n1.values[:, neg],
                                  (-1.0) ** m[pos] * np.conj(n1.values[:, pos]))
    with pytest.raises(ValueError):
        denoise.NoiseModel(sigma=-1.0, L=8, P=8, seed=0)


def test_noise_variance_follows_radial_ramp():
    # ensemble second moment of n_lmp is sigma^2 (p/P)^2 for every m
    L, P, sigma = 4, 8, 1.5
    draws = np.stack([
        denoise.generate_noise(denoise.NoiseModel(sigma=sigma, L=L, P=P, seed=s)).values
        for s in range(4000)
    ])
    var = np.mean(np.abs(draws) ** 2, axis=0)
    expect = (sigma * np.arange(P) / P) ** 2
    for p in range(1, P):
        np.testing.assert_allclose(var[p], expect[p], rtol=0.12)
        assert np.median(var[p]) == pytest.approx(expect[p], rel=0.05)


def test_predict_sigma_scales_linearly():
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    base = denoise.predict_sigma(kern, denoise.NoiseModel(1.0, L, P, 0), scheme)
    dbl = denoise.predict_sigma(kern, denoise.NoiseModel(2.0, L, P, 0), scheme)
    zero = denoise.predict_sigma(kern, denoise.NoiseModel(0.0, L, P, 0), scheme)
    for key in base.profiles:
        assert np.array_equal(2.0 * base.profiles[key], dbl.profiles[key])
        assert np.all(zero.profiles[key] == 0.0)
    with pytest.raises(ValueError):
        denoise.predict_sigma(kern, denoise.NoiseModel(1.0, L, 16, 0), scheme)


def test_predict_sigma_against_direct_formula():
    # independent reimplementation: sigma^2 sum_lp ramp^2 psi^2 K_p(r)^2,
    # at the full nodes and at each scale's own radial nodes
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    ramp2 = (np.arange(P) / P) ** 2
    for multires in (False, True):
        plan = denoise.predict_sigma(kern, denoise.NoiseModel(1.3, L, P, 0),
                                     scheme, multires=multires)
        for (j, jp), prof in plan.profiles.items():
            psi = kern.psi_scale(j, jp)
            nodes = scheme.radial.nodes
            if multires:
                _, Pjp = tiling.kernel_bandlimits(kern.params, j, jp)
                nodes = laguerre.build_radial_scheme(Pjp, scheme.tau).nodes
            expect = np.empty(nodes.size)
            for i, r in enumerate(nodes):
                acc = 0.0
                for p in range(P):
                    kp = laguerre.basis_k(scheme.radial, p, np.array([r]))[0]
                    acc += ramp2[p] * np.sum(psi[:, p] ** 2) * kp * kp
                expect[i] = 1.3 * np.sqrt(acc)
            np.testing.assert_allclose(prof, expect, rtol=1e-10)


def test_predict_sigma_variance_matches_monte_carlo():
    # wavelet-domain sample std of many noise draws against the prediction
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sigma = 1.0
    plan = denoise.predict_sigma(kern, denoise.NoiseModel(sigma, L, P, 0), scheme,
                                 multires=False)
    n_draws = 300
    acc = {key: [] for key in plan.profiles}
    for s in range(n_draws):
        n = denoise.generate_noise(denoise.NoiseModel(sigma, L, P, seed=1000 + s))
        grid = flag.flag_synthesis(scheme, n.values)
        w = flaglet.flaglet_analysis(scheme, grid, kern, multires=False)
        for key in acc:
            acc[key].append(w.wavelets[key])
    for key, prof in plan.profiles.items():
        stack = np.stack(acc[key])
        std = np.sqrt(np.mean(np.abs(stack) ** 2, axis=(0, 2, 3)))
        mask = prof > 1e-6 * prof.max()
        np.testing.assert_allclose(std[mask], prof[mask], rtol=0.15)


def test_hard_threshold_behaviour():
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(L, P, seed=5).values)
    w = flaglet.flaglet_analysis(scheme, sig, kern, multires=True)
    model = denoise.NoiseModel(1.0, L, P, 0)
    plan = denoise.predict_sigma(kern, model, scheme)

    # zero sigma keeps everything
    plan0 = denoise.predict_sigma(kern, denoise.NoiseModel(0.0, L, P, 0), scheme)
    kept0 = denoise.hard_threshold(w, plan0)
    for key in w.wavelets:
        np.testing.assert_array_equal(kept0.wavelets[key],
                                      w.wavelets[key])

    # a huge multiplier kills every wavelet sample but leaves scaling alone
    plan_huge = denoise.ThresholdPlan(profiles=plan.profiles, multiplier=1e12,
                                      multires=True)
    killed = denoise.hard_threshold(w, plan_huge)
    assert all(np.all(killed.wavelets[k] == 0.0) for k in killed.wavelets)
    np.testing.assert_array_equal(killed.scaling, w.scaling)

    # thresholding twice changes nothing
    kept = denoise.hard_threshold(w, plan)
    again = denoise.hard_threshold(kept, plan)
    for key in kept.wavelets:
        np.testing.assert_array_equal(again.wavelets[key],
                                      kept.wavelets[key])


def test_hard_threshold_keeps_exact_boundary_sample():
    # strict inequality: a sample equal to the cut survives
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(L, P, seed=1).values)
    w = flaglet.flaglet_analysis(scheme, sig, kern, multires=True)
    key = (1, 1)
    profiles = {k: np.zeros(w.wavelets[k].shape[0]) for k in w.wavelets}
    target = np.abs(w.wavelets[key][0, 0, 0])
    assert target > 0
    profiles[key][0] = target
    plan = denoise.ThresholdPlan(profiles=profiles, multiplier=1.0, multires=True)
    kept = denoise.hard_threshold(w, plan)
    assert kept.wavelets[key][0, 0, 0] == w.wavelets[key][0, 0, 0]
    below = np.abs(w.wavelets[key][0]) < target
    assert np.all(kept.wavelets[key][0][below] == 0.0)


def test_hard_threshold_validation():
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(L, P, seed=2).values)
    w = flaglet.flaglet_analysis(scheme, sig, kern, multires=True)
    plan = denoise.predict_sigma(kern, denoise.NoiseModel(1.0, L, P, 0), scheme,
                                 multires=False)
    with pytest.raises(ValueError):
        denoise.hard_threshold(w, plan)
    bad = {k: np.zeros(3) for k in w.wavelets}
    with pytest.raises(ValueError):
        denoise.hard_threshold(w, denoise.ThresholdPlan(profiles=bad, multires=True))


def test_snr_values():
    a = flag.random_coeffs(4, 4, seed=0).values
    assert denoise.snr(a, a) == float("inf")
    assert denoise.snr(a, 2.0 * a) == pytest.approx(0.0, abs=1e-12)
    shifted = a * (1.0 + 0.1)
    expect = 10.0 * np.log10(1.0 / 0.01)
    assert denoise.snr(a, shifted) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        denoise.snr(a, np.zeros((5, 16), dtype=complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_snr_beyond_double_range_of_the_powers():
    # the powers |r|^2 overflow or underflow, their ratio's logarithm does not
    a = flag.random_coeffs(4, 4, seed=0).values
    assert denoise.snr(a, a + 1e200 * a) == pytest.approx(-4000.0, rel=1e-12)
    assert denoise.snr(1e-200 * a, 2e-200 * a) == pytest.approx(0.0, abs=1e-12)
    assert denoise.snr(0.0 * a, a) == -np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_noise_leaving_double_range_raises():
    model = denoise.NoiseModel(sigma=1e308, L=16, P=16, seed=0)
    with pytest.raises(ValueError, match="double range"):
        denoise.generate_noise(model)
    n = denoise.generate_noise(denoise.NoiseModel(sigma=1e300, L=16, P=16, seed=0))
    assert np.all(np.isfinite(n.values))


def test_make_sparse_signal_properties():
    L = P = 16
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    s1 = denoise.make_sparse_signal(scheme, kern, seed=3)
    s2 = denoise.make_sparse_signal(scheme, kern, seed=3)
    assert np.array_equal(s1.values, s2.values)
    assert np.sum(np.abs(s1.values) ** 2) == pytest.approx(1.0, rel=1e-12)
    grid = flag.flag_synthesis(scheme, s1.values)
    assert np.max(np.abs(grid.imag)) < 1e-10


def test_scale_noise_to_snr_hits_target():
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sig = denoise.make_sparse_signal(scheme, kern, seed=1)
    noise = denoise.generate_noise(denoise.NoiseModel(1.0, L, P, seed=9))
    scaled, alpha = denoise.scale_noise_to_snr(sig, noise, 5.0)
    assert denoise.snr(sig.values, sig.values + scaled.values) \
        == pytest.approx(5.0, abs=1e-9)
    assert alpha > 0
    zero = flag.FlagCoeffs(L, P, np.zeros((P, L * L), dtype=complex))
    with pytest.raises(ValueError):
        denoise.scale_noise_to_snr(sig, zero, 5.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_scale_noise_to_snr_hits_target_at_any_noise_scale(scale):
    # the squares of such noise overflow or underflow; its log-norm does not
    L = P = 4
    sig = flag.random_coeffs(L, P, 0, real=True)
    noise = denoise.generate_noise(denoise.NoiseModel(scale, L, P, seed=0))
    scaled, alpha = denoise.scale_noise_to_snr(sig, noise, 5.0)
    assert denoise.snr(sig.values, sig.values + scaled.values) \
        == pytest.approx(5.0, abs=1e-9)
    assert alpha * scale == pytest.approx(
        denoise.scale_noise_to_snr(sig, denoise.generate_noise(
            denoise.NoiseModel(1.0, L, P, seed=0)), 5.0)[1], rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("L, finite", [(4, True), (8, False)])
def test_pipeline_noise_at_the_top_of_double_range(L, finite):
    # sigma 1e308 noise is finite; its parts stay so at L=P=4, while at
    # L=P=8 a synthesis overflows and the call raises instead of returning NaN
    P = L
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    clean = flag.random_coeffs(L, P, 0, real=True)
    model = denoise.NoiseModel(1e308, L, P, seed=0)
    noisy = flag.FlagCoeffs(L, P, clean.values + denoise.generate_noise(model).values,
                            real=True)
    if finite:
        den, _, _ = denoise.denoise_pipeline(scheme, kern, clean, noisy, model)
        assert np.all(np.isfinite(den.values))
    else:
        with pytest.raises(ValueError, match="double range"):
            denoise.denoise_pipeline(scheme, kern, clean, noisy, model)


def test_pipeline_improves_snr():
    L = P = 32
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    clean = denoise.make_sparse_signal(scheme, kern, seed=1)
    noise = denoise.generate_noise(denoise.NoiseModel(1.0, L, P, seed=2))
    scaled, alpha = denoise.scale_noise_to_snr(clean, noise, 5.0)
    noisy = flag.FlagCoeffs(L, P, clean.values + scaled.values, real=True)
    model = denoise.NoiseModel(alpha, L, P, seed=2)
    den, snr_in, snr_out = denoise.denoise_pipeline(scheme, kern, clean, noisy,
                                                    model)
    assert snr_in == pytest.approx(5.0, abs=1e-6)
    assert snr_out > snr_in + 3.0
    # a real noisy signal gives real parts and a real result
    assert den.real
    sht.check_real(den.values)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("multires", [True, False])
def test_pipeline_is_the_threshold_of_the_coefficient_set(multires, real):
    # the one walk gives the bytes of the public steps run one after another
    L = P = 16
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    clean = denoise.make_sparse_signal(scheme, kern, seed=6)
    noise = denoise.generate_noise(denoise.NoiseModel(1.0, L, P, seed=7))
    scaled, alpha = denoise.scale_noise_to_snr(clean, noise, 5.0)
    vals = clean.values + scaled.values
    if not real:
        vals = vals + 0.1j * alpha * flag.random_coeffs(L, P, seed=8).values
    noisy = flag.FlagCoeffs(L, P, vals, real=real)
    model = denoise.NoiseModel(alpha, L, P, seed=7)
    den, snr_in, snr_out = denoise.denoise_pipeline(
        scheme, kern, clean, noisy, model, multires=multires, multiplier=2.5)
    plan = replace(denoise.predict_sigma(kern, model, scheme, multires=multires),
                   multiplier=2.5)
    w = denoise.hard_threshold(flaglet.analysis_from_coeffs(
        scheme, vals, kern, multires=multires, real=real), plan)
    kept = sum(np.count_nonzero(v) for v in w.wavelets.values())
    assert 0 < kept < sum(v.size for v in w.wavelets.values())
    want = flaglet.synthesis_to_coeffs(w, kern, scheme)
    assert np.array_equal(den.values, want) and den.real == real
    assert snr_in == denoise.snr(clean.values, vals)
    assert snr_out == denoise.snr(clean.values, want)


@pytest.mark.parametrize("real", [True, False])
def test_pipeline_holds_a_few_parts_not_the_set(real):
    # full resolution at L=P=32 makes 37 parts of one grid each; holding the
    # set and its thresholded copy would take about 78 parts, the walk 5 to 7
    L = P = 32
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    clean = denoise.make_sparse_signal(scheme, kern, seed=1)
    model = denoise.NoiseModel(0.01, L, P, seed=2)
    vals = clean.values + denoise.generate_noise(model).values
    if not real:
        vals = vals + 0.01j * flag.random_coeffs(L, P, seed=3).values
    noisy = flag.FlagCoeffs(L, P, vals, real=real)

    def run():
        return denoise.denoise_pipeline(scheme, kern, clean, noisy, model,
                                        multires=False)

    run()  # fill the lazy caches outside the measurement
    peak, _ = peak_above_inputs(run)
    part = np.empty(scheme.grid_shape, dtype=float if real else complex).nbytes
    assert peak <= 10 * part


def test_pipeline_reuses_cached_schemes(monkeypatch):
    # every per-scale scheme, in the transform and in the noise prediction,
    # comes from the cache of flag.build_ball_scheme, so a second run builds
    # no radial scheme; the noise prediction reads the basis at the nodes off
    # those schemes
    L = P = 16
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    clean = denoise.make_sparse_signal(scheme, kern, seed=4)
    noise = denoise.generate_noise(denoise.NoiseModel(1.0, L, P, seed=5))
    noisy = flag.FlagCoeffs(L, P, clean.values + noise.values, real=True)
    model = denoise.NoiseModel(1.0, L, P, seed=5)
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("build_radial_scheme", "synthesis_matrix"):
        monkeypatch.setattr(laguerre, name, counted(getattr(laguerre, name)))
    flag.build_ball_scheme.cache_clear()
    denoise.denoise_pipeline(scheme, kern, clean, noisy, model)
    assert "build_radial_scheme" in calls
    calls.clear()
    denoise.denoise_pipeline(scheme, kern, clean, noisy, model)
    assert calls == []
    denoise.denoise_pipeline(scheme, kern, clean, noisy, model, multires=False)
    assert calls == []


def test_hard_threshold_rejects_profile_off_the_part_grid():
    # each profile must fit its part's radial axis: a full-resolution plan
    # on a multires set, or a full-grid part in a multires set, fails
    L = P = 8
    kern = _kernels(L, P)
    scheme = flag.build_ball_scheme(L, P)
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(L, P, seed=2).values)
    w = flaglet.flaglet_analysis(scheme, sig, kern, multires=True)
    model = denoise.NoiseModel(1.0, L, P, 0)
    full = denoise.predict_sigma(kern, model, scheme, multires=False)
    with pytest.raises(ValueError, match="profile length"):
        denoise.hard_threshold(w, denoise.ThresholdPlan(profiles=full.profiles,
                                                        multires=True))
    plan = denoise.predict_sigma(kern, model, scheme, multires=True)
    denoise.hard_threshold(w, plan)
    w.wavelets[(1, 1)] = np.zeros(scheme.grid_shape, dtype=complex)
    with pytest.raises(ValueError, match="profile length"):
        denoise.hard_threshold(w, plan)
