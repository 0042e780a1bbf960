"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS line with the
measured margin and wall time (visible in the -rP capture section). The
tolerances and runtime budgets are asserted, not just reported.
"""

import time

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from ballwav import cli, denoise, flag, flaglet, laguerre, tiling

from _bessel_oracle import KS, TABLE


def _report(num, name, metric, t0):
    print("criterion %d (%s): PASS (%s, %.2f s)" % (num, name, metric,
                                                    time.perf_counter() - t0))


def test_criterion_01_quadrature_polynomial_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for P in (4, 16, 64):
        sch = laguerre.build_radial_scheme(P)
        # stored weights carry e^{x_i}; the bare rule integrates x^n e^{-x}
        log_w = sch.log_weights - sch.nodes
        log_x = np.log(sch.nodes)
        for n in range(2 * P - 1):
            lhs = logsumexp(log_w + n * log_x)
            rel = abs(np.exp(lhs - gammaln(n + 3.0)) - 1.0)
            worst = max(worst, float(rel))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "radial quadrature integrates monomials exactly",
            "max rel %.2e" % worst, t0)


def test_criterion_02_radial_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for P in (16, 64, 128):
        sch = laguerre.build_radial_scheme(P)
        rng = np.random.default_rng(P)
        coeffs = rng.standard_normal((100, P))
        samples = coeffs @ sch.node_synthesis.T
        back = laguerre.radial_analysis(sch, samples)
        worst = max(worst, float(np.max(np.abs(back - coeffs))))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "radial transform round trip over 100 trials",
            "max eps %.2e" % worst, t0)


def test_criterion_03_ball_harmonic_round_trip():
    t0 = time.perf_counter()
    medians = {}
    worst = 0.0
    for Q in (16, 32, 64):
        scheme = flag.build_ball_scheme(Q, Q)
        errs = []
        for trial in range(10):
            f = flag.random_coeffs(Q, Q, seed=100 * Q + trial).values
            back = flag.flag_analysis(scheme, flag.flag_synthesis(scheme, f))
            errs.append(float(np.max(np.abs(back - f))))
        medians[Q] = float(np.median(errs))
        worst = max(worst, max(errs))
    assert worst <= 1e-9
    # error growth stays within a 10x band of quadratic in the band-limit
    assert medians[64] <= 10.0 * (64.0 / 16.0) ** 2 * medians[16]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "ball harmonic round trip and error growth",
            "max eps %.2e, med16 %.1e, med64 %.1e" % (worst, medians[16],
                                                      medians[64]), t0)


def test_criterion_04_tiling_admissibility():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (2.0, 3.0):
        for nu in (2.0, 3.0):
            for Q in (16, 64):
                for j0 in (0, 2):
                    kern = tiling.build_tiling(
                        tiling.make_tiling_params(lam, nu, Q, Q, J0=j0, J0p=j0))
                    ells = np.arange(Q, dtype=float)[:, None]
                    total = kern.phi**2 + np.sum(kern.psi**2, axis=(0, 1))
                    resid = np.abs(4.0 * np.pi / (2.0 * ells + 1.0) * total - 1.0)
                    worst = max(worst, float(resid.max()))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, "kernel tiling sums to one at every index",
            "max residual %.2e over 16 builds" % worst, t0)


def test_criterion_05_wavelet_round_trip_both_resolutions():
    # errors measured on the recovered coefficients, the same convention as
    # the radial and ball round-trip criteria (grid amplitudes grow with the
    # band-limit, so absolute grid thresholds are not comparable across Q)
    t0 = time.perf_counter()
    worst = 0.0
    worst_gap = 0.0
    for Q in (16, 32, 64):
        scheme = flag.build_ball_scheme(Q, Q)
        kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, Q, Q))
        f = flag.random_coeffs(Q, Q, seed=Q).values
        sig = flag.flag_synthesis(scheme, f)
        recs = {}
        for multires in (False, True):
            w = flaglet.flaglet_analysis(scheme, sig, kern, multires=multires)
            rec = flaglet.flaglet_synthesis(w, kern, scheme)
            recs[multires] = flag.flag_analysis(scheme, rec.values)
            worst = max(worst,
                        float(np.max(np.abs(recs[multires] - f))))
        worst_gap = max(worst_gap,
                        float(np.max(np.abs(recs[True] - recs[False]))))
    assert worst <= 1e-9
    assert worst_gap <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(5, "wavelet round trip, full and reduced sampling",
            "max eps %.2e, resolutions differ by %.2e" % (worst, worst_gap),
            t0)


def test_criterion_06_transform_cost_scaling():
    t0 = time.perf_counter()
    reps = {8: 10, 16: 10, 32: 3, 64: 2}
    sizes = [8, 16, 32, 64]
    times = []
    for Q in sizes:
        rec = cli.time_flag_roundtrip(Q, Q, reps=reps[Q])
        times.append(rec.t_c_s)
    slope = cli.fit_loglog_slope(sizes, times)
    assert 3.2 <= slope <= 4.8
    full = cli.time_flaglet_roundtrip(64, 64, reps=1, multires=False)
    multi = cli.time_flaglet_roundtrip(64, 64, reps=1, multires=True)
    assert multi.t_c_s < full.t_c_s
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(6, "cost grows like the fourth power, reduced sampling is cheaper",
            "slope %.2f, multires %.2fx" % (slope, full.t_c_s / multi.t_c_s),
            t0)


def test_criterion_07_bessel_overlaps_match_oracle():
    t0 = time.perf_counter()
    bridge = flag.build_bessel_bridge(9, 9)
    n_flagged = 0
    worst = 0.0
    for ell in range(9):
        for p in range(9):
            for ik, k in enumerate(KS):
                val, flagged = flag.jlp(bridge, ell, p, k, return_flag=True)
                if flagged:
                    n_flagged += 1
                    continue
                ref = TABLE[ell, p, ik]
                worst = max(worst, abs(val - ref) / abs(ref))
    assert worst <= 1e-7
    assert n_flagged < 0.10 * 9 * 9 * len(KS)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, "spherical Bessel overlaps against quadrature oracle",
            "max rel %.2e, %d/405 flagged" % (worst, n_flagged), t0)


def test_criterion_08_noise_level_prediction():
    t0 = time.perf_counter()
    L = P = 16
    sigma = 1.0
    scheme = flag.build_ball_scheme(L, P)
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, L, P))
    plan = denoise.predict_sigma(kern, denoise.NoiseModel(sigma, L, P, 0),
                                 scheme, multires=False)
    fac = flag.sqrt4pi_factor(L)
    packed = {s: flaglet._packed_kernel(kern.psi_scale(*s), L, P)
              for s in kern.params.scales}
    acc = {s: np.zeros(P) for s in packed}
    n_draws, chunk = 1000, 125
    count = 0
    for lo in range(0, n_draws, chunk):
        draws = np.stack([
            denoise.generate_noise(denoise.NoiseModel(sigma, L, P, seed=lo + i)).values
            for i in range(chunk)])
        count += chunk
        for s, psi in packed.items():
            w = fac[None, None, :] * draws * psi[None, :, :]
            grids = flag.flag_synthesis(scheme, w)
            acc[s] += np.sum(np.abs(grids) ** 2, axis=(0, 2, 3))
    n_ang = scheme.grid_shape[1] * scheme.grid_shape[2]
    worst = 0.0
    for s, prof in plan.profiles.items():
        mc = np.sqrt(acc[s] / (count * n_ang))
        mask = prof > 1e-6 * prof.max()
        rel = np.abs(mc[mask] / prof[mask] - 1.0)
        worst = max(worst, float(rel.max()))
    assert worst <= 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, "predicted per-scale noise level against Monte Carlo",
            "max dev %.1f%% over 1000 draws" % (100.0 * worst), t0)


def test_criterion_09_denoising_raises_snr():
    t0 = time.perf_counter()
    L = P = 32
    scheme = flag.build_ball_scheme(L, P)
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, L, P))
    improved = 0
    gains = []
    for trial in range(20):
        clean = denoise.make_sparse_signal(scheme, kern, seed=trial)
        noise = denoise.generate_noise(
            denoise.NoiseModel(1.0, L, P, seed=1000 + trial))
        scaled, alpha = denoise.scale_noise_to_snr(clean, noise, 5.0)
        noisy = flag.FlagCoeffs(L, P, clean.values + scaled.values, real=True)
        model = denoise.NoiseModel(alpha, L, P, seed=1000 + trial)
        _, snr_in, snr_out = denoise.denoise_pipeline(scheme, kern, clean,
                                                      noisy, model)
        gains.append(snr_out - snr_in)
        if snr_out > snr_in:
            improved += 1
    assert improved >= 18
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, "thresholding improves SNR on sparse signals",
            "%d/20 improved, median gain %.1f dB" % (improved,
                                                     float(np.median(gains))),
            t0)


def test_criterion_10_energy_identity_on_the_ball():
    t0 = time.perf_counter()
    L = P = 32
    scheme = flag.build_ball_scheme(L, P)
    worst = 0.0
    for trial in range(10):
        f = flag.random_coeffs(L, P, seed=trial).values
        sig = flag.flag_synthesis(scheme, f)
        quad = flag.ball_energy_quadrature(scheme, sig)
        coeff = float(np.sum(np.abs(f) ** 2))
        worst = max(worst, abs(quad / coeff - 1.0))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(10, "quadrature energy equals coefficient energy",
            "max rel %.2e over 10 signals" % worst, t0)
