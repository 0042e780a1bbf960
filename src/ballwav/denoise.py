"""Noise synthesis, per-scale noise-level prediction, and hard thresholding.

The noise model is white over the angular indices with a linear ramp in the
radial order: E|n_lmp|^2 = sigma^2 (p/P)^2. Because the wavelet transform is
a known linear map, the standard deviation of each wavelet scale at each
radial node follows in closed form, and a 3-sigma hard threshold on the
wavelet samples removes most noise while keeping sparse features.

denoise_pipeline is the flaglet walk (flaglet._walk) with a cut between
each part's two radial matmuls: per angular scale j it makes the one angular
synthesis that all of j's parts share, then samples a part, cuts it in place
and adds its radial analysis into j's grid before the next part, and ends j
with one forward spherical transform. It holds the result, one part, j's
angular grid, one accumulation grid that every j reuses and the
transforms' scratch, rather than the coefficient set: about 5 grids for a
real signal at full resolution, where the set has one per scale. On a
float part the cut compares -t < w < t, which forms no part-sized |w|.
Its result is that of predict_sigma, hard_threshold and the flaglet pair run
one after another, and a part's noise level comes from the one helper both
use, which reads the factors ka_j, kb_jp of the part's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flag, flaglet, laguerre, sht


@dataclass(frozen=True)
class NoiseModel:
    """sigma is the ramp amplitude; seed fixes the realization bit-for-bit."""

    sigma: float
    L: int
    P: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative, got %r"
                             % self.sigma)


@dataclass(frozen=True)
class ThresholdPlan:
    """Per-scale noise level at that scale's radial nodes, and the multiplier."""

    profiles: dict
    multiplier: float = 3.0
    multires: bool = True

    def __post_init__(self):
        _check_multiplier(self.multiplier)


def _check_multiplier(multiplier):
    if not multiplier >= 0:
        raise ValueError("multiplier must be nonnegative, got %r" % multiplier)


def generate_noise(model):
    """One noise realization in coefficient space, conjugate-symmetric:
    flag.random_coeffs(real=True) drawn from a Philox generator seeded with
    model.seed, row p scaled by the ramp sigma p/P. Raises ValueError when
    the scaled realization leaves double range."""
    L, P = model.L, model.P
    rng = np.random.Generator(np.random.Philox(model.seed))
    vals = flag.random_coeffs(L, P, rng, real=True).values
    with np.errstate(over="ignore"):
        vals *= model.sigma * (np.arange(P) / P)[:, None]
    if not np.all(np.isfinite(vals)):
        raise ValueError("noise of sigma %r leaves double range" % model.sigma)
    return flag.FlagCoeffs(L=L, P=P, values=vals, real=True)


def predict_sigma(kernels, model, scheme, multires=True):
    """Noise standard deviation of each wavelet scale at its radial nodes.

    The m-sum over spherical harmonics collapses, leaving
    sigma^2 sum_p (p/P)^2 K_p(r)^2 sum_lm k_lmp^2 / 4 pi per scale, where k is
    the kernel the transform applies, k = ka_j[l] kb_jp[p]. K_p at the nodes
    is the node_synthesis of the scale's own radial scheme; its P covers
    every p at which the scale's kernel is nonzero.
    """
    _check_bandlimits(kernels, model, scheme)
    angular, radial = flaglet._axes(scheme, kernels, multires)
    profiles = {(ang.j, rad.jp): _profile(model, ang, rad)
                for ang in angular for rad in radial}
    return ThresholdPlan(profiles=profiles, multires=multires)


def _check_bandlimits(kernels, model, scheme):
    prm = kernels.params
    if prm.L != model.L or prm.P != model.P or scheme.P != model.P:
        raise ValueError("band-limits of kernels, model, and scheme disagree")


def _profile(model, ang, rad):
    """Noise level of the part of scale (ang.j, rad.jp) at the nodes of its
    radial scheme (see predict_sigma). Its kernel is k = ka kb (flaglet._axes),
    so sum_lm k^2 factors into kb^2 times sum_lm ka^2 = sum_l (2l+1) ka_l^2."""
    ramp2 = (np.arange(rad.P) / model.P) ** 2
    S = rad.scheme.node_synthesis[:, : rad.P]
    weight = ramp2 * rad.kb * rad.kb * (ang.ka @ ang.ka / (4.0 * np.pi))
    return model.sigma * np.sqrt((S * S) @ weight)


def hard_threshold(coeffs, plan):
    """Zero wavelet samples with |value| below multiplier times the local level.

    Samples exactly at the threshold survive (strict inequality); the
    scaling part is never thresholded.
    """
    if set(plan.profiles) != set(coeffs.wavelets):
        raise ValueError("plan scales do not match coefficient set")
    if plan.multires != coeffs.multires:
        raise ValueError("plan resolution does not match coefficient set")
    wavelets = {}
    for key, w in coeffs.wavelets.items():
        prof = plan.profiles[key]
        if prof.shape != w.shape[:1]:
            raise ValueError("profile length does not match scale %s" % (key,))
        wavelets[key] = _cut(w.copy(), prof, plan.multiplier)
    return flaglet.WaveletCoeffSet(params=coeffs.params, scaling=coeffs.scaling,
                                   wavelets=wavelets, multires=coeffs.multires)


def _cut(w, prof, multiplier):
    """Zero in place the samples of part w below multiplier times its noise
    level prof at each radial node; returns w."""
    t = multiplier * prof[:, None, None]
    # on a float part, -t < w < t is |w| < t for every value, +-0, +-t and
    # NaN included, and forms no part-sized |w|
    below = np.abs(w) < t if np.iscomplexobj(w) else (w < t) & (w > -t)
    np.copyto(w, 0.0, where=below)
    return w


def _log_norm(x):
    """log10 of the 2-norm of x, -inf for a zero array. The entries are scaled
    by the largest before squaring, so no square overflows or underflows."""
    a = np.abs(x)
    peak = float(np.max(a, initial=0.0))
    if peak == 0.0:
        return -math.inf
    return math.log10(peak) + 0.5 * math.log10(float(np.sum((a / peak) ** 2)))


def snr(reference, observed):
    """10 log10 of signal power over residual power, in coefficient space.

    Returns inf when observed equals reference exactly, and stays finite for
    powers outside double range.
    """
    s = np.asarray(reference)
    y = np.asarray(observed)
    if s.shape != y.shape:
        raise ValueError("band-limits do not match")
    resid = _log_norm(y - s)
    if resid == -math.inf:
        return math.inf
    return 20.0 * (_log_norm(s) - resid)


def make_sparse_signal(scheme, kernels, n_atoms=6, seed=0):
    """Sum of a few wavelet atoms at random ball locations, unit energy.

    Each atom is one kernel translated to (r_a, omega_a), so the wavelet
    coefficients of the result are concentrated near n_atoms grid sites;
    the construction is conjugate-symmetric, i.e. a real signal.
    """
    if n_atoms < 1:
        raise ValueError("a sparse signal needs at least one atom, got %r" % n_atoms)
    rng = np.random.default_rng(seed)
    angular, radial = flaglet._axes(scheme, kernels, False)
    prm = kernels.params
    vals = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
    for _ in range(n_atoms):
        j, jp = prm.scales[rng.integers(len(prm.scales))]
        ang, rad = angular[j - prm.J0], radial[jp - prm.J0p]
        theta = np.arccos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        r_a = rng.uniform(0.1 * scheme.R, 0.7 * scheme.R)
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        y = sht.ylm_point(ang.L, theta, phi)
        krow = laguerre.synthesis_matrix(scheme.radial, np.array([r_a]))[0, : rad.P]
        vals[: rad.P, : ang.L * ang.L] += amp * np.outer(rad.kb * krow,
                                                         ang.ka * np.conj(y))
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2))
    return flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=vals, real=True)


def scale_noise_to_snr(signal, noise, target_db):
    """Rescale a noise realization so signal + noise sits at target_db; the
    scale is a ratio of the norms snr takes, so any finite noise scale works;
    a NaN target gives a NaN scale, which raises ValueError like any scale
    that is not finite and positive."""
    log_n = _log_norm(noise.values)
    if log_n == -math.inf:
        raise ValueError("noise realization is identically zero")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        alpha = float(np.power(10.0, _log_norm(signal.values) - log_n - target_db / 20.0))
        values = alpha * noise.values
    if not (alpha > 0 and np.all(np.isfinite(values))):
        raise ValueError("target SNR %r dB needs a noise scale of %r, not a finite "
                         "positive number" % (target_db, alpha))
    return flag.FlagCoeffs(L=noise.L, P=noise.P, values=values, real=noise.real), alpha


def denoise_pipeline(scheme, kernels, clean, noisy, model, multires=True,
                     multiplier=3.0):
    """Threshold the wavelet coefficients of a noisy signal; report both SNRs.

    The model's sigma must describe the noise actually present in noisy
    (after any rescaling) for the predicted levels to be meaningful. The
    result equals synthesis_to_coeffs of hard_threshold of analysis_from_coeffs
    under predict_sigma's plan, but comes from one walk over the parts
    (flaglet._walk) that never holds the set: each part is sampled, cut in
    place (every part but the scaling one) and analysed back at once. A real
    noisy signal (noisy.real, checked once) runs on the real-signal path, and
    the denoised coefficients keep the flag.
    """
    _check_bandlimits(kernels, model, scheme)
    _check_multiplier(multiplier)
    f = np.asarray(noisy.values)

    def cut(key, part, ang, rad):
        if key is not None:
            _cut(part, _profile(model, ang, rad), multiplier)
        return part

    # noise near the top of double range can overflow: check what comes out
    with np.errstate(over="ignore", invalid="ignore"):
        if noisy.real:
            sht.check_real(f)
        den = flaglet._walk(scheme, kernels, flaglet._axes(scheme, kernels, multires),
                            cut, f, noisy.real)
    if not np.all(np.isfinite(den)):
        raise ValueError("denoised coefficients leave double range (sigma %r)"
                         % model.sigma)
    return (flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=den, real=noisy.real),
            snr(clean.values, noisy.values), snr(clean.values, den))
