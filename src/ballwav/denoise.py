"""Noise synthesis, per-scale noise-level prediction, and hard thresholding.

The noise model is white over the angular indices with a linear ramp in the
radial order: E|n_lmp|^2 = sigma^2 (p/P)^2. Because the wavelet transform is
a known linear map, the standard deviation of each wavelet scale at each
radial node follows in closed form, and a 3-sigma hard threshold on the
wavelet samples removes most noise while keeping sparse features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if not self.multiplier >= 0:
            raise ValueError("multiplier must be nonnegative, got %r" % self.multiplier)


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
    the kernel the transform applies (flaglet._parts). K_p at the nodes is
    the node_synthesis of the scale's own radial scheme; its P covers every
    p at which the scale's kernel is nonzero.
    """
    prm = kernels.params
    if prm.L != model.L or prm.P != model.P or scheme.P != model.P:
        raise ValueError("band-limits of kernels, model, and scheme disagree")
    ramp2 = (np.arange(model.P) / model.P) ** 2
    profiles = {}
    for key, sub, (_, Pc), k in flaglet._parts(scheme, kernels, multires):
        if key is not None:
            S = sub.radial.node_synthesis[:, :Pc]
            weight = ramp2[:Pc] * np.einsum("pi,pi->p", k, k) / (4.0 * np.pi)
            profiles[key] = model.sigma * np.sqrt((S * S) @ weight)
    return ThresholdPlan(profiles=profiles, multires=multires)


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
        cut = plan.multiplier * prof[:, None, None]
        wavelets[key] = np.where(np.abs(w) < cut, 0.0, w)
    return flaglet.WaveletCoeffSet(params=coeffs.params, scaling=coeffs.scaling,
                                   wavelets=wavelets, multires=coeffs.multires)


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
    parts = {key: (bl, k) for key, _, bl, k in flaglet._parts(scheme, kernels, False)}
    vals = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
    scales = kernels.params.scales
    for _ in range(n_atoms):
        (Lc, Pc), k = parts[scales[rng.integers(len(scales))]]
        theta = np.arccos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        r_a = rng.uniform(0.1 * scheme.R, 0.7 * scheme.R)
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        y = sht.ylm_point(Lc, theta, phi)
        krow = laguerre.synthesis_matrix(scheme.radial, np.array([r_a]))[0, :Pc]
        vals[:Pc, : Lc * Lc] += amp * k * np.conj(y)[None, :] * krow[:, None]
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2))
    return flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=vals, real=True)


def scale_noise_to_snr(signal, noise, target_db):
    """Rescale a noise realization so signal + noise sits at target_db; the
    scale is a ratio of the norms snr takes, so any finite noise scale works."""
    if np.isnan(target_db):
        raise ValueError("target SNR must not be NaN")
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
    (after any rescaling) for the predicted levels to be meaningful. Only
    the thresholding step touches wavelet samples; the signal itself stays
    in coefficient space. A real noisy signal (noisy.real, checked once)
    runs on the real-signal path, and the denoised coefficients keep the
    flag.
    """
    # noise near the top of double range can overflow: check what comes out
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = flaglet.analysis_from_coeffs(scheme, noisy.values, kernels,
                                              multires=multires, real=noisy.real)
        plan = replace(predict_sigma(kernels, model, scheme, multires=multires),
                       multiplier=multiplier)
        den = flaglet.synthesis_to_coeffs(hard_threshold(coeffs, plan), kernels, scheme)
    if not np.all(np.isfinite(den)):
        raise ValueError("denoised coefficients leave double range (sigma %r)"
                         % model.sigma)
    return (flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=den, real=noisy.real),
            snr(clean.values, noisy.values), snr(clean.values, den))
