"""Noise synthesis, per-scale noise-level prediction, and hard thresholding.

The noise model is white over the angular indices with a linear ramp in the
radial order: E|n_lmp|^2 = sigma^2 (p/P)^2. Because the wavelet transform is
a known linear map, the standard deviation of each wavelet scale at each
radial node follows in closed form, and a 3-sigma hard threshold on the
wavelet samples removes most noise while keeping sparse features.
"""

from __future__ import annotations

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
    """One noise realization in coefficient space, conjugate-symmetric.

    Stream order: a Philox generator seeded with model.seed draws two
    (P, L*L) standard-normal blocks back to back; the first supplies the
    m = 0 values and the real parts at m > 0, the second the imaginary
    parts at m > 0. Negative m follows by symmetry, so the realization is
    a real signal.
    """
    L, P = model.L, model.P
    rng = np.random.Generator(np.random.Philox(model.seed))
    a = rng.standard_normal((P, L * L))
    b = rng.standard_normal((P, L * L))
    _, m_of = sht._lm_arrays(L)
    ramp = model.sigma * (np.arange(P) / P)[:, None]
    vals = np.zeros((P, L * L), dtype=complex)
    zero = m_of == 0
    vals[:, zero] = ramp * a[:, zero]
    pos = np.where(m_of > 0)[0]
    vals[:, pos] = ramp * (a[:, pos] + 1j * b[:, pos]) / np.sqrt(2.0)
    neg = pos - 2 * m_of[pos]
    vals[:, neg] = (-1.0) ** m_of[pos] * np.conj(vals[:, pos])
    return flag.FlagCoeffs(L=L, P=P, values=vals, real=True)


def predict_sigma(kernels, model, scheme, multires=True):
    """Noise standard deviation of each wavelet scale at its radial nodes.

    The m-sum over spherical harmonics collapses, leaving
    sigma^2 sum_{l,p} (p/P)^2 psi_{lp}^2 K_p(r)^2 per scale. K_p at the nodes
    is the node_synthesis of the scale's own radial scheme; its P covers
    every p at which the scale's kernel is nonzero.
    """
    prm = kernels.params
    if prm.L != model.L or prm.P != model.P or scheme.P != model.P:
        raise ValueError("band-limits of kernels, model, and scheme disagree")
    ramp2 = (np.arange(model.P) / model.P) ** 2
    profiles = {}
    for j, jp in prm.scales:
        S = flaglet.scale_scheme(scheme, prm, j, jp, multires).radial.node_synthesis
        weight = ramp2 * (kernels.psi_scale(j, jp) ** 2).sum(axis=0)
        profiles[(j, jp)] = model.sigma * np.sqrt((S * S) @ weight[:S.shape[1]])
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


def snr(reference, observed):
    """10 log10 of signal power over residual power, in coefficient space.

    Returns inf when observed equals reference exactly.
    """
    s = np.asarray(reference)
    y = np.asarray(observed)
    if s.shape != y.shape:
        raise ValueError("band-limits do not match")
    resid = float(np.sum(np.abs(y - s) ** 2))
    if resid == 0.0:
        return float("inf")
    return 10.0 * np.log10(float(np.sum(np.abs(s) ** 2)) / resid)


def make_sparse_signal(scheme, kernels, n_atoms=6, seed=0):
    """Sum of a few wavelet atoms at random ball locations, unit energy.

    Each atom is one kernel translated to (r_a, omega_a), so the wavelet
    coefficients of the result are concentrated near n_atoms grid sites;
    the construction is conjugate-symmetric, i.e. a real signal.
    """
    if n_atoms < 1:
        raise ValueError("a sparse signal needs at least one atom, got %r" % n_atoms)
    prm = kernels.params
    rng = np.random.default_rng(seed)
    fac = flag.sqrt4pi_factor(scheme.L)
    vals = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
    scales = prm.scales
    for _ in range(n_atoms):
        j, jp = scales[rng.integers(len(scales))]
        theta = np.arccos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        r_a = rng.uniform(0.1 * scheme.R, 0.7 * scheme.R)
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        y = sht.ylm_point(scheme.L, theta, phi)
        krow = laguerre.synthesis_matrix(scheme.radial, np.array([r_a]))[0]
        psi_packed = flaglet._packed_kernel(kernels.psi_scale(j, jp),
                                            scheme.L, scheme.P)
        vals += amp * fac[None, :] * psi_packed * np.conj(y)[None, :] * krow[:, None]
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2))
    return flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=vals, real=True)


def scale_noise_to_snr(signal, noise, target_db):
    """Rescale a noise realization so signal + noise sits at target_db."""
    if np.isnan(target_db):
        raise ValueError("target SNR must not be NaN")
    s = signal.values
    n = noise.values
    power = np.sum(np.abs(n) ** 2)
    if power == 0.0:
        raise ValueError("noise realization is identically zero")
    with np.errstate(over="ignore", divide="ignore"):
        alpha = np.sqrt(np.sum(np.abs(s) ** 2)
                        / (power * np.power(10.0, target_db / 10.0)))
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("target SNR %r dB needs a noise scale of %r, not a finite "
                         "positive number" % (target_db, float(alpha)))
    return flag.FlagCoeffs(L=noise.L, P=noise.P, values=alpha * n, real=noise.real), float(alpha)


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
    coeffs = flaglet.analysis_from_coeffs(scheme, noisy.values, kernels,
                                          multires=multires, real=noisy.real)
    plan = replace(predict_sigma(kernels, model, scheme, multires=multires),
                   multiplier=multiplier)
    kept = hard_threshold(coeffs, plan)
    den = flaglet.synthesis_to_coeffs(kept, kernels, scheme)
    return (flag.FlagCoeffs(L=scheme.L, P=scheme.P, values=den, real=noisy.real),
            snr(clean.values, noisy.values), snr(clean.values, den))
