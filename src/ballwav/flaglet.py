"""Wavelet analysis and synthesis on the ball.

Each scale is a harmonic product of the signal coefficients with one tiling
kernel, mapped back to real space. The kernel of scale (j, jp) vanishes
outside its band-limits (Lj, Pjp), so in both modes a scale's coefficient
block and its transforms work at (Lj, Pjp). Only the sampling differs: in
multiresolution mode a scale is sampled on its own (Lj, Pjp) grid, which is
lossless, and at full resolution on the full grid. The scaling part always
stays at full resolution. Every part is a plain array; scale_scheme alone
decides a part's grid. The frame is tight, so synthesis is the adjoint
accumulation and the round trip is exact for band-limited signals.

The transform splits at the coefficient boundary: analysis_from_coeffs maps
coefficients f[p, lm] to a WaveletCoeffSet and synthesis_to_coeffs maps one
back. flaglet_analysis and flaglet_synthesis wrap them with the grid
transforms. A real signal runs on the real-signal path of flag throughout:
flaglet_analysis knows it from a float grid, flaglet_synthesis from float
parts, and analysis_from_coeffs is told real=True; its parts, and the
reconstruction, are then float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import flag, sht, tiling


@lru_cache(maxsize=64)
def _cached_scheme(L, P, tau):
    return flag.build_ball_scheme(L, P, tau)


def scale_scheme(scheme, params, j, jp, multires):
    """Scheme that scale (j, jp) is sampled on: its reduced one when multires
    is set, the full one otherwise."""
    if not multires:
        return scheme
    Lj, Pjp = tiling.kernel_bandlimits(params, j, jp)
    return _cached_scheme(Lj, Pjp, scheme.tau)


def _packed_kernel(kern2d, L_red, P_red):
    """Kernel block (l, p) -> (p, packed lm) at reduced band-limits."""
    ell_of, _ = sht._lm_arrays(L_red)
    return kern2d[ell_of, :P_red].T


@dataclass(frozen=True)
class WaveletCoeffSet:
    """Scaling samples on the full grid plus one sample array per scale.

    wavelets maps (j, jp) to an array on the grid of
    scale_scheme(scheme, params, j, jp, multires): the reduced one when
    multires is set, the full one otherwise.
    """

    params: tiling.TilingParams
    scaling: np.ndarray
    wavelets: dict
    multires: bool

    @property
    def scales(self):
        return self.params.scales


def _check_match(scheme, kernels):
    prm = kernels.params
    if scheme.L != prm.L or scheme.P != prm.P:
        raise ValueError("kernel band-limits do not match scheme")


def _analysis(scheme, f, kernels, multires, real):
    """WaveletCoeffSet of coefficients f; with real set, f is taken to be
    conjugate-symmetric and every part is sampled as a float array. The
    kernels depend on l alone, so each part keeps that symmetry and is not
    checked again."""
    _check_match(scheme, kernels)
    if f.shape != (scheme.P, scheme.L * scheme.L):
        raise ValueError("coefficient band-limits do not match scheme")
    fac = flag.sqrt4pi_factor(scheme.L)
    prm = kernels.params
    w_phi = fac[None, :] * f * _packed_kernel(kernels.phi, scheme.L, scheme.P)
    scaling = flag.flag_synthesis(scheme, w_phi, real, check=False)
    wavelets = {}
    for j, jp in prm.scales:
        Lj, Pjp = tiling.kernel_bandlimits(prm, j, jp)
        sub = scale_scheme(scheme, prm, j, jp, multires)
        psi = _packed_kernel(kernels.psi_scale(j, jp), Lj, Pjp)
        w = fac[None, : Lj * Lj] * f[:Pjp, : Lj * Lj] * psi
        wavelets[(j, jp)] = flag.flag_synthesis(sub, w, real, check=False)
    return WaveletCoeffSet(params=prm, scaling=scaling, wavelets=wavelets,
                           multires=multires)


def analysis_from_coeffs(scheme, f, kernels, multires=False, real=False):
    """Wavelet and scaling parts of coefficients f[p, lm]: complex samples,
    or float ones with real set, when f must be that of a real signal
    (sht.check_real raises ArithmeticError otherwise)."""
    f = np.asarray(f)
    if real:
        sht.check_real(f)
    return _analysis(scheme, f, kernels, multires, real)


def flaglet_analysis(scheme, signal, kernels, multires=False):
    """Decompose a band-limited ball signal (P, n_theta, n_phi) into wavelet
    and scaling parts."""
    f = flag.flag_analysis(scheme, signal)
    return _analysis(scheme, f, kernels, multires, real=not np.iscomplexobj(signal))


def synthesis_to_coeffs(coeffs, kernels, scheme):
    """Complex coefficients f[p, lm] of the signal a WaveletCoeffSet holds."""
    _check_match(scheme, kernels)
    if coeffs.params != kernels.params:
        raise ValueError("coefficient set was built with different tiling params")
    fac = flag.sqrt4pi_factor(scheme.L)
    g = flag.flag_analysis(scheme, coeffs.scaling)
    acc = fac[None, :] * g * _packed_kernel(kernels.phi, scheme.L, scheme.P)
    for j, jp in kernels.params.scales:
        Lj, Pjp = tiling.kernel_bandlimits(kernels.params, j, jp)
        sub = scale_scheme(scheme, kernels.params, j, jp, coeffs.multires)
        g = flag.flag_analysis(sub, coeffs.wavelets[(j, jp)], (Lj, Pjp))
        psi = _packed_kernel(kernels.psi_scale(j, jp), Lj, Pjp)
        acc[:Pjp, : Lj * Lj] += fac[None, : Lj * Lj] * g * psi
    return acc


def flaglet_synthesis(coeffs, kernels, scheme):
    """Reconstruct the ball signal from a WaveletCoeffSet (exact round trip);
    it is a float grid when every part is a float array, whose coefficients
    the real path of flag_analysis makes conjugate-symmetric exactly."""
    real = not any(map(np.iscomplexobj, [coeffs.scaling, *coeffs.wavelets.values()]))
    out = flag.flag_synthesis(scheme, synthesis_to_coeffs(coeffs, kernels, scheme),
                              real, check=False)
    return flag.BallSignal(scheme=scheme, values=out)
