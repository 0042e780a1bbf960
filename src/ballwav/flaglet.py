"""Wavelet analysis and synthesis on the ball.

Each scale is a harmonic product of the signal coefficients with one tiling
kernel, mapped back to real space. The kernel of scale (j, jp) vanishes
outside its band-limits (Lj, Pjp), so in both modes a scale's coefficient
block and its transforms work at (Lj, Pjp). Only the sampling differs: in
multiresolution mode a scale is sampled on its own (Lj, Pjp) grid, which is
lossless, and at full resolution on the full grid. The scaling part always
stays at full resolution. Every part is a plain array. _parts owns each
part's grid (through scale_scheme, the one owner of that choice), its
band-limits and its coefficient-space kernel, and analysis, synthesis and the
noise plan of denoise all walk it. The frame is tight, so synthesis is the
adjoint accumulation and the round trip is exact for band-limited signals.

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
    return np.repeat(kern2d[:L_red, :P_red].T, 2 * np.arange(L_red) + 1, axis=1)


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

    @property
    def real(self):
        """True when every part is a float array, as for a real signal."""
        return not any(map(np.iscomplexobj, [self.scaling, *self.wavelets.values()]))


def _parts(scheme, kernels, multires):
    """Walk the parts: the scaling part under the key None, then each scale
    (j, jp). Yields (key, grid scheme, (Lc, Pc), k), where k is the (Pc, Lc^2)
    block of the kernel sqrt(4 pi/(2l+1)) Psi_lp that maps the signal's
    coefficients to the part's: the full band for the scaling part, the
    kernel band-limits for a scale."""
    prm = kernels.params
    if scheme.L != prm.L or scheme.P != prm.P:
        raise ValueError("kernel band-limits do not match scheme")
    fac = flag.sqrt4pi_factor(scheme.L)
    yield None, scheme, (prm.L, prm.P), fac * _packed_kernel(kernels.phi, prm.L, prm.P)
    for j, jp in prm.scales:
        Lc, Pc = tiling.kernel_bandlimits(prm, j, jp)
        yield ((j, jp), scale_scheme(scheme, prm, j, jp, multires), (Lc, Pc),
               fac[: Lc * Lc] * _packed_kernel(kernels.psi_scale(j, jp), Lc, Pc))


def _analysis(scheme, f, kernels, multires, real):
    """WaveletCoeffSet of coefficients f; with real set, f is taken to be
    conjugate-symmetric and every part is sampled as a float array. The
    kernels depend on l alone, so each part keeps that symmetry and is not
    checked again."""
    if f.shape != (scheme.P, scheme.L * scheme.L):
        raise ValueError("coefficient band-limits do not match scheme")
    parts = {key: flag.flag_synthesis(sub, f[:Pc, : Lc * Lc] * k, real, check=False)
             for key, sub, (Lc, Pc), k in _parts(scheme, kernels, multires)}
    return WaveletCoeffSet(params=kernels.params, scaling=parts.pop(None),
                           wavelets=parts, multires=multires)


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
    if coeffs.params != kernels.params:
        raise ValueError("coefficient set was built with different tiling params")
    acc = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
    for key, sub, (Lc, Pc), k in _parts(scheme, kernels, coeffs.multires):
        part = coeffs.scaling if key is None else coeffs.wavelets[key]
        acc[:Pc, : Lc * Lc] += k * flag.flag_analysis(sub, part, (Lc, Pc))
    return acc


def flaglet_synthesis(coeffs, kernels, scheme):
    """Reconstruct the ball signal from a WaveletCoeffSet (exact round trip);
    it is a float grid when every part is a float array, whose coefficients
    the real path of flag_analysis makes conjugate-symmetric exactly."""
    out = flag.flag_synthesis(scheme, synthesis_to_coeffs(coeffs, kernels, scheme),
                              coeffs.real, check=False)
    return flag.BallSignal(scheme=scheme, values=out)
