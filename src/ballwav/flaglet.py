"""Wavelet analysis and synthesis on the ball.

Each part is a harmonic product of the signal coefficients with one tiling
kernel, mapped back to real space. The kernel of scale (j, jp) is separable:
sqrt(4 pi/(2l+1)) Psi_lp = ka_j[l] kb_jp[p], an angular cutoff times a
radial one (tiling.TilingKernels). It vanishes outside band-limits (Lj, Pjp)
that factor too, Lj set by j alone and Pjp by jp alone. The walk uses both
factorisations and groups the scales by angular scale j. For each j, one
angular synthesis of ka_j f[:, :Lj^2] on j's angular grid serves every jp,
and each part is then one radial matmul of it by node_synthesis[:, lo:Pjp]
kb_jp, over only the rows lo <= p < Pjp where kb_jp is nonzero. Synthesis
mirrors it: each part's radial matmul by kb_jp weighted_basis[lo:Pjp]
accumulates into the rows lo..Pjp of one grid per j, and one sht_forward at
Lj, times ka_j, adds that grid into the coefficients. At L=P=32 with
lambda=nu=2 the six radial scales then contract 57 rows per angular scale,
not 94. Both angular transforms of j run over only the rows some part
reads, from the smallest lo to the largest Pjp: kb_jp(0) = 0 at every
dilation, so row 0 is never among them. The scaling kernel is not
separable, but it vanishes unless l < La or p < Pb
(tiling.scaling_bandlimits), so its part takes two band-limited flag calls
each way: one for the rows p < Pb at the full L, one for the degrees l < La
on all rows. A round trip then runs two spherical transforms per angular
scale plus four small ones for the scaling part, rather than two per part.

The two modes differ only in sampling. In multiresolution mode a scale is
sampled on its own (Lj, Pjp) grid, which is lossless, and at full resolution
on the full grid; scale_bandlimits alone makes that choice. The scaling part
always stays at full resolution. Every part is a plain array. _walk is the
one walk over the parts, which analysis, synthesis and the denoiser share,
and _axes its two factors, which the noise plan and the sparse atoms read.
The frame is tight, so synthesis is the adjoint accumulation and the round
trip is exact for band-limited signals.

Analysis allocates a set's memory once: the parts are disjoint views into
one block, sized from the walk's axes, rather than one array each. An op
then reuses the pages of the last one instead of faulting in fresh ones for
each of its parts; a part kept alone keeps the whole block alive. The walk
holds each other array only until its last reader has run: it builds just
the two slices of the scaling kernel it reads, drops a part once the part
is analysed back and j's angular grid after j's last part, and every
angular scale accumulates in one reused buffer sized for the largest grid.

The transform splits at the coefficient boundary: analysis_from_coeffs maps
coefficients f[p, lm] to a WaveletCoeffSet and synthesis_to_coeffs maps one
back. flaglet_analysis and flaglet_synthesis wrap them with the grid
transforms. A real signal runs on the real-signal path throughout:
flaglet_analysis knows it from a float grid, flaglet_synthesis from float
parts, and analysis_from_coeffs is told real=True; its parts, and the
reconstruction, are then float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flag, laguerre, sht, tiling


def scale_bandlimits(params, j, jp, multires):
    """Band-limits (L, P) of the grid scale (j, jp) is sampled on: the
    kernel's own when multires is set, the full ones otherwise; ValueError
    either way unless (j, jp) is a scale of the tiling."""
    reduced = tiling.kernel_bandlimits(params, j, jp)
    return reduced if multires else (params.L, params.P)


def scale_scheme(scheme, params, j, jp, multires):
    """Scheme that scale (j, jp) is sampled on (scale_bandlimits)."""
    L, P = scale_bandlimits(params, j, jp, multires)
    if (L, P) == (scheme.L, scheme.P):
        return scheme
    return flag.build_ball_scheme(L, P, scheme.tau)


def _packed_kernel(kern2d, L_red, P_red):
    """Kernel block (l, p) -> (p, packed lm) at reduced band-limits."""
    return np.take(kern2d[:L_red, :P_red].T, sht._lm_arrays(L_red)[0], axis=1)


@dataclass(frozen=True)
class WaveletCoeffSet:
    """Scaling samples on the full grid plus one sample array per scale.

    wavelets maps (j, jp) to an array on the grid of band-limits
    scale_bandlimits(params, j, jp, multires): the reduced one when multires
    is set, the full one otherwise.
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


class _Angular(NamedTuple):
    """Angular scale j of the walk: its band-limit Lj, its cutoff ka_j per
    packed index l*l + l + m below Lj^2, and the angular scheme of its grids."""

    j: int
    L: int
    ka: np.ndarray
    scheme: sht.AngularScheme


class _Radial(NamedTuple):
    """Radial scale jp of the walk: its band-limit Pjp, the first row lo where
    its cutoff kb_jp is nonzero (Pjp when none is), kb_jp below Pjp, the
    radial scheme of its grids, and the matrices that map coefficient rows
    lo..Pjp to the part's nodes (node_synthesis[:, lo:Pjp] kb_jp) and back
    (kb_jp weighted_basis[lo:Pjp]): the rows below lo carry no weight."""

    jp: int
    P: int
    lo: int
    kb: np.ndarray
    scheme: laguerre.RadialScheme
    synthesis: np.ndarray
    analysis: np.ndarray


def _axes(scheme, kernels, multires):
    """The factors of the walk: one _Angular per angular scale j and one
    _Radial per radial scale jp. Scale (j, jp) is sampled on the grid of the
    two schemes, which scale_scheme chooses."""
    prm = kernels.params
    if scheme.L != prm.L or scheme.P != prm.P:
        raise ValueError("kernel band-limits do not match scheme")
    angular = []
    for j, ka in zip(range(prm.J0, prm.J + 1), kernels.ka):
        Lj = tiling.kernel_bandlimits(prm, j, prm.J0p)[0]
        ang = scale_scheme(scheme, prm, j, prm.J0p, multires).angular
        angular.append(_Angular(j, Lj, ka[sht._lm_arrays(Lj)[0]], ang))
    radial = []
    for jp, kb in zip(range(prm.J0p, prm.Jp + 1), kernels.kb):
        Pjp = tiling.kernel_bandlimits(prm, prm.J0, jp)[1]
        rad = scale_scheme(scheme, prm, prm.J0, jp, multires).radial
        kb = kb[:Pjp]
        nonzero = np.flatnonzero(kb)
        lo = int(nonzero[0]) if nonzero.size else Pjp
        radial.append(_Radial(jp, Pjp, lo, kb, rad,
                              rad.node_synthesis[:, lo:Pjp] * kb[lo:],
                              kb[lo:, None] * rad.weighted_basis[lo:Pjp]))
    return angular, radial


def _walk(scheme, kernels, axes, visit, f=None, real=False, block=None):
    """Walk the parts: the scaling part under the key None, then the scales
    (j, jp) grouped by j, on the axes of _axes.

    visit(key, part, ang, rad) gets each part's samples, made from
    coefficients f (None when f is None), and the part's _Angular and _Radial
    (None for the scaling part). It returns the part to analyse back, which
    must lie on the part's grid, for every part or for none; the result is
    the complex coefficients (P, L^2) of the parts returned, or None. With
    real set, f is taken to be conjugate-symmetric and every part is sampled
    as a float array; the kernels depend on l alone, so each part keeps that
    symmetry and is not checked again. Parts analysed back accumulate, one j
    at a time, in one buffer sized for the largest grid, float with real set
    and complex otherwise.
    With block given, the parts are consecutive views into it, each written
    there by its radial matmul.
    """
    if f is not None and f.shape != (scheme.P, scheme.L * scheme.L):
        raise ValueError("coefficient band-limits do not match scheme")
    angular, radial = axes
    dtype = float if real else complex
    start = 0

    def empty(shape):
        nonlocal start
        if block is None:
            return np.empty(shape, dtype=dtype)
        start += math.prod(shape)
        return block[start - math.prod(shape): start].reshape(shape)

    # the scaling kernel lives on rows p < Pb and on degrees l < La: its part
    # is the sum of those two band-limited blocks' syntheses, and only those
    # two slices of its packed kernel are built
    La, Pb = tiling.scaling_bandlimits(kernels.params)
    ktop = flag.sqrt4pi_factor(scheme.L) * _packed_kernel(kernels.phi, scheme.L, Pb)
    kleft = flag.sqrt4pi_factor(La) * _packed_kernel(kernels.phi, La, scheme.P)
    part = None
    if f is not None:
        part = empty(scheme.grid_shape)
        part[...] = flag.flag_synthesis(scheme, f[:Pb] * ktop, real, check=False)
        left = f[:, : La * La] * kleft
        left[:Pb] = 0.0
        part += flag.flag_synthesis(scheme, left, real, check=False)
        del left
    back = visit(None, part, None, None)
    acc = None
    if back is not None:
        acc = np.zeros((scheme.P, scheme.L * scheme.L), dtype=complex)
        acc[:Pb] = ktop * flag.flag_analysis(scheme, back, (scheme.L, Pb))
        acc[Pb:, : La * La] = (kleft[Pb:]
                               * flag.flag_analysis(scheme, back, (La, scheme.P))[Pb:])
    del part, back
    # no part reads a row below the first nonzero cutoff row, nor at Pm or above
    lo, Pm = min(rad.lo for rad in radial), max(rad.P for rad in radial)
    inverse = sht._inverse_real if real else sht.sht_inverse
    Y = None
    if acc is not None:
        # every angular scale accumulates in one buffer, sized for the largest grid
        ybuf = np.empty((Pm - lo) * max(math.prod(ang.scheme.grid_shape) for ang in angular),
                        dtype)
    for ang in angular:
        G = None if f is None else inverse(ang.scheme, f[lo:Pm, : ang.L * ang.L] * ang.ka)
        if acc is not None:
            Y = ybuf[: (Pm - lo) * math.prod(ang.scheme.grid_shape)].reshape(
                (Pm - lo,) + ang.scheme.grid_shape)
            Y[...] = 0.0
        for rad in radial:
            key = (ang.j, rad.jp)
            shape = (rad.scheme.P,) + ang.scheme.grid_shape
            rows = slice(rad.lo - lo, rad.P - lo)  # rad.lo..rad.P of G and Y
            part = None if f is None else flag._radial(rad.synthesis, G[rows], -3,
                                                       empty(shape))
            back = visit(key, part, ang, rad)
            if Y is not None:
                if back.shape != shape:
                    raise ValueError("part %s of shape %s is not on the grid of its "
                                     "scale, %s" % (key, back.shape, shape))
                Y[rows] += flag._radial(rad.analysis, back, -3)
            del part, back
        del G
        if Y is not None:
            acc[lo:Pm, : ang.L * ang.L] += ang.ka * sht.sht_forward(ang.scheme, Y, ang.L)
    return acc


def _analysis(scheme, f, kernels, multires, real):
    """WaveletCoeffSet of coefficients f, its parts views into one block."""
    axes = angular, radial = _axes(scheme, kernels, multires)
    n = (math.prod(scheme.grid_shape)
         + sum(math.prod(ang.scheme.grid_shape) for ang in angular)
         * sum(rad.scheme.P for rad in radial))
    parts = {}

    def keep(key, part, ang, rad):
        parts[key] = part

    _walk(scheme, kernels, axes, keep, f, real,
          block=np.empty(n, dtype=float if real else complex))
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
    """Complex coefficients f[p, lm] of the signal a WaveletCoeffSet holds.
    Raises ValueError when a part is not on the grid of its scale."""
    if coeffs.params != kernels.params:
        raise ValueError("coefficient set was built with different tiling params")

    def stored(key, part, ang, rad):
        return coeffs.scaling if key is None else coeffs.wavelets[key]

    return _walk(scheme, kernels, _axes(scheme, kernels, coeffs.multires), stored,
                 real=coeffs.real)


def flaglet_synthesis(coeffs, kernels, scheme):
    """Reconstruct the ball signal from a WaveletCoeffSet (exact round trip);
    it is a float grid when every part is a float array, whose coefficients
    the real path of flag_analysis makes conjugate-symmetric exactly."""
    out = flag.flag_synthesis(scheme, synthesis_to_coeffs(coeffs, kernels, scheme),
                              coeffs.real, check=False)
    return flag.BallSignal(scheme=scheme, values=out)
