"""Harmonic tiling of the joint (angular degree, radial order) index plane.

Wavelet kernels are built from a smooth bump supported on one dyadic-like
octave per axis, so that the squared kernels plus a scaling function sum to
exactly one at every (l, p): the telescoping identity that makes the frame
tight. Dilation factors lambda (angular) and nu (radial) need not be equal
or integer.

The cutoffs come from direct quadrature of their defining integral: fixed-order
Gauss-Legendre sums on a log grid, with no interpolant between the grid
points. They are within 1e-13 of the adaptive reference k_lambda at lambda in
{1.05, 1.7, 2, 3, 10}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


def schwartz_s(t):
    """Smooth bump e^{-1/(1-t^2)} on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out if t.ndim else float(out)


def _s_sq(lam, u):
    """s_lambda(u)^2: the bump mapped onto [1/lambda, 1]."""
    arg = 2.0 * lam / (lam - 1.0) * (u - 1.0 / lam) - 1.0
    s = schwartz_s(arg)
    return s * s


@lru_cache(maxsize=None)
def _k_norm(lam):
    from scipy.integrate import quad

    val, _ = quad(lambda u: _s_sq(lam, u) / u, 1.0 / lam, 1.0,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def k_lambda(lam, t):
    """Monotone cutoff: 1 below 1/lambda, 0 above 1, smooth between.

    Direct adaptive quadrature of the defining integral ratio; the
    fixed-order fast path used by build_tiling is checked against this in
    the tests.
    """
    if not 1.0 < lam < math.inf:  # NaN included
        raise ValueError("dilation must be finite and exceed 1")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t <= 1.0 / lam:
        return 1.0
    if t >= 1.0:
        return 0.0
    from scipy.integrate import quad

    num, _ = quad(lambda u: _s_sq(lam, u) / u, t, 1.0,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    return num / _k_norm(lam)


def _log_segments(lam, a, b):
    """Integrals of s_lambda(u)^2 du/u over [e^a, e^b], elementwise: 8-node
    Gauss-Legendre in v = ln u, where du/u = dv."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (b + a)
    half = 0.5 * (b - a)
    return _s_sq(lam, np.exp(mid[..., None] + half[..., None] * xg)) @ wg * half


@lru_cache(maxsize=None)
def _k_table(lam):
    """Edges v of 512 equal segments of [-ln lam, 0] and the integral from each
    edge to 0, accumulated from the right; tail[0] is the normalisation."""
    v = np.linspace(-math.log(lam), 0.0, 513)
    tail = np.zeros(v.size)
    tail[:-1] = np.cumsum(_log_segments(lam, v[:-1], v[1:])[::-1])[::-1]
    return v, tail


def _k_eval(lam, t):
    """Vectorized k_lambda by direct quadrature, exact in the flat regions.

    In between, k is the tail integral from the grid edge at or above ln t
    plus one Gauss-Legendre segment from ln t up to that edge, over the
    normalisation: within 1e-13 of k_lambda at the dilations the tests
    check, from 1.05 to 10.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    lo = t <= 1.0 / lam
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    if mid.any():
        v, tail = _k_table(lam)
        x = np.log(t[mid])
        i = np.searchsorted(v, x)
        out[mid] = (tail[i] + _log_segments(lam, x, v[i])) / tail[0]
    return out


def generators(lam, nu, t, tp):
    """Generating-function triple (kappa_lam(t), eta_lam(t), eta_hybrid(t, tp)).

    The hybrid radicand is analytically nonnegative; a dip below -1e-12
    would mean the cutoff tables are inconsistent and raises.
    """
    ka = k_lambda(lam, t)
    kas = k_lambda(lam, t / lam)
    kb = k_lambda(nu, tp)
    kbs = k_lambda(nu, tp / nu)
    kappa_rad = kas - ka
    hybrid_rad = kas * kb + ka * kbs - ka * kb
    for rad in (kappa_rad, hybrid_rad):
        if rad < -1e-12:
            raise ArithmeticError("generator radicand negative: %g" % rad)
    kappa = math.sqrt(max(kappa_rad, 0.0))
    eta = math.sqrt(ka)
    hybrid = math.sqrt(max(hybrid_rad, 0.0))
    return kappa, eta, hybrid


def _pow(base, n):
    """base**n for n >= 0, exact when base is an integer-valued float."""
    if float(base).is_integer():
        return float(round(base) ** n)
    return float(base) ** n


def _iceil(v):
    """Ceiling robust to upward float drift of exactly-integer powers."""
    return int(math.ceil(v - 1e-12 * abs(v)))


def _ceil_log(base, x):
    """Smallest integer j with base**j >= x, for x >= 1."""
    j = _iceil(math.log(x) / math.log(base))
    while _pow(base, j) < x:
        j += 1
    while j > 0 and _pow(base, j - 1) >= x:
        j -= 1
    return j


@dataclass(frozen=True)
class TilingParams:
    """Dilations, scale range, and band-limits of one tiling.

    lam and nu are the angular and radial dilation factors (the former is
    spelled lam because of the Python keyword). J and Jp, the largest
    scales, follow from the dilations and band-limits. A dilation must be
    finite and exceed 1, give J <= L - 1 (Jp <= P - 1), so that there are
    no more scales than degrees, and keep lam^(J+1) (nu^(Jp+1)), the last
    cutoff build_tiling divides by, a finite double.
    """

    lam: float
    nu: float
    J0: int
    J0p: int
    L: int
    P: int

    def __post_init__(self):
        if not all(math.isfinite(d) and d > 1.0 for d in (self.lam, self.nu)):
            raise ValueError("dilation factors must be finite and exceed 1")
        if self.L < 2 or self.P < 2:
            raise ValueError("band-limits must be >= 2")
        if self.J > self.L - 1 or self.Jp > self.P - 1:
            raise ValueError("dilations %r, %r give J=%d, Jp=%d, more than L-1=%d, "
                             "P-1=%d" % (self.lam, self.nu, self.J, self.Jp,
                                         self.L - 1, self.P - 1))
        try:
            _pow(self.lam, self.J + 1), _pow(self.nu, self.Jp + 1)
        except OverflowError:
            raise ValueError("dilations %r, %r overflow a double at scale J+1"
                             % (self.lam, self.nu)) from None
        if not 0 <= self.J0 < self.J:
            raise ValueError("J0 must satisfy 0 <= J0 < J")
        if not 0 <= self.J0p < self.Jp:
            raise ValueError("J0p must satisfy 0 <= J0p < Jp")

    @cached_property
    def J(self):
        return _ceil_log(self.lam, self.L - 1)

    @cached_property
    def Jp(self):
        return _ceil_log(self.nu, self.P - 1)

    @property
    def scales(self):
        return [(j, jp)
                for j in range(self.J0, self.J + 1)
                for jp in range(self.J0p, self.Jp + 1)]


def make_tiling_params(lam, nu, L, P, J0=0, J0p=0):
    """TilingParams with its arguments cast to float and int."""
    return TilingParams(lam=float(lam), nu=float(nu), J0=int(J0), J0p=int(J0p),
                        L=int(L), P=int(P))


def _wavelet(ka, kb):
    """Wavelet kernels ka[..., l] kb[..., p] sqrt((2l+1)/4 pi), indexed
    [..., l, p]: one scale from an angular and a radial cutoff row, or every
    scale from tables broadcast against each other."""
    ells = np.arange(ka.shape[-1], dtype=float)
    fac = np.sqrt((2.0 * ells + 1.0) / (4.0 * np.pi))
    return ka[..., :, None] * kb[..., None, :] * fac[:, None]


@dataclass(frozen=True)
class TilingKernels:
    """Wavelet kernels psi[j, jp, l, p] and the tabulated scaling kernel phi[l, p].

    A wavelet kernel is separable: sqrt(4 pi/(2l+1)) psi[j, jp, l, p] is the
    product ka[j, l] kb[jp, p] of an angular cutoff in l and a radial cutoff
    in p. Only those cutoffs are tabulated; psi and psi_scale form the
    kernels from them on demand. The scaling kernel is not separable.
    Scale axes (of psi, ka and kb) are offset by (J0, J0p); use psi_scale for
    absolute indices. Admissibility is checked at construction, so holding a
    TilingKernels is proof of a tight frame; residual is the largest
    deviation of 4 pi/(2l+1) (phi^2 + sum psi^2) from one over all (l, p).
    """

    params: TilingParams
    phi: np.ndarray = field(repr=False)
    ka: np.ndarray = field(repr=False)
    kb: np.ndarray = field(repr=False)
    residual: float

    @property
    def psi(self):
        """Every wavelet kernel, psi[j - J0, jp - J0p, l, p]: (J+1-J0)(Jp+1-J0p)
        L P doubles, formed anew on each access."""
        return _wavelet(self.ka[:, None], self.kb[None])

    def psi_scale(self, j, jp):
        p = self.params
        if not (p.J0 <= j <= p.J and p.J0p <= jp <= p.Jp):
            raise ValueError("scale out of range")
        return _wavelet(self.ka[j - p.J0], self.kb[jp - p.J0p])


def build_tiling(params):
    """Tabulate the cutoffs and the scaling kernel, and verify the sum-to-one
    identity pointwise.

    The cutoff values k(l / lam^j) are shared between the wavelet and
    scaling kernels, so the identity telescopes exactly up to rounding.
    """
    lam, nu, L, P = params.lam, params.nu, params.L, params.P
    ells = np.arange(L, dtype=float)
    ps = np.arange(P, dtype=float)
    A = np.stack([_k_eval(lam, ells / _pow(lam, j))
                  for j in range(params.J0, params.J + 2)])
    B = np.stack([_k_eval(nu, ps / _pow(nu, jp))
                  for jp in range(params.J0p, params.Jp + 2)])
    ka = np.sqrt(np.clip(A[1:] - A[:-1], 0.0, None))
    kb = np.sqrt(np.clip(B[1:] - B[:-1], 0.0, None))
    fac = np.sqrt((2.0 * ells + 1.0) / (4.0 * np.pi))
    a = A[0][:, None]
    b = B[0][None, :]
    phi = fac[:, None] * np.sqrt(np.clip(a + b - a * b, 0.0, None))
    # from the kernels' own psi, so that a caller summing it sees these bytes
    psi = _wavelet(ka[:, None], kb[None])
    total = phi * phi + np.sum(psi * psi, axis=(0, 1))
    residual = np.abs(4.0 * np.pi / (2.0 * ells[:, None] + 1.0) * total - 1.0)
    worst = float(residual.max())
    if worst > 1e-10:
        raise ArithmeticError("admissibility residual %g exceeds 1e-10" % worst)
    return TilingKernels(params=params, phi=phi, ka=ka, kb=kb, residual=worst)


def scaling_bandlimits(params):
    """(La, Pb): the scaling kernel vanishes where both l >= La and p >= Pb."""
    La = min(_iceil(_pow(params.lam, params.J0)), params.L)
    Pb = min(_iceil(_pow(params.nu, params.J0p)), params.P)
    return La, Pb


def kernel_bandlimits(params, j, jp):
    """Effective band-limits (Lj, Pjp) of the wavelet kernel at scale (j, jp)."""
    if not (params.J0 <= j <= params.J and params.J0p <= jp <= params.Jp):
        raise ValueError("scale out of range")
    Lj = min(_iceil(_pow(params.lam, j + 1)), params.L)
    Pjp = min(_iceil(_pow(params.nu, jp + 1)), params.P)
    return Lj, Pjp
