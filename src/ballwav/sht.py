"""Exact spherical harmonic transform on a Gauss-Legendre x equiangular grid.

Colatitude integrals use an L-node Gauss-Legendre rule in cos(theta), exact
for the degree-(2L-2) Legendre products a band-limit-L transform needs, and
longitude uses a length-(2L-1) FFT, the minimal count resolving |m| <= L-1.
Coefficients are packed in (l, m) order at index l*l + l + m.

Associated Legendre values come from the fully normalized ascending-l
recurrence with the Condon-Shortley phase; the sectorial seed is assembled in
log space so high orders degrade by harmless underflow instead of NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SQRT4PI = float(np.sqrt(4.0 * np.pi))


def lm_index(ell, m):
    """Packed coefficient index l*l + l + m."""
    return ell * ell + ell + m


def _lm_arrays(L):
    idx = np.arange(L * L)
    ell = np.floor(np.sqrt(idx)).astype(np.int64)
    m = idx - ell * ell - ell
    return ell, m


def _legendre_bin_tensor(L, ct, st):
    """Normalized P_lm at each node, laid out by FFT bin.

    Returns (F, L, n_nodes) with F = 2L-1; bin mi holds m = mi for mi < L and
    m = mi - F (negative) above, using P_{l,-m} = (-1)^m P_{lm}. Entries with
    l < |m| are zero.
    """
    F = 2 * L - 1
    n = ct.size
    pos = np.zeros((L, L, n))
    with np.errstate(divide="ignore"):
        log_st = np.log(st)
    # sectorial seeds P_mm, log-space magnitude with (-1)^m sign
    log_fac = 0.0
    for m in range(L):
        if m > 0:
            log_fac += 0.5 * np.log((2 * m + 1) / (2.0 * m))
        pmm = ((-1.0) ** m) * np.exp(log_fac + m * log_st) / _SQRT4PI
        pos[m, m] = pmm
        if m + 1 < L:
            pos[m, m + 1] = np.sqrt(2 * m + 3.0) * ct * pmm
        for ell in range(m + 2, L):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(
                (2.0 * ell + 1.0)
                / (2.0 * ell - 3.0)
                * ((ell - 1.0) ** 2 - m * m)
                / (ell * ell - m * m)
            )
            pos[m, ell] = a * ct * pos[m, ell - 1] - b * pos[m, ell - 2]
    out = np.zeros((F, L, n))
    out[:L] = pos
    for m in range(1, L):
        out[F - m] = ((-1.0) ** m) * pos[m]
    return out


@dataclass(frozen=True)
class AngularScheme:
    """Sampling and precomputed transform tensors for band-limit L."""

    L: int
    thetas: np.ndarray
    theta_weights: np.ndarray
    n_phi: int
    phis: np.ndarray
    _pbar: np.ndarray = field(repr=False)
    _fwd: np.ndarray = field(repr=False)
    _pack_mi: np.ndarray = field(repr=False)
    _pack_ell: np.ndarray = field(repr=False)

    @property
    def n_theta(self):
        return self.thetas.size

    @property
    def grid_shape(self):
        return (self.n_theta, self.n_phi)


def build_angular_scheme(L):
    """Gauss-Legendre colatitudes and minimal equiangular longitudes for L."""
    if L < 1:
        raise ValueError("L must be >= 1")
    xgl, wgl = np.polynomial.legendre.leggauss(L)
    order = np.argsort(-xgl)  # theta ascending
    ct, w = xgl[order], wgl[order]
    st = np.sqrt(1.0 - ct * ct)
    thetas = np.arccos(ct)
    F = 2 * L - 1
    phis = 2.0 * np.pi * np.arange(F) / F
    pbar = _legendre_bin_tensor(L, ct, st)
    fwd = pbar * (w * (2.0 * np.pi / F))[None, None, :]
    ell, m = _lm_arrays(L)
    return AngularScheme(
        L=L,
        thetas=thetas,
        theta_weights=w,
        n_phi=F,
        phis=phis,
        _pbar=pbar,
        _fwd=fwd,
        _pack_mi=(np.mod(m, F)).astype(np.int64),
        _pack_ell=ell,
    )


def sht_forward(scheme, samples):
    """Coefficients f_lm of a grid (..., n_theta, n_phi); exact at band-limit L."""
    vals = samples.values if hasattr(samples, "values") else np.asarray(samples)
    if vals.shape[-2:] != scheme.grid_shape:
        raise ValueError("grid shape does not match scheme")
    G = np.fft.fft(vals, axis=-1)
    binned = np.einsum("mlt,...tm->...ml", scheme._fwd, G)
    return binned[..., scheme._pack_mi, scheme._pack_ell]


def sht_inverse(scheme, coeffs):
    """Evaluate coefficients (..., L*L) on the scheme grid."""
    vals = np.asarray(coeffs)
    Lc = int(np.sqrt(vals.shape[-1]))
    if Lc * Lc != vals.shape[-1]:
        raise ValueError("coefficient vector length must be a square")
    if Lc > scheme.L:
        raise ValueError("coefficient band-limit exceeds scheme")
    if Lc < scheme.L:
        ell, m = _lm_arrays(Lc)
        full = np.zeros(vals.shape[:-1] + (scheme.L**2,), dtype=complex)
        full[..., ell * ell + ell + m] = vals
        vals = full
    F = scheme.n_phi
    binned = np.zeros(vals.shape[:-1] + (F, scheme.L), dtype=complex)
    binned[..., scheme._pack_mi, scheme._pack_ell] = vals
    H = np.einsum("mlt,...ml->...tm", scheme._pbar, binned)
    return np.fft.ifft(H, axis=-1) * F


def ylm_point(L, theta, phi):
    """Y_lm(theta, phi) for all l < L, packed; used for pointwise evaluation."""
    ct = np.array([np.cos(theta)])
    st = np.array([np.sin(theta)])
    pbar = _legendre_bin_tensor(L, ct, st)[:, :, 0]
    ell, m = _lm_arrays(L)
    F = 2 * L - 1
    return pbar[np.mod(m, F), ell] * np.exp(1j * m * phi)


def sph_parseval_energy(scheme, samples):
    """Quadrature evaluation of integral |f|^2 dOmega on the scheme grid."""
    vals = samples.values if hasattr(samples, "values") else np.asarray(samples)
    w = scheme.theta_weights * (2.0 * np.pi / scheme.n_phi)
    return np.einsum("t,...tp->...", w, np.abs(vals) ** 2)
