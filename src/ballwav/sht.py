"""Exact spherical harmonic transform on a Gauss-Legendre x equiangular grid.

Colatitude integrals use an L-node Gauss-Legendre rule in cos(theta), exact
for the degree-(2L-2) Legendre products a band-limit-L transform needs, and
longitude uses a length-(2L-1) FFT, the minimal count resolving |m| <= L-1,
or on the real path at low band-limits a direct DFT (below). Coefficients
are packed in (l, m) order at index l*l + l + m.

Associated Legendre values come from the fully normalized ascending-l
recurrence with the Condon-Shortley phase; the sectorial seed is assembled in
log space so high orders degrade by harmless underflow instead of NaNs.

A scheme stores one unweighted table of P_lm for m >= 0 only, L x L x L
float64 values (16.8 MB at L=128). Both directions split the FFT bins into
an m >= 0 and an m < 0 half and contract each against that table, taking
P_{l,-m} = (-1)^m P_lm; the forward transform applies the quadrature
weights to its FFT output in place. The layout follows the m-blocked,
symmetry-halved one of McEwen & Wiaux 2011 and SHTns.

Coefficients at a band-limit Lc < L still live on the band-limit-L grid,
but cost only what Lc needs: both directions contract the table block
m, l < Lc and touch the 2Lc-1 FFT bins of orders |m| < Lc. sht_inverse reads
Lc from its input; sht_forward takes it as an output band-limit.

A real signal has conjugate-symmetric coefficients, f_{l,-m} = (-1)^m
conj(f_lm), so only the m >= 0 half needs computing. sht_forward takes that
path for any float grid: the bins m = 0..Lc-1, then one batched matmul of
the table against their (re, im) pairs, laid out (m, theta, batch), so the
real table is never promoted to complex; the m < 0 half is filled by
symmetry. A float dtype marks a real grid, but nothing marks real
coefficients, so the real inverse is taken only where a caller says so:
flag_synthesis with real=True. It reads the m >= 0 half, contracts it the
same way and ends with an inverse real DFT, returning a float grid.
check_real guards that claim, raising ArithmeticError when the coefficients
are not conjugate-symmetric or hold a NaN, since the m < 0 half would
otherwise be dropped silently. sht_inverse itself is the complex path.

On the real path the longitude step in either direction is, up to
Lc = _DFT_MAX_BINS, one float matmul of the rows against a cached
(n_phi, 2Lc) or (2Lc, n_phi) cos/sin table, costing n_phi * 2Lc per row;
above that measured crossover an rfft or irfft of all n_phi longitudes is
cheaper.

The complex transforms stream: leading axes are flattened into rows (grids
or coefficient rows), and the work runs over blocks of rows holding at most
_BLOCK_BYTES of complex grid, or one row. The budget bounds each block's
temporaries (its FFT bins, binned halves and einsum outputs), so a transform
holds its input, its output and a few budgets; sht_inverse builds a block's
bins in its output and transforms them there. No value depends on the
split: each row's FFT and each einsum entry is computed as in one call, and
a grid up to L=P=64 is a single block. The real path takes all rows at
once: over blocks of rows its forward matmul would round differently, as
OpenBLAS rounds a column of a product differently with the column count,
and its inverse would read the whole table for each block's little work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_SQRT4PI = float(np.sqrt(4.0 * np.pi))


def lm_index(ell, m):
    """Packed coefficient index l*l + l + m."""
    return ell * ell + ell + m


def packed_bandlimit(vals):
    """Band-limit L of the packed (l, m) last axis of vals, of length L*L."""
    if vals.ndim < 1:
        raise ValueError("coefficients must have shape (..., L*L)")
    n = vals.shape[-1]
    L = int(np.sqrt(n))
    if L * L != n:
        raise ValueError("packed (l, m) length %d is not a square" % n)
    return L


@lru_cache(maxsize=64)
def _lm_arrays(L):
    """Degree l and order m of each packed index l*l + l + m below L*L."""
    idx = np.arange(L * L)
    ell = np.floor(np.sqrt(idx)).astype(np.int64)
    m = idx - ell * ell - ell
    for a in (ell, m):
        a.flags.writeable = False  # cached: every caller shares them
    return ell, m


def check_real(coeffs):
    """Raise ArithmeticError unless packed coefficients (..., L*L) are those of
    a real signal: f_{l,-m} = (-1)^m conj(f_lm) to 1e-10 max(1, max|f|).
    A NaN anywhere fails the check.

    Rows are checked over blocks of _BLOCK_BYTES, so the temporaries stay
    within a few budgets; the maxima, and so the verdict, are those of one
    pass over all rows."""
    vals = np.asarray(coeffs)
    L = packed_bandlimit(vals)
    (i_p, r_p, _), (i_n, _, _, sign, i_m) = _halves(L)
    i_z = i_p[r_p == 0]  # m = 0 mirrors itself
    rows = vals.reshape(-1, L * L)
    resid, peak = [], []
    for s in _blocks(len(rows), 16 * L * L):
        z = rows[s, i_z]
        resid.append(np.max(np.abs(z - np.conj(z))))
        resid.append(np.max(np.abs(rows[s, i_n] - sign * np.conj(rows[s, i_m])),
                            initial=0.0))
        peak.append(np.max(np.abs(rows[s])))
    resid = np.max(resid)  # a NaN carries through, and fails the test below
    bound = 1e-10 * max(1.0, float(np.max(peak)))
    if not resid <= bound:
        raise ArithmeticError(
            "coefficients are not those of a real signal: conjugate-symmetry "
            "residue %g exceeds %g" % (resid, bound))


def _legendre_table(L, ct, st):
    """Normalized P_lm at each node for m >= 0, shape (L, L, n_nodes).

    Entry [m, l, t] holds P_lm(cos theta_t) with the Condon-Shortley phase;
    entries with l < m are zero. Negative orders are not stored: callers use
    P_{l,-m} = (-1)^m P_lm.
    """
    n = ct.size
    plm = np.zeros((L, L, n))
    with np.errstate(divide="ignore"):
        log_st = np.log(st)
    # sectorial seeds P_mm, log-space magnitude with (-1)^m sign
    log_fac = 0.0
    for m in range(L):
        if m > 0:
            log_fac += 0.5 * np.log((2 * m + 1) / (2.0 * m))
        pmm = ((-1.0) ** m) * np.exp(log_fac + m * log_st) / _SQRT4PI
        plm[m, m] = pmm
        if m + 1 < L:
            plm[m, m + 1] = np.sqrt(2 * m + 3.0) * ct * pmm
        for ell in range(m + 2, L):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(
                (2.0 * ell + 1.0)
                / (2.0 * ell - 3.0)
                * ((ell - 1.0) ** 2 - m * m)
                / (ell * ell - m * m)
            )
            plm[m, ell] = a * ct * plm[m, ell - 1] - b * plm[m, ell - 2]
    return plm


@lru_cache(maxsize=64)
def _halves(L):
    """Packed indices of the m >= 0 and the m < 0 coefficients, and their cells.

    The Legendre step works on two binned halves indexed [row, l]: row m for
    m >= 0, against table rows 0..L-1, and row |m| - 1 for m < 0, against
    table rows 1..L-1. Returns (index, row, l) for the first half and
    (index, row, l, (-1)^m, mirror) for the second, where mirror is the
    packed index of (l, -m). None of it depends on the scheme band-limit, so
    a lower band-limit L indexes a prefix of the cells.
    """
    ell, m = _lm_arrays(L)
    pos = np.flatnonzero(m >= 0)
    neg = np.flatnonzero(m < 0)
    parts = ((pos, m[pos], ell[pos]),
             (neg, -m[neg] - 1, ell[neg], (-1.0) ** m[neg], neg - 2 * m[neg]))
    for part in parts:
        for a in part:
            a.flags.writeable = False  # cached: every caller shares them
    return parts


def _conj_fill(vals):
    """Write the m < 0 half of packed coefficients vals (..., L*L) in place
    from the m > 0 half, as a real signal has it: f_{l,-m} = (-1)^m conj(f_lm)."""
    _, (i_n, _, _, sign, i_m) = _halves(packed_bandlimit(vals))
    vals[..., i_n] = sign * np.conj(vals[..., i_m])


@dataclass(frozen=True)
class AngularScheme:
    """Sampling and the unweighted m >= 0 Legendre table for band-limit L."""

    L: int
    thetas: np.ndarray
    theta_weights: np.ndarray
    n_phi: int
    phis: np.ndarray
    _plm: np.ndarray = field(repr=False)

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
    F = 2 * L - 1
    return AngularScheme(
        L=L,
        thetas=np.arccos(ct),
        theta_weights=w,
        n_phi=F,
        phis=2.0 * np.pi * np.arange(F) / F,
        _plm=_legendre_table(L, ct, st),
    )


# Bytes of complex grid rows per block. One complex L=P=64 grid (8.3 MB) is
# one block, so every grid up to that size runs as a single call.
_BLOCK_BYTES = 8 << 20


def _blocks(n, item_bytes):
    """Slices covering range(n), each holding as many items of item_bytes as
    fit in _BLOCK_BYTES, and at least one."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


# Largest band-limit whose real longitude step is a direct DFT of its bins
# rather than an FFT of all n_phi longitudes. On one thread the direct step
# took 0.05-0.93 of the FFT's time at every Lc <= 32 swept (n_phi from 15 to
# 1025), but 1.1-1.6 at Lc = 48-64 for smooth n_phi such as 135, 225 and 243.
_DFT_MAX_BINS = 32


@lru_cache(maxsize=64)
def _dft_tables(F, Lc):
    """Direct real DFT tables between F longitudes and bins m = 0..Lc-1.

    E (F, 2Lc) maps a row of samples to the (re, im) pairs of its rfft bins:
    cos and -sin of 2 pi m k / F. D (2Lc, F) maps the (re, im) pairs of
    bins 0..Lc-1 back to samples, as F * irfft does, weighting m = 0 by 1
    and m > 0 by 2 for the conjugate bins. Angles are reduced exactly, as
    (m k mod F) / F, so their rounding does not grow with m k.
    """
    m, k = np.arange(Lc), np.arange(F)
    angle = 2.0 * np.pi * (np.outer(k, m) % F) / F
    E = np.empty((F, Lc, 2))
    E[..., 0], E[..., 1] = np.cos(angle), -np.sin(angle)
    E = E.reshape(F, 2 * Lc)
    D = np.where(np.arange(2 * Lc) < 2, 1.0, 2.0)[:, None] * E.T
    for a in (E, D):
        a.flags.writeable = False  # cached: every caller shares them
    return E, D


def _by_rows(scheme, body, rows, out, Lc):
    """body(scheme, rows[s], out[s], Lc) over blocks s of the leading axis."""
    for s in _blocks(len(rows), 16 * scheme.n_theta * scheme.n_phi):
        body(scheme, rows[s], out[s], Lc)


def sht_forward(scheme, samples, Lc=None):
    """Coefficients f_lm of a grid (..., n_theta, n_phi); exact at band-limit L.

    FFT bins 0..L-1 hold m = 0..L-1 and bins 2L-2 down to L hold m = -1 down
    to -(L-1). With an output band-limit Lc < L only the coefficients l < Lc
    are computed, from the 2Lc-1 bins and the table rows m, l < Lc they need.
    """
    vals = np.asarray(samples)
    if vals.shape[-2:] != scheme.grid_shape:
        raise ValueError("grid shape does not match scheme")
    L = scheme.L
    Lc = L if Lc is None else Lc
    if not 1 <= Lc <= L:
        raise ValueError("output band-limit %r not in 1..%d" % (Lc, L))
    if not np.iscomplexobj(vals):
        return _forward_real(scheme, vals, Lc)
    out = np.empty(vals.shape[:-2] + (Lc * Lc,), dtype=complex)
    _by_rows(scheme, _forward_rows, vals.reshape((-1,) + scheme.grid_shape),
             out.reshape(-1, Lc * Lc), Lc)
    return out


def _forward_rows(scheme, vals, out, Lc):
    """sht_forward of complex grids vals (..., n_theta, n_phi) into out."""
    plm = scheme._plm[:Lc, :Lc]
    G = np.fft.fft(vals, axis=-1)
    if Lc < scheme.L:  # keep bins m = 0..Lc-1 and m = -(Lc-1)..-1, in FFT order
        G = np.concatenate((G[..., :Lc], G[..., scheme.n_phi - Lc + 1:]), axis=-1)
    G *= (scheme.theta_weights * (2.0 * np.pi / scheme.n_phi))[:, None]
    pos = np.einsum("mlt,...tm->...ml", plm, G[..., :Lc])
    neg = np.einsum("mlt,...tm->...ml", plm[1:], G[..., :Lc - 1:-1])
    # temporaries are dropped once spent, so that the allocator reuses them
    del G
    (i_p, r_p, l_p), (i_n, r_n, l_n, sign, _) = _halves(Lc)
    out[..., i_p] = pos[..., r_p, l_p]
    del pos
    neg = neg[..., r_n, l_n]
    neg *= sign
    out[..., i_n] = neg


def _forward_real(scheme, vals, Lc):
    """sht_forward of a float grid: only the orders m >= 0 are computed, from
    longitude bins 0..Lc-1; the m < 0 half follows by conjugate symmetry."""
    F = scheme.n_phi
    # the (re, im) view below needs complex128 bins, so a float64 grid
    rows = np.asarray(vals, dtype=float).reshape(-1, F)
    batch = vals.shape[:-2]
    if Lc <= _DFT_MAX_BINS:
        G = (rows @ _dft_tables(F, Lc)[0]).view(complex)
    else:
        G = np.fft.rfft(rows, axis=-1)[:, :Lc]
    # m-major (m, t, batch) layout: each order is one float matmul of its
    # table block against the (re, im) pairs of its bins
    X = np.ascontiguousarray(G.reshape(-1, scheme.n_theta, Lc).transpose(2, 1, 0))
    del G
    X *= (scheme.theta_weights * (2.0 * np.pi / F))[:, None]
    Y = np.matmul(scheme._plm[:Lc, :Lc], X.view(float)).view(complex)
    del X
    (i_p, r_p, l_p), _ = _halves(Lc)
    out = np.empty((Y.shape[-1], Lc * Lc), dtype=complex)
    out[:, i_p] = Y[r_p, l_p].T
    _conj_fill(out)
    return out.reshape(batch + (Lc * Lc,))


def _bandlimit(scheme, vals):
    """Band-limit Lc of packed coefficients vals, checked against the scheme."""
    Lc = packed_bandlimit(vals)
    if not 1 <= Lc <= scheme.L:
        raise ValueError("coefficient band-limit %d not in 1..%d" % (Lc, scheme.L))
    return Lc


def sht_inverse(scheme, coeffs):
    """Evaluate coefficients (..., Lc*Lc) with Lc <= L on the scheme grid.

    Only the table rows m, l < Lc are contracted; the bins of orders
    |m| >= Lc are set to zero.
    """
    vals = np.asarray(coeffs)
    Lc = _bandlimit(scheme, vals)
    out = np.empty(vals.shape[:-1] + scheme.grid_shape, dtype=complex)
    _by_rows(scheme, _inverse_rows, vals.reshape(-1, Lc * Lc),
             out.reshape((-1,) + scheme.grid_shape), Lc)
    return out


def _inverse_rows(scheme, vals, H, Lc):
    """sht_inverse of coefficients vals (..., Lc*Lc) into complex grids H,
    which hold the FFT bins until the inverse FFT runs in place."""
    F, plm = scheme.n_phi, scheme._plm[:Lc, :Lc]
    (i_p, r_p, l_p), (i_n, r_n, l_n, sign, _) = _halves(Lc)
    batch = vals.shape[:-1]
    half = np.zeros(batch + (Lc, Lc), dtype=complex)
    half[..., r_p, l_p] = vals[..., i_p]
    H[..., :Lc] = np.einsum("mlt,...ml->...tm", plm, half)
    half = np.zeros(batch + (Lc - 1, Lc), dtype=complex)
    half[..., r_n, l_n] = sign * vals[..., i_n]
    # bins F-Lc+1..F-1 hold m = -(Lc-1)..-1, the half's rows in reverse
    H[..., F - Lc + 1:] = np.einsum("mlt,...ml->...tm", plm[1:], half)[..., ::-1]
    del half
    if Lc < scheme.L:
        H[..., Lc:F - Lc + 1] = 0.0
    np.fft.ifft(H, axis=-1, out=H)
    H *= F


def _inverse_real(scheme, vals):
    """sht_inverse of conjugate-symmetric coefficients, from their m >= 0 half,
    as a float grid. The symmetry is assumed, not checked: flag_synthesis
    checks a caller's real claim with check_real before it gets here."""
    Lc = _bandlimit(scheme, vals)
    batch = vals.shape[:-1]
    flat = vals.reshape(-1, Lc * Lc)
    (i_p, r_p, l_p), _ = _halves(Lc)
    # m-major (m, l, batch) layout, as in _forward_real
    half = np.zeros((Lc, Lc, flat.shape[0]), dtype=complex)
    half[r_p, l_p] = flat[:, i_p].T
    H = np.matmul(scheme._plm[:Lc, :Lc].transpose(0, 2, 1),
                  half.view(float)).view(complex)
    del half
    # (batch, t, m) bins, in place of the rfft spectrum's first Lc bins
    spec = np.ascontiguousarray(H.transpose(2, 1, 0))
    del H
    F = scheme.n_phi
    if Lc <= _DFT_MAX_BINS:
        out = spec.view(float).reshape(-1, 2 * Lc) @ _dft_tables(F, Lc)[1]
    else:
        out = np.fft.irfft(spec, n=F, axis=-1)
        out *= F
    return out.reshape(batch + scheme.grid_shape)


def ylm_point(L, theta, phi):
    """Y_lm(theta, phi) for all l < L, packed; used for pointwise evaluation."""
    ct = np.array([np.cos(theta)])
    st = np.array([np.sin(theta)])
    plm = _legendre_table(L, ct, st)[:, :, 0]
    ell, m = _lm_arrays(L)
    sign = np.where(m < 0, (-1.0) ** m, 1.0)
    return sign * plm[np.abs(m), ell] * np.exp(1j * m * phi)


def sph_parseval_energy(scheme, samples):
    """Quadrature evaluation of integral |f|^2 dOmega on the scheme grid."""
    w = scheme.theta_weights * (2.0 * np.pi / scheme.n_phi)
    return np.einsum("t,...tp->...", w, np.abs(samples) ** 2)
