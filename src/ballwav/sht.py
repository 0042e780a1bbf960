"""Exact spherical harmonic transform on a Gauss-Legendre x equiangular grid.

Colatitude integrals use an L-node Gauss-Legendre rule in cos(theta), exact
for the degree-(2L-2) Legendre products a band-limit-L transform needs, and
longitude uses a length-(2L-1) FFT, the minimal count resolving |m| <= L-1,
or on the real path at low band-limits a direct DFT (below). Coefficients
are packed in (l, m) order at index l*l + l + m.

Associated Legendre values come from the fully normalized ascending-l
recurrence with the Condon-Shortley phase; the sectorial seed is assembled in
log space so high orders degrade by harmless underflow instead of NaNs.

A scheme stores one unweighted table of P_lm for m >= 0 only, as
consecutive blocks of orders [m0, m1), each a dense float64 rectangle over
the degrees l >= m0 and the L nodes that fits _BLOCK_BYTES. Up to L=64 the
table is one L x L x L block (2.1 MB at L=64); above, the blocks skip most
of the zeros l < m: 10.3 MB in 5 blocks at L=128 instead of 16.8 MB, and
70.0 MB in 36 blocks at L=256 instead of 134 MB. Both directions split the FFT
bins into an m >= 0 and an m < 0 half and contract each, block by block,
against the table, taking P_{l,-m} = (-1)^m P_lm; the forward transform
applies the quadrature weights to its FFT output in place. The layout
follows the m-blocked, symmetry-halved one of McEwen & Wiaux 2011 and SHTns.
Splitting the table changes no complex output: each einsum entry sums the
same products in the same order, less the leading zeros l < m0.

Coefficients at a band-limit Lc < L still live on the band-limit-L grid,
but cost only what Lc needs: both directions contract the table's orders
and degrees below Lc and touch the 2Lc-1 FFT bins of orders |m| < Lc.
sht_inverse reads Lc from its input; sht_forward takes it as an output
band-limit.

A real signal has conjugate-symmetric coefficients, f_{l,-m} = (-1)^m
conj(f_lm), so only the m >= 0 half needs computing. sht_forward takes that
path for any float grid: the bins m = 0..Lc-1, then per table block one
batched matmul against their (re, im) pairs, laid out (m, theta, batch), so
the real table is never promoted to complex; the m < 0 half is filled by
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
or coefficient rows), and the work runs over blocks of rows whose
temporaries fit _BLOCK_BYTES, or one row (_row_scratch counts them: the FFT
bins, one table block's binned half or einsum output, and its gathered
cells). A block drops each einsum output and binned half once spent, so a
transform holds its input, its output and about one budget; sht_inverse
builds a block's bins in its output and transforms them there. No value
depends on the split: each row's FFT and each einsum entry is computed as
in one call, and a grid up to L=P=32 is a single block. The real path takes
all rows at once: over blocks of rows its forward matmul would round
differently, as OpenBLAS rounds a column of a product differently with the
column count, and its inverse would read the whole table for each block's
little work. Over blocks of the table its forward matmul can round
differently too (by up to 3.5e-16 relative at L <= 40), as each order's
product has fewer rows; its inverse, like every complex output, gave the
same bytes in every test.
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
    # a NaN carries through, and fails the test below; a zero batch, with no
    # rows, passes
    resid = np.max(resid, initial=0.0)
    bound = 1e-10 * max(1.0, float(np.max(peak, initial=0.0)))
    if not resid <= bound:
        raise ArithmeticError(
            "coefficients are not those of a real signal: conjugate-symmetry "
            "residue %g exceeds %g" % (resid, bound))


# Bytes of scratch per block: a complex transform runs over blocks of rows
# whose temporaries (FFT bins, binned halves, einsum outputs) fit this
# budget, and the Legendre table is stored as blocks of orders that each fit
# it. 2 MiB is one core's L2 cache on common x86 hosts, and the smallest
# budget that keeps every table up to L=64 one block (the L=64 table is
# exactly 2 MiB), so the Legendre steps of those band-limits run as one
# einsum each.
_BLOCK_BYTES = 2 << 20


def _blocks(n, item_bytes):
    """Slices covering range(n), each holding as many items of item_bytes as
    fit in _BLOCK_BYTES, and at least one."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _order_spans(L, n):
    """Orders [m0, m1) of each block of the band-limit-L table at n nodes:
    from m0 = 0, each block takes as many orders as fit its (m1 - m0) x
    (L - m0) x n float64 rectangle in _BLOCK_BYTES, and at least one."""
    spans, m0 = [], 0
    while m0 < L:
        m1 = min(L, m0 + max(1, _BLOCK_BYTES // (8 * (L - m0) * n)))
        spans.append((m0, m1))
        m0 = m1
    return spans


def _legendre_blocks(L, ct, st, spans):
    """Normalized P_lm at the nodes cos theta = ct for m >= 0, as one flat
    buffer and a (m0, block) view into it per span [m0, m1) of orders.

    A block has shape (m1 - m0, L - m0, n_nodes); entry [m - m0, l - m0, t]
    holds P_lm(ct[t]) with the Condon-Shortley phase. Entries with l < m are
    zero, and the degrees l < m0, zero for all of the block's orders, are not
    stored. Negative orders are not stored: callers use P_{l,-m} = (-1)^m P_lm.
    """
    n = ct.size
    sizes = [(m1 - m0) * (L - m0) * n for m0, m1 in spans]
    buf = np.zeros(sum(sizes))
    with np.errstate(divide="ignore"):
        log_st = np.log(st)
    m = np.arange(L)
    # sectorial seeds P_mm, log-space magnitude with (-1)^m sign, and P_m,m+1
    log_fac = np.cumsum(np.append(0.0, 0.5 * np.log((2 * m[1:] + 1) / (2.0 * m[1:]))))
    pmm = ((-1.0) ** m)[:, None] * np.exp(log_fac[:, None] + m[:, None] * log_st)
    pmm = pmm / _SQRT4PI
    pm1 = np.sqrt(2 * m[:-1] + 3.0)[:, None] * ct * pmm[:-1]
    blocks = []
    for (m0, m1), start in zip(spans, np.cumsum([0] + sizes)):
        blk = buf[start:start + (m1 - m0) * (L - m0) * n].reshape(m1 - m0, L - m0, n)
        j = np.arange(m1 - m0)
        blk[j, j] = pmm[m0:m1]
        j = j[:min(m1, L - 1) - m0]
        blk[j, j + 1] = pm1[m0:m1]
        # ascending l, every order m0 <= m < m1 with m <= l-2 at once
        for ell in range(m0 + 2, L):
            mm = m[m0:min(m1, ell - 1), None]
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - mm * mm))
            b = np.sqrt((2.0 * ell + 1.0) / (2.0 * ell - 3.0) * ((ell - 1.0) ** 2 - mm * mm)
                        / (ell * ell - mm * mm))
            rows = blk[:len(mm)]
            rows[:, ell - m0] = a * ct * rows[:, ell - m0 - 1] - b * rows[:, ell - m0 - 2]
        blocks.append((m0, blk))
    return buf, tuple(blocks)


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


@lru_cache(maxsize=256)
def _block_cells(Lc, m0, m1):
    """The cells of _halves(Lc) with orders m0 <= |m| < m1, placed in one
    table block's binned halves: (index, row, l) with row m - m0 for m >= 0,
    and (index, row, l, (-1)^m) with row |m| - max(m0, 1) for m < 0; l is
    counted from m0 in both."""
    (i_p, r_p, l_p), (i_n, r_n, l_n, sign, _) = _halves(Lc)
    p = (m0 <= r_p) & (r_p < m1)
    n = (m0 <= r_n + 1) & (r_n + 1 < m1)
    parts = ((i_p[p], r_p[p] - m0, l_p[p] - m0),
             (i_n[n], r_n[n] + 1 - max(m0, 1), l_n[n] - m0, sign[n]))
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
    """Sampling and the unweighted m >= 0 Legendre table for band-limit L:
    _plm holds the table's blocks back to back, and _plm_blocks a (m0, block)
    view into it per block (see _legendre_blocks)."""

    L: int
    thetas: np.ndarray
    theta_weights: np.ndarray
    n_phi: int
    phis: np.ndarray
    _plm: np.ndarray = field(repr=False)
    _plm_blocks: tuple = field(repr=False)

    @property
    def n_theta(self):
        return self.thetas.size

    @property
    def grid_shape(self):
        return (self.n_theta, self.n_phi)


@lru_cache(maxsize=64)
def build_angular_scheme(L):
    """Gauss-Legendre colatitudes and minimal equiangular longitudes for L.

    Cached: every caller of one L shares the scheme and its Legendre table."""
    if L < 1:
        raise ValueError("L must be >= 1")
    xgl, wgl = np.polynomial.legendre.leggauss(L)
    order = np.argsort(-xgl)  # theta ascending
    ct, w = xgl[order], wgl[order]
    st = np.sqrt(1.0 - ct * ct)
    F = 2 * L - 1
    thetas, phis = np.arccos(ct), 2.0 * np.pi * np.arange(F) / F
    plm, blocks = _legendre_blocks(L, ct, st, _order_spans(L, L))
    for a in (thetas, w, phis, plm, *(blk for _, blk in blocks)):
        a.flags.writeable = False  # cached: every caller shares them
    return AngularScheme(L=L, thetas=thetas, theta_weights=w, n_phi=F, phis=phis,
                         _plm=plm, _plm_blocks=blocks)


def _table_blocks(scheme, Lc):
    """(m0, m1, table) for each table block holding orders below Lc: its
    orders m0 <= m < m1 and degrees m0 <= l < Lc, as table[m - m0, l - m0, t]."""
    for m0, blk in scheme._plm_blocks:
        if m0 >= Lc:
            break
        m1 = min(m0 + len(blk), Lc)
        yield m0, m1, blk[:m1 - m0, :Lc - m0]


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


def _row_scratch(scheme, Lc, forward):
    """Bytes of temporaries per row that _forward_rows (forward) or
    _inverse_rows holds at most at band-limit Lc: the FFT bins, one table
    block's einsum output and the cells gathered from it; or one block's
    binned half and then its einsum output, which outweighs the cells
    gathered into the half."""
    if forward:
        bins = scheme.n_theta * (scheme.n_phi + (2 * Lc - 1 if Lc < scheme.L else 0))
        return 16 * (bins + 2 * max((m1 - m0) * (Lc - m0)
                                    for m0, m1, _ in _table_blocks(scheme, Lc)))
    return 16 * max((m1 - m0) * (Lc - m0 + scheme.n_theta)
                    for m0, m1, _ in _table_blocks(scheme, Lc))


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
    rows, flat = vals.reshape((-1,) + scheme.grid_shape), out.reshape(-1, Lc * Lc)
    for s in _blocks(len(rows), _row_scratch(scheme, Lc, True)):
        _forward_rows(scheme, rows[s], flat[s], Lc)
    return out


def _forward_rows(scheme, vals, out, Lc):
    """sht_forward of complex grids vals (..., n_theta, n_phi) into out."""
    G = np.fft.fft(vals, axis=-1)
    if Lc < scheme.L:  # keep bins m = 0..Lc-1 and m = -(Lc-1)..-1, in FFT order
        G = np.concatenate((G[..., :Lc], G[..., scheme.n_phi - Lc + 1:]), axis=-1)
    G *= (scheme.theta_weights * (2.0 * np.pi / scheme.n_phi))[:, None]
    n = G.shape[-1]  # bin n - k holds order -k
    # one einsum output at a time, dropped once its cells are out
    for m0, m1, plm in _table_blocks(scheme, Lc):
        (i_p, r_p, l_p), (i_n, r_n, l_n, sign) = _block_cells(Lc, m0, m1)
        out[..., i_p] = np.einsum("mlt,...tm->...ml", plm, G[..., m0:m1])[..., r_p, l_p]
        lo = max(m0, 1)  # order 0 has no m < 0 twin
        neg = np.einsum("mlt,...tm->...ml", plm[lo - m0:],
                        G[..., n - lo:n - m1:-1])[..., r_n, l_n]
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
    # every block's product first, so that the bins are dropped before out is
    # made; the products skip the zeros l < m0, so they outweigh neither
    Y = [(m0, m1, np.matmul(plm, X[m0:m1].view(float)).view(complex))
         for m0, m1, plm in _table_blocks(scheme, Lc)]
    n = X.shape[-1]
    del X
    out = np.empty((n, Lc * Lc), dtype=complex)
    for m0, m1, y in Y:
        (i_p, r_p, l_p), _ = _block_cells(Lc, m0, m1)
        out[:, i_p] = y[r_p, l_p].T
    del Y, y
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
    rows, grids = vals.reshape(-1, Lc * Lc), out.reshape((-1,) + scheme.grid_shape)
    for s in _blocks(len(rows), _row_scratch(scheme, Lc, False)):
        _inverse_rows(scheme, rows[s], grids[s], Lc)
    return out


def _inverse_rows(scheme, vals, H, Lc):
    """sht_inverse of coefficients vals (..., Lc*Lc) into complex grids H,
    which hold the FFT bins until the inverse FFT runs in place."""
    F, batch = scheme.n_phi, vals.shape[:-1]
    for m0, m1, plm in _table_blocks(scheme, Lc):
        (i_p, r_p, l_p), (i_n, r_n, l_n, sign) = _block_cells(Lc, m0, m1)
        half = np.zeros(batch + (m1 - m0, Lc - m0), dtype=complex)
        half[..., r_p, l_p] = vals[..., i_p]
        H[..., m0:m1] = np.einsum("mlt,...ml->...tm", plm, half)
        del half  # dropped before the m < 0 half is formed
        lo = max(m0, 1)  # order 0 has no m < 0 twin
        # formed first, so that its gathered operand is freed before the half is made
        neg = sign * vals[..., i_n]
        half = np.zeros(batch + (m1 - lo, Lc - m0), dtype=complex)
        half[..., r_n, l_n] = neg
        del neg
        # bins F-m1+1..F-lo hold m = -(m1-1)..-lo, the half's rows in reverse
        H[..., F - m1 + 1:F - lo + 1] = np.einsum("mlt,...ml->...tm", plm[lo - m0:],
                                                  half)[..., ::-1]
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
    # m-major (m, l, batch) halves and (m, t, batch) bins, as in _forward_real
    H = []
    for m0, m1, plm in _table_blocks(scheme, Lc):
        (i_p, r_p, l_p), _ = _block_cells(Lc, m0, m1)
        half = np.zeros((m1 - m0, Lc - m0, flat.shape[0]), dtype=complex)
        half[r_p, l_p] = flat[:, i_p].T
        H.append((m0, m1, np.matmul(plm.transpose(0, 2, 1), half.view(float)).view(complex)))
        del half
    # (batch, t, m) bins, in place of the rfft spectrum's first Lc bins
    spec = np.empty((flat.shape[0], scheme.n_theta, Lc), dtype=complex)
    for m0, m1, h in H:
        spec[..., m0:m1] = h.transpose(2, 1, 0)
    del H, h
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
    _, ((_, plm),) = _legendre_blocks(L, ct, st, [(0, L)])
    plm = plm[:, :, 0]
    ell, m = _lm_arrays(L)
    sign = np.where(m < 0, (-1.0) ** m, 1.0)
    return sign * plm[np.abs(m), ell] * np.exp(1j * m * phi)


def sph_parseval_energy(scheme, samples):
    """Quadrature evaluation of integral |f|^2 dOmega on the scheme grid."""
    w = scheme.theta_weights * (2.0 * np.pi / scheme.n_phi)
    return np.einsum("t,...tp->...", w, np.abs(samples) ** 2)
