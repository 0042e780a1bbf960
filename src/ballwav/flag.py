"""Separable harmonic transform on the solid ball, plus the Bessel bridge.

A ball signal sampled on (radial node, theta, phi) maps to coefficients
f[p, lm] by running the spherical transform shell by shell and the radial
analysis along each (l, m) line; both orders commute. When only the
coefficients p < Pc, l < Lc are nonzero or wanted, the angular transform
works at Lc and runs on whichever side of the radial step has Pc rows, so a
band-limited block costs what its band-limits need on the full grid.

The bridge evaluates the analytic overlap of the radial basis with spherical
Bessel functions, giving Fourier-Bessel coefficients of band-limited signals
as finite sums. Its moments take gammaln from scipy.special, imported on the
bridge's first use, so importing flag loads numpy alone.

Transforms are array-in, array-out: samples (..., P, n_theta, n_phi) and
coefficients (..., P, L*L). BallSignal and FlagCoeffs wrap arrays only at
the edges that need their scheme or band-limits: ballfile, denoise and the
flaglet coefficient set.

Real signals take the real path of the spherical transform (see sht).
flag_analysis takes it for any float grid, and flag_synthesis when told
real=True, which it checks once with sht.check_real and answers with a
float grid. On that path the radial step is one float matmul too, on the
real grid or on the (re, im) view of the coefficients.

On the complex path every radial step is an einsum of the real radial
matrix with the float64 (re, im) view of its operand, which has the bytes
of the matrix cast to complex at half the multiplies and no cast buffers.
The full-band steps stream under the byte budget of sht: synthesis
evaluates a block of shells at a time and transforms it straight into the
output grid, and analysis applies the radial matrix in place over blocks of
float columns of the coefficients, each of which depends only on itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import laguerre, sht


def sqrt4pi_factor(L):
    """sqrt(4 pi / (2l+1)) per packed (l, m) index."""
    ell, _ = sht._lm_arrays(L)
    return np.sqrt(4.0 * np.pi / (2.0 * ell + 1.0))


@dataclass(frozen=True)
class BallScheme:
    """Product of a radial and an angular scheme; samples live on P shells."""

    radial: laguerre.RadialScheme
    angular: sht.AngularScheme
    R: float

    @property
    def L(self):
        return self.angular.L

    @property
    def P(self):
        return self.radial.P

    @property
    def tau(self):
        return self.radial.tau

    @property
    def grid_shape(self):
        return (self.radial.P,) + self.angular.grid_shape


@dataclass(frozen=True)
class BallSignal:
    scheme: BallScheme
    values: np.ndarray


@dataclass(frozen=True)
class FlagCoeffs:
    """values[p, l*l+l+m]; p-major layout matching the radial transform stride."""

    L: int
    P: int
    values: np.ndarray
    real: bool = False


@lru_cache(maxsize=64)
def build_ball_scheme(L, P, tau=1.0):
    """Scheme of band-limits (L, P) and radial scale tau. Cached, like the
    radial and angular schemes it pairs: every caller of the same arguments
    shares one scheme, and its arrays are read-only."""
    radial = laguerre.build_radial_scheme(P, tau)
    angular = sht.build_angular_scheme(L)
    return BallScheme(radial=radial, angular=angular, R=float(radial.nodes[-1]))


def flag_analysis(scheme, signal, bandlimits=None):
    """Coefficients of a sampled ball signal; exact at band-limits (L, P).

    Takes an array (..., P, n_theta, n_phi); leading axes are batched
    through untouched. Output band-limits (Lc, Pc) <= (L, P)
    return only the rows p < Pc and the coefficients l < Lc, computed at
    that cost: with Pc < P the radial step runs first, on the grid, so the
    angular transform sees Pc rows instead of P. A float grid takes the
    real-signal path.
    """
    vals = np.asarray(signal)
    if vals.shape[-3:] != scheme.grid_shape:
        raise ValueError("signal grid does not match scheme")
    Lc, Pc = (scheme.L, scheme.P) if bandlimits is None else bandlimits
    if not (isinstance(Pc, numbers.Integral) and 1 <= Pc <= scheme.P):
        raise ValueError("output band-limit %r not in 1..%d" % (Pc, scheme.P))
    B = scheme.radial.weighted_basis
    if not np.iscomplexobj(vals):
        if Pc < scheme.P:
            return sht.sht_forward(scheme.angular, _radial(B[:Pc], vals, -3), Lc)
        return _radial(B, sht.sht_forward(scheme.angular, vals, Lc), -2)
    if Pc < scheme.P:
        # the (re, im) float64 view needs contiguous complex128: complex64
        # and sliced grids are converted once
        pairs = np.ascontiguousarray(vals, dtype=complex).view(float)
        rows = np.einsum("pi,...itk->...ptk", B[:Pc], pairs)
        return sht.sht_forward(scheme.angular, rows.view(complex), Lc)
    shells = sht.sht_forward(scheme.angular, vals, Lc)
    # B in place over blocks of float columns of the (re, im) view: an
    # output column needs only its own input
    pairs = shells.view(float)
    for c in sht._blocks(pairs.shape[-1], pairs[..., 0].nbytes):
        pairs[..., c] = np.einsum("pi,...il->...pl", B, pairs[..., c])
    return shells


def flag_synthesis(scheme, coeffs, real=False, *, check=True):
    """Evaluate coefficients (..., Pc, Lc*Lc) with (Lc, Pc) <= (L, P) on the
    scheme grid (inverse of flag_analysis).

    With Pc < P the angular transform runs first, on the Pc rows, and the
    radial step then maps them to the P nodes. With real set the coefficients
    must be those of a real signal and the grid is float; sht.check_real
    checks the claim (ArithmeticError) unless check is false, which callers
    pass only for coefficients real by construction.
    """
    vals = np.asarray(coeffs)
    if vals.ndim < 2:
        raise ValueError("coefficients must have shape (..., Pc, Lc*Lc)")
    Pc, Lc = vals.shape[-2], sht._bandlimit(scheme.angular, vals)
    if not 1 <= Pc <= scheme.P:
        raise ValueError("radial coefficient band-limit %d not in 1..%d" % (Pc, scheme.P))
    S = scheme.radial.node_synthesis[:, :Pc]
    if real:
        if check:
            sht.check_real(vals)
        if Pc < scheme.P:
            return _radial(S, sht._inverse_real(scheme.angular, vals), -3)
        return sht._inverse_real(scheme.angular, _radial(S, vals, -2))
    if Pc < scheme.P:
        rows = sht.sht_inverse(scheme.angular, vals)
        return np.einsum("ip,...ptk->...itk", S, rows.view(float)).view(complex)
    out = np.empty(vals.shape[:-2] + scheme.grid_shape, dtype=complex)
    # a block of shells at a time, its rows at the nodes and their angular
    # scratch within the budget, straight into out; the (re, im) view is
    # taken as in flag_analysis, of float and int coefficients too
    pairs = np.ascontiguousarray(vals, dtype=complex).view(float)
    row = 16 * Lc * Lc + sht._row_scratch(scheme.angular, Lc, False)
    for b in sht._blocks(scheme.P, math.prod(vals.shape[:-2]) * row):
        rows = np.einsum("ip,...pl->...il", S[b], pairs).view(complex)
        sht._inverse_rows(scheme.angular, rows, out[..., b, :, :], Lc)
        del rows  # dropped before the next block's rows are formed
    return out


def _radial(M, x, axis, out=None):
    """Real matrix M applied along axis -2 (coefficients) or -3 (grid) of x,
    as one float matmul, written into out (contiguous, of x's dtype) when
    given: complex x goes through its (re, im) view, so M is never promoted
    to complex."""
    # the (re, im) float64 view needs complex128, not complex64
    x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if out is None:
        out = np.empty(x.shape[:axis] + (M.shape[0],) + x.shape[axis + 1:], x.dtype)
    # the trailing axes merge into one of known length: -1 fails on a zero batch
    n = math.prod(x.shape[axis + 1:])
    np.matmul(M, x.reshape(x.shape[:axis + 1] + (n,)).view(float),
              out=out.reshape(out.shape[:axis + 1] + (n,)).view(float))
    return out


def ball_energy_quadrature(scheme, signal):
    """Quadrature of integral |f|^2 r^2 dr dOmega over the ball grid. The
    radial weights tau^3 w_i enter as w_i against |tau^1.5 f|^2: samples
    scale as tau^-1.5, so both factors stay in double range at any tau a
    scheme accepts, where tau^3 w_i may not."""
    w = scheme.angular.theta_weights * (2.0 * np.pi / scheme.angular.n_phi)
    return np.einsum("i,t,...itp->...", np.exp(scheme.radial.log_weights), w,
                     np.abs(scheme.tau**1.5 * np.asarray(signal)) ** 2)


def ball_convolve_axisym(f, h):
    """Convolution against an axisymmetric kernel, in coefficient space."""
    fv = np.asarray(f)
    hv = np.asarray(h)
    if fv.shape != hv.shape:
        raise ValueError("band-limits of f and h do not match")
    L = sht.packed_bandlimit(fv)
    ell, m = sht._lm_arrays(L)
    if np.any(hv[..., m != 0] != 0):  # a NaN is not zero either
        raise ValueError("kernel is not axisymmetric: nonzero coefficients at m != 0")
    h_ell = hv[..., sht.lm_index(ell, 0)]
    return sqrt4pi_factor(L) * fv * np.conj(h_ell)


def random_coeffs(L, P, seed, real=False):
    """Unit-variance Gaussian coefficients; conjugate-symmetric when real.
    seed may be a Generator; the real parts are drawn before the imaginary."""
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal((P, L * L))
            + 1j * rng.standard_normal((P, L * L))) / np.sqrt(2.0)
    if real:
        zero = sht._mirror(L)[0]
        vals[:, zero] = np.sqrt(2.0) * vals[:, zero].real
        sht._conj_fill(vals)
    return FlagCoeffs(L=L, P=P, values=vals, real=real)


# ---------------------------------------------------------------------------
# Bessel bridge


def _cpj_table(P):
    """c^p_j for j <= p < P, by the recurrence; zero above the diagonal."""
    C = np.zeros((P, P))
    for p in range(P):
        C[p, 0] = (p + 1) * (p + 2) / 2.0
        for j in range(1, p + 1):
            C[p, j] = -(p - j + 1) / (j * (j + 2.0)) * C[p, j - 1]
    return C


@dataclass(frozen=True)
class BesselBridge:
    """Tables for the overlap of the radial basis with spherical Bessels.

    The moment sum alternates and loses digits as p and tau*k grow; values
    are usable without the precision flag for p up to a few tens.
    """

    L: int
    P: int
    tau: float
    cpj: np.ndarray = field(repr=False)


def build_bessel_bridge(L, P, tau=1.0):
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (L, P)):
        raise ValueError("band-limits must be integers >= 1, got %r" % ((L, P),))
    return BesselBridge(L=L, P=P, tau=float(tau), cpj=_cpj_table(P))


def _gauss_series(a, b, c, w, n_terms=None):
    """sum_n (a)_n (b)_n / (c)_n w^n / n!, with the sum of |terms|.

    Terminating when n_terms is given (b a nonpositive integer); otherwise
    runs to convergence (requires w < 1 or a positive-term convergent case).
    """
    total = 1.0
    abs_total = 1.0
    term = 1.0
    n = 0
    converged = n_terms is not None
    limit = n_terms if n_terms is not None else 200000
    while n < limit:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * w
        total += term
        abs_total += abs(term)
        n += 1
        if n_terms is None and abs(term) <= 1e-18 * abs(total):
            converged = True
            break
    return total, abs_total, converged


def _mu_moment(ell, j, k, tau):
    """Moment mu^l_j(k) = integral r^(j) shapes against j_l, closed form.

    Returns (value, condition) with condition = sum|terms|/|sum| of the
    hypergeometric series actually evaluated.
    """
    from scipy.special import gammaln

    kt = tau * k
    z4 = 4.0 * kt * kt
    om = 1.0 / (1.0 + z4)  # = 1 - w
    w = z4 * om
    a = (j + ell + 1) / 2.0
    b = (j + ell) / 2.0 + 1.0
    c = ell + 1.5
    d = j - ell
    if d >= 1 and d % 2 == 1:
        S, A, _ = _gauss_series(a, c - b, c, w, n_terms=(d - 1) // 2)
        F, cond = om**a * S, A / abs(S) if S != 0 else np.inf
    elif d >= 2:
        S, A, _ = _gauss_series(c - a, b, c, w, n_terms=(d - 2) // 2)
        F, cond = om**b * S, A / abs(S) if S != 0 else np.inf
    else:
        S, A, ok = _gauss_series(a, c - b, c, w)
        F, cond = om**a * S, 1.0 if ok else np.inf
    if ell == 0:
        lead = 1.0
    elif k == 0.0:
        return 0.0, 1.0
    else:
        lead = kt**ell
    pref = np.sqrt(np.pi) * np.exp(
        j * np.log(2.0) + gammaln(j + ell + 1.0) - gammaln(ell + 1.5)
    )
    return pref * lead * tau**1.5 * F, cond


def _overlaps(bridge, ell, k, n):
    """Overlaps j_lp(k) for p < n from one table of moments, with flags.

    Row p sums c^p_j mu^l_{j+2}(k) over j <= p, exactly rounded. It is
    flagged when the estimated relative error eps * sum|term| * cond / |sum|
    exceeds 1e-8 (alternating-sum cancellation, growing with p and tau*k),
    when its value is not finite, or when it sums to zero from nonzero terms.
    """
    mu, cond = np.array([_mu_moment(ell, j + 2, k, bridge.tau) for j in range(n)]).T
    terms = bridge.cpj[:n, :n] * np.where(np.tri(n, dtype=bool), mu, 0.0)
    # fsum refuses inf - inf, which overflowing moments produce
    total = np.array([math.fsum(row) if np.isfinite(row).all() else row.sum()
                      for row in terms])
    abs_total = np.multiply(np.abs(terms), cond, out=np.zeros_like(terms),
                            where=terms != 0.0).sum(axis=1)
    p = np.arange(n)
    values = total / np.sqrt((p + 1.0) * (p + 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.finfo(float).eps * abs_total / np.abs(total) > 1e-8
    flagged = np.where(total == 0.0, abs_total > 0.0, ~np.isfinite(values) | loss)
    return values, flagged


def jlp(bridge, ell, p, k, return_flag=False):
    """Overlap of radial basis order p with the spherical Bessel j_l(k r).

    When return_flag is true, also returns the precision flag of _overlaps.
    """
    if not (isinstance(ell, numbers.Integral) and isinstance(p, numbers.Integral)
            and 0 <= ell < bridge.L and 0 <= p < bridge.P):
        raise ValueError("(ell, p) must be integers in the bridge range, got %r"
                         % ((ell, p),))
    if not 0 <= k < np.inf:
        raise ValueError("k must be finite and nonnegative, got %r" % k)
    values, flagged = _overlaps(bridge, ell, k, p + 1)
    return (values[p], bool(flagged[p])) if return_flag else values[p]


@dataclass(frozen=True)
class FourierBesselTable:
    """f~_lm(k) values on the requested k list, with precision flags."""

    L: int
    ks: np.ndarray
    values: np.ndarray
    flagged: np.ndarray


def fourier_bessel(bridge, coeffs, ks):
    """Fourier-Bessel coefficients sqrt(2/pi) sum_p f[p, lm] j_lp(k)."""
    fv = np.asarray(coeffs)
    if fv.ndim != 2:
        raise ValueError("coefficients must have shape (P, L*L)")
    P, L = fv.shape[0], sht.packed_bandlimit(fv)
    if P > bridge.P or L > bridge.L:
        raise ValueError("coefficient band-limits exceed bridge tables")
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if ks.ndim != 1 or np.any(ks < 0) or not np.all(np.isfinite(ks)):
        raise ValueError("ks must be finite and nonnegative, along one axis")
    ell_of, _ = sht._lm_arrays(L)
    jl = np.empty((L, P, ks.size))
    fl = np.empty((L, P, ks.size), dtype=bool)
    for ell in range(L):
        for ik, k in enumerate(ks):
            jl[ell, :, ik], fl[ell, :, ik] = _overlaps(bridge, ell, k, P)
    vals = np.sqrt(2.0 / np.pi) * np.einsum("pl,lpk->lk", fv, jl[ell_of])
    contributes = (np.abs(fv.T) > 0)[:, :, None]
    flagged = np.any(contributes & fl[ell_of], axis=1)
    return FourierBesselTable(L=L, ks=ks, values=vals, flagged=flagged)
