"""Radial basis of damped generalized Laguerre polynomials on the half-line.

The basis is K_p(r) = sqrt(p!/(p+2)!) * exp(-r/2tau)/sqrt(tau^3) * L_p^(2)(r/tau),
orthonormal for the measure r^2 dr. A Gauss quadrature on the roots of L_P^(2)
makes analysis of band-limited signals an exact weighted sum over P nodes.

All heavy lifting runs on the normalized damped polynomials

    Khat_p(x) = exp(-x/2) * L_p^(2)(x) / sqrt((p+1)(p+2)),

which stay O(1) on the node range for any P, so nothing here materializes
exp(x_i) or factorials. K_p(r) = tau^(-3/2) * Khat_p(r/tau).

The nodes start from the eigenvalues of the Jacobi matrix, taken with
numpy.linalg.eigvalsh, so the module needs numpy alone.

Transforms are array-in, array-out: samples and coefficients run along the
last axis. The wrapper types that carry band-limits live in flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def laguerre_poly(p, x):
    """Evaluate the generalized Laguerre polynomial L_p^(2)(x).

    Three-term recurrence, stable for the x >= 0 half-line. `x` may be a
    scalar or an array.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if p == 0:
        return prev if prev.ndim else float(prev)
    cur = 3.0 - x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 3 - x) * cur - (k + 2) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


_LN2 = float(np.log(2.0))


def _khat_scaled(P, x):
    """Khat_p(x) for p = 0..P-1 in extended-range form (mant, ex2).

    True value is mant[p]*2**ex2[p]. The start of the recurrence carries
    exp(-x/2), which underflows double precision for x > ~1416 even though
    Khat_P itself is representable there, so the exponent rides in an integer
    ledger and the mantissas are renormalized whenever they leave 2**(+-256).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    mant = np.empty((P, n))
    ex2 = np.empty((P, n), dtype=np.int64)
    led = -x / (2.0 * _LN2)
    E = np.floor(led).astype(np.int64)
    frac = np.exp2(led - E)
    mant[0] = frac / np.sqrt(2.0)
    ex2[0] = E
    if P == 1:
        return mant, ex2
    v0 = mant[0]
    v1 = (3.0 - x) * frac / np.sqrt(6.0)
    mant[1] = v1
    ex2[1] = E
    for p in range(1, P - 1):
        a = (2 * p + 3 - x) / np.sqrt((p + 1) * (p + 3))
        b = np.sqrt(p * (p + 2) / ((p + 1) * (p + 3)))
        v2 = a * v1 - b * v0
        s = np.maximum(np.abs(v2), np.abs(v1))
        _, se = np.frexp(s)
        shift = np.where((s > 0) & (np.abs(se) > 256), se, 0).astype(np.int64)
        if shift.any():
            scale = np.ldexp(1.0, -shift)
            v2 = v2 * scale
            v1 = v1 * scale
            E = E + shift
        mant[p + 1] = v2
        ex2[p + 1] = E
        v0, v1 = v1, v2
    return mant, ex2


def _khat_table(P, x):
    """Khat_p(x) for p = 0..P-1, shape (P, len(x)); underflow flushes to 0."""
    mant, ex2 = _khat_scaled(P, x)
    return np.ldexp(mant, np.clip(ex2, -2400, 2400).astype(np.int32))


def _khat_logabs(mant, ex2):
    """ln|value| rows of a scaled table; -inf where the mantissa is zero."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(mant)) + ex2 * _LN2


def _jacobi_eigenvalues(P):
    """Eigenvalues, ascending, of the Jacobi matrix of the weight x^2 e^{-x}:
    symmetric tridiagonal with diagonal 2k+3 and off-diagonal sqrt(k(k+2)).

    numpy's dense symmetric solver takes them in O(P^3), about 20 ms at P=512
    on one core; it runs once per cached scheme.
    """
    k = np.arange(1, P)
    J = np.diag(2.0 * np.arange(P) + 3.0)
    J[k, k - 1] = np.sqrt(k * (k + 2.0))  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(J)


def _nodes_unscaled(P):
    """Roots x_i of L_P^(2): the Jacobi-matrix eigenvalues (Golub-Welsch),
    polished by Newton steps."""
    x = _jacobi_eigenvalues(P)
    # Newton on Khat_P: Khat_P' = (p*Khat_P - sqrt(p(p+2))*Khat_{P-1})/x - Khat_P/2
    for _ in range(3):
        t = _khat_table(P + 1, x)
        f, fm1 = t[P], t[P - 1]
        df = (P * f - np.sqrt(P * (P + 2.0)) * fm1) / x - f / 2.0
        step = f / df
        # eigenvalues are already close; clip any stray step to a gap fraction
        gap_left = np.diff(x, prepend=0.0)
        gap_right = np.append(np.diff(x), np.inf)
        step = np.clip(step, -0.25 * gap_right, 0.25 * gap_left)
        x = x - step
    if not np.all(np.diff(x) > 0) or x[0] <= 0:
        raise ArithmeticError("Laguerre node computation failed to converge")
    if P > 1 and np.min(np.diff(x)) <= 64 * np.finfo(float).eps * x[-1]:
        raise ArithmeticError(f"node separation underflows double precision at P={P}")
    return x


@dataclass(frozen=True)
class RadialScheme:
    """Quadrature and precomputed analysis matrix for one band-limit P.

    nodes are the tau-scaled roots r_i = tau*x_i; log_weights hold ln(w_i)
    with w_i evaluated at the unscaled root; weighted_basis[p][i] applied to
    samples at the nodes is the exact analysis map for band-limited input.
    node_synthesis[i][p] = K_p(r_i) is its right inverse.
    """

    P: int
    tau: float
    nodes: np.ndarray
    log_weights: np.ndarray
    weighted_basis: np.ndarray
    node_synthesis: np.ndarray

    @property
    def radial_quad_weights(self):
        """Weights q_i with integral f(r) r^2 dr = sum_i q_i f(r_i), exact for
        band-limited-squared integrands: q_i = tau^3 * w_i."""
        return self.tau**3 * np.exp(self.log_weights)


@lru_cache(maxsize=64)
def build_radial_scheme(P, tau=1.0):
    """Construct the P-node radial scheme with scale factor tau.

    Cached: every caller of one (P, tau) shares the scheme and its tables."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not (tau > 0 and np.isfinite(tau)):
        raise ValueError("tau must be positive and finite")
    # the basis scales by tau**-1.5 and the quadrature weights by tau**3;
    # finite nonzero tau**3 and tau**-3 keep tau**1.5 and tau**-1.5 so too
    with np.errstate(over="ignore", under="ignore"):
        cubes = np.float64(tau) ** 3, np.float64(tau) ** -3
    if not all(np.isfinite(c) and c > 0 for c in cubes):
        raise ValueError("tau**3 and tau**-3 must be finite and nonzero, "
                         "got tau=%r" % tau)
    up, down = np.float64(tau) ** 1.5, np.float64(tau) ** -1.5
    x = _nodes_unscaled(P)
    mant, ex2 = _khat_scaled(P + 2, x)
    logabs = _khat_logabs(mant, ex2)
    # w_i = x_i / ((P+1)(P+3) Khat_{P+1}(x_i)^2); exponentials cancelled analytically
    log_w = np.log(x) - np.log(P + 1.0) - np.log(P + 3.0) - 2.0 * logabs[P + 1]
    # M[p][i] = tau^3 w_i K_p(r_i), assembled in log space so every entry is finite
    weighted = up * np.sign(mant[:P]) * np.exp(log_w[None, :] + logabs[:P])
    node_synth = (down * np.ldexp(mant[:P], ex2[:P])).T
    nodes = tau * x
    for a in (nodes, log_w, weighted, node_synth):
        a.flags.writeable = False  # cached: every caller shares them
    return RadialScheme(P=P, tau=float(tau), nodes=nodes, log_weights=log_w,
                        weighted_basis=weighted, node_synthesis=node_synth)


def tau_for_radius(P, R):
    """Scale factor placing the outermost node at radius R."""
    return R / build_radial_scheme(P, 1.0).nodes[-1]


def basis_k(scheme, p, r):
    """Evaluate K_p at radius r (scalar or array of any shape)."""
    if not 0 <= p < scheme.P:
        raise ValueError("p out of range for scheme")
    r = np.asarray(r, dtype=float)
    val = synthesis_matrix(scheme, r.ravel())[:, p]
    return val.reshape(r.shape) if r.ndim else float(val[0])


def synthesis_matrix(scheme, radii):
    """Matrix S[k][p] = K_p(radii[k]) for all p < P."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii < 0):
        raise ValueError("radius must be nonnegative")
    return (scheme.tau**-1.5 * _khat_table(scheme.P, radii / scheme.tau)).T


def _last_axis(values, what):
    """values as an array with at least one axis, the last one running over p."""
    vals = np.asarray(values)
    if vals.ndim == 0:
        raise ValueError("%s must have at least one axis" % what)
    return vals


def radial_analysis(scheme, samples):
    """Coefficients f_p from samples at the scheme nodes (exact if band-limited)."""
    vals = _last_axis(samples, "samples")
    if vals.shape[-1] != scheme.P:
        raise ValueError("sample count does not match scheme node count")
    return vals @ scheme.weighted_basis.T


def radial_synthesis(scheme, coeffs, radii):
    """Evaluate f(r) = sum_p f_p K_p(r) at the requested radii."""
    vals = _last_axis(coeffs, "coefficients")
    if vals.shape[-1] > scheme.P:
        raise ValueError("coefficient band-limit exceeds scheme")
    S = synthesis_matrix(scheme, radii)
    return vals @ S.T[: vals.shape[-1]]


def radial_translate(scheme, coeffs, r):
    """Translation by r in coefficient space: out_p = f_p * K_p(r)."""
    vals = _last_axis(coeffs, "coefficients")
    if vals.shape[-1] > scheme.P:
        raise ValueError("coefficient band-limit exceeds scheme")
    return vals * synthesis_matrix(scheme, r)[0, : vals.shape[-1]]
