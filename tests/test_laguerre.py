import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_genlaguerre

from ballwav import laguerre


def poly_direct_sum(p, x):
    # finite sum with binomial coefficients, the slow reference route, summed
    # in exact rationals: in floats its alternating terms cancel, and at p=10,
    # x=25.125 the float sum is 7.7e-10 relative off the exact value
    x = Fraction(x)
    return float(sum((-1) ** j * math.comb(p + 2, p - j) * x**j / math.factorial(j)
                     for j in range(p + 1)))


def test_poly_small_values():
    assert laguerre.laguerre_poly(0, 0.7) == 1.0
    assert laguerre.laguerre_poly(0, 123.0) == 1.0
    assert laguerre.laguerre_poly(1, 0.0) == 3.0
    assert laguerre.laguerre_poly(2, 3.0) == pytest.approx(-1.5, rel=1e-14)


def test_poly_negative_order_rejected():
    with pytest.raises(ValueError):
        laguerre.laguerre_poly(-1, 0.0)


def test_poly_array_input():
    x = np.array([0.0, 1.0, 2.0])
    out = laguerre.laguerre_poly(1, x)
    assert out.shape == (3,)
    np.testing.assert_allclose(out, 3.0 - x)


@settings(max_examples=80)
@given(st.integers(0, 10), st.floats(0.0, 50.0, allow_nan=False))
def test_poly_recurrence_matches_direct_sum(p, x):
    ref = poly_direct_sum(p, x)
    got = laguerre.laguerre_poly(p, x)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-9)


def test_scheme_p1_closed_form():
    sch = laguerre.build_radial_scheme(1, tau=1.0)
    assert sch.nodes[0] == pytest.approx(3.0, rel=1e-14)
    assert np.exp(sch.log_weights[0]) == pytest.approx(2.0 * math.e**3, rel=1e-13)


def test_scheme_p2_closed_form():
    sch = laguerre.build_radial_scheme(2, tau=1.0)
    np.testing.assert_allclose(sch.nodes, [2.0, 6.0], rtol=1e-13)
    np.testing.assert_allclose(np.exp(sch.log_weights),
                               [1.5 * math.e**2, 0.5 * math.e**6], rtol=1e-12)


def test_tau_scales_nodes_but_not_weights():
    a = laguerre.build_radial_scheme(2, tau=1.0)
    b = laguerre.build_radial_scheme(2, tau=0.5)
    np.testing.assert_allclose(b.nodes, 0.5 * a.nodes, rtol=1e-15)
    np.testing.assert_allclose(b.log_weights, a.log_weights, rtol=1e-15)
    # the r^2 dr measure brings a tau^3 into the ready-to-use weights
    np.testing.assert_allclose(b.radial_quad_weights,
                               0.125 * a.radial_quad_weights, rtol=1e-14)


@pytest.mark.parametrize("P", [1, 2, 4, 16, 48])
def test_nodes_and_weights_match_scipy(P):
    sch = laguerre.build_radial_scheme(P, tau=1.0)
    x_ref, w_ref = roots_genlaguerre(P, 2)
    np.testing.assert_allclose(sch.nodes, x_ref, rtol=1e-12)
    # the stored weight carries e^{x_i}; undoing it lands on scipy's convention
    ours = np.exp(sch.log_weights - sch.nodes)
    np.testing.assert_allclose(ours, w_ref, rtol=1e-11)


@pytest.mark.parametrize("P", [2, 3, 16, 64, 256, 512])
def test_dense_start_matches_tridiagonal_solver(P):
    # the Golub-Welsch start, before Newton polish, against scipy's
    # tridiagonal solver
    k = np.arange(1, P)
    ref = eigh_tridiagonal(2.0 * np.arange(P) + 3.0, np.sqrt(k * (k + 2.0)),
                           eigvals_only=True)
    x = laguerre._jacobi_eigenvalues(P)
    assert np.max(np.abs(x - ref)) <= 8 * np.spacing(ref[-1])


@pytest.mark.parametrize("P", [1, 2, 7, 64, 256])
def test_analysis_synthesis_matrices_are_inverse(P):
    sch = laguerre.build_radial_scheme(P, tau=1.0)
    gram = sch.weighted_basis @ sch.node_synthesis
    assert np.max(np.abs(gram - np.eye(P))) < 1e-10


def test_large_p_stays_finite():
    # the weight holds e^{x_i} with x up to ~2000 here; everything must stay finite
    sch = laguerre.build_radial_scheme(512, tau=1.0)
    assert np.all(np.isfinite(sch.weighted_basis))
    assert np.all(np.isfinite(sch.node_synthesis))
    assert np.all(np.diff(sch.nodes) > 0)
    gram = sch.weighted_basis @ sch.node_synthesis
    assert np.max(np.abs(gram - np.eye(512))) < 1e-10


def test_orthonormality_by_quadrature():
    sch = laguerre.build_radial_scheme(24, tau=0.7)
    S = sch.node_synthesis
    gram = np.einsum("i,ip,iq->pq", sch.radial_quad_weights, S, S)
    assert np.max(np.abs(gram - np.eye(24))) < 1e-10


def test_basis_k_values_and_shapes():
    sch = laguerre.build_radial_scheme(4, tau=1.0)
    assert laguerre.basis_k(sch, 0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert abs(laguerre.basis_k(sch, 0, 200.0)) < 1e-40
    r = np.linspace(0.0, 5.0, 6).reshape(2, 3)
    out = laguerre.basis_k(sch, 2, r)
    assert out.shape == (2, 3)
    with pytest.raises(ValueError):
        laguerre.basis_k(sch, 4, 1.0)
    with pytest.raises(ValueError):
        laguerre.basis_k(sch, 0, -0.5)


def test_node_synthesis_matches_generic_matrix():
    sch = laguerre.build_radial_scheme(40, tau=0.8)
    S = laguerre.synthesis_matrix(sch, sch.nodes)
    # only input rounding of nodes/tau separates the two routes
    np.testing.assert_allclose(S, sch.node_synthesis, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("P", [16, 64, 128])
def test_round_trip_at_nodes(P):
    sch = laguerre.build_radial_scheme(P, tau=1.0)
    rng = np.random.default_rng(P)
    coeffs = rng.standard_normal(P)
    samples = laguerre.radial_synthesis(sch, coeffs, sch.nodes)
    back = laguerre.radial_analysis(sch, samples)
    assert np.max(np.abs(back - coeffs)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_round_trip_property(P, seed):
    sch = laguerre.build_radial_scheme(P, tau=1.0)
    coeffs = np.random.default_rng(seed).uniform(-10.0, 10.0, P)
    back = laguerre.radial_analysis(sch, laguerre.radial_synthesis(sch, coeffs, sch.nodes))
    assert np.max(np.abs(back - coeffs)) < 1e-10


def test_unit_coeff_synthesis_at_origin():
    sch = laguerre.build_radial_scheme(3, tau=1.0)
    e0 = np.array([1.0, 0.0, 0.0])
    val = laguerre.radial_synthesis(sch, e0, [0.0])
    assert val[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    zeros = laguerre.radial_synthesis(sch, np.zeros(3), [0.0, 1.0, 2.0])
    assert np.all(zeros == 0.0)


def test_translate_multiplies_by_basis_value():
    sch = laguerre.build_radial_scheme(10, tau=1.0)
    c = np.arange(1.0, 11.0)
    r1, r2 = 0.9, 2.3
    t1 = laguerre.radial_translate(sch, c, r1)
    t12 = laguerre.radial_translate(sch, t1, r2)
    k1 = np.array([laguerre.basis_k(sch, p, r1) for p in range(10)])
    k2 = np.array([laguerre.basis_k(sch, p, r2) for p in range(10)])
    np.testing.assert_allclose(t12, c * k1 * k2, rtol=1e-14)
    z = laguerre.radial_translate(sch, np.zeros(10), r1)
    assert np.all(z == 0.0)


def test_translate_moves_kernel_peak_outward():
    # a band-limited kernel translated to r should put energy near r;
    # peaks are read off the radial density r*|f(r)| on a dense grid
    P = 32
    tau = laguerre.tau_for_radius(P, 1.0)
    sch = laguerre.build_radial_scheme(P, tau)
    from ballwav import tiling

    kern = np.array([tiling.generators(2.0, 2.0, p / 4.0, 0.5)[0] for p in range(P)])
    radii = np.linspace(0.0, 1.0, 4001)
    peaks = []
    for r in (0.2, 0.3, 0.4):
        t = laguerre.radial_translate(sch, kern, r)
        prof = laguerre.radial_synthesis(sch, t, radii)
        peaks.append(radii[np.argmax(radii * np.abs(prof))])
    assert peaks[0] < peaks[1] < peaks[2]


def test_tau_for_radius_places_last_node():
    tau = laguerre.tau_for_radius(16, 5.0)
    sch = laguerre.build_radial_scheme(16, tau)
    assert sch.nodes[-1] == pytest.approx(5.0, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        laguerre.build_radial_scheme(0)
    with pytest.raises(ValueError):
        laguerre.build_radial_scheme(4, tau=0.0)
    with pytest.raises(ValueError):
        laguerre.build_radial_scheme(4, tau=float("inf"))
    # tau**3 or tau**-3 would overflow or flush to zero, and at 1e250 and
    # 1e-250 so would tau**1.5 or tau**-1.5
    for tau in (1e250, 1e-250, 1e150, 1e-150):
        with pytest.raises(ValueError, match="tau"):
            laguerre.build_radial_scheme(4, tau=tau)
    sch = laguerre.build_radial_scheme(4)
    with pytest.raises(ValueError):
        laguerre.radial_analysis(sch, np.zeros(5))
    with pytest.raises(ValueError):
        laguerre.radial_synthesis(sch, np.zeros(4), [-1.0])
    with pytest.raises(ValueError):
        laguerre.radial_translate(sch, np.zeros(4), -2.0)
    with pytest.raises(ValueError, match="band-limit"):
        laguerre.radial_translate(sch, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        laguerre.radial_analysis(sch, 3.0)
    with pytest.raises(ValueError):
        laguerre.radial_synthesis(sch, 3.0, [1.0])
    with pytest.raises(ValueError):
        laguerre.radial_translate(sch, 3.0, 1.0)
