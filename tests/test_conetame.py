"""Skew linear algebra: kernels, Pfaffians, pencils, taming, Cayley."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from confolkit import conetame
from confolkit.conetame import (
    FAIL,
    PASS,
    UNDETERMINED,
    BasedSubspace,
    ComplexStructureMatrix,
    SkewPair,
    cayley_interpolate,
    compatible_J,
    cotaming_search,
    kernel_with_tol,
    mu_orthogonal_complement,
    pencil_certified,
    pencil_coeffs,
    pencil_positive,
    pfaffian,
    pfaffians,
    split_cotamed_J,
    taming_check,
    taming_symmetrization,
    unit_negative_point,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])       # Pf = +1 convention block


def std_skew(n_blocks):
    return scipy.linalg.block_diag(*([J2] * n_blocks))


def std_J(n_blocks):
    # complex structure with omega(v, Jv) > 0 for the standard form
    return scipy.linalg.block_diag(*([-J2] * n_blocks))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_standard_symplectic_trivial():
    res = kernel_with_tol(std_skew(2))
    assert res.status == PASS and res.rank == 4
    assert res.subspace.dim == 0


def test_kernel_zero_matrix_everything():
    res = kernel_with_tol(np.zeros((4, 4)))
    assert res.rank == 0 and res.subspace.dim == 4


def test_kernel_cubic_origin_span():
    # d(dz + x1^3 dy1 + x2 dy2) restricted to ker(dz) at the origin
    M = np.zeros((4, 4))           # basis (x1, y1, x2, y2)
    M[2, 3], M[3, 2] = 1.0, -1.0
    res = kernel_with_tol(M)
    assert res.status == PASS and res.rank == 2
    ref = np.eye(4)[:, :2]
    ang = scipy.linalg.subspace_angles(res.subspace.basis, ref)
    assert np.max(ang) < 1e-10


def test_kernel_odd_rank_is_undetermined():
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 1.0, -1.0
    m[2, 3], m[3, 2] = 1e-7, -1e-7     # exactly at the ambiguity scale
    res = kernel_with_tol(m, tau_rank=1e-7)
    assert res.status in (PASS, UNDETERMINED)
    m[2, 3] = m[3, 2] = 0.0
    m[2, 3] = 1e-7
    # genuinely non-skew noise gets symmetrized away; rank stays even
    assert kernel_with_tol(m, tau_rank=1e-9).rank % 2 == 0


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_base_cases():
    assert pfaffian(J2) == pytest.approx(1.0)
    assert pfaffian(std_skew(2)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))


def test_pfaffian_congruence_gives_det():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        Q = rng.standard_normal((2 * n, 2 * n))
        got = pfaffian(Q @ std_skew(n) @ Q.T)
        assert got == pytest.approx(np.linalg.det(Q), rel=1e-9)


def test_pfaffian_squared_is_det():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((2 * n, 2 * n))
        A = A - A.T
        assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-8)


def test_pfaffian_orientation_sign():
    # dx1^dx2 + dy1^dy2 written in the (x1, y1, x2, y2) basis has Pf = -1
    M = np.zeros((4, 4))
    M[0, 2], M[2, 0] = 1.0, -1.0       # dx1^dx2
    M[1, 3], M[3, 1] = 1.0, -1.0       # dy1^dy2
    assert pfaffian(M) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# pencils
# ---------------------------------------------------------------------------

def test_pencil_equal_forms_binomial():
    pair = SkewPair(std_skew(2), std_skew(2))
    v = pencil_positive(pair)
    assert v.status == PASS
    np.testing.assert_allclose(v.coeffs, [1.0, 2.0, 1.0], atol=1e-9)


def test_pencil_root_inside_ray_fails():
    mu0 = scipy.linalg.block_diag(J2, -J2)     # dx1^dy1 - dx2^dy2
    v = pencil_positive(SkewPair(mu0, std_skew(2)))
    assert v.status == FAIL
    assert v.roots_on_ray and v.roots_on_ray[0] == pytest.approx(1.0)


def test_pencil_cubic_stratum_passes_open_ray():
    # mu = dx1^dy1, dalpha|_xi = dx2^dy2 on the order-1 stratum:
    # Pf(mu + t dalpha) = t, vanishing only at the ray's edge
    mu = scipy.linalg.block_diag(J2, np.zeros((2, 2)))
    da = scipy.linalg.block_diag(np.zeros((2, 2)), J2)
    v = pencil_positive(SkewPair(mu, da))
    assert v.status == PASS
    vc = pencil_positive(SkewPair(mu, da), closed=True)
    assert vc.status == FAIL          # t=0 lies on the closed ray


def test_pencil_near_ray_root_undetermined():
    mu0 = scipy.linalg.block_diag(-1e-9 * J2, J2)
    v = pencil_positive(SkewPair(mu0, std_skew(2)))
    assert v.status == UNDETERMINED


def test_pencil_orientation_flag():
    pair = SkewPair(std_skew(2), std_skew(2))
    assert pencil_positive(pair, orientation=-1).status == FAIL


def test_pencil_brute_force_agreement():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        B = rng.standard_normal((2 * n, 2 * n))
        pair = SkewPair(A - A.T, B - B.T)
        v = pencil_positive(pair)
        ts = np.geomspace(1e-6, 1e6, 200)
        vals = [pfaffian(pair.mu0 + t * pair.mu1) for t in ts]
        brute = PASS if all(x > 0 for x in vals) else FAIL
        if v.status == UNDETERMINED:
            continue
        # sign flips between sample points can hide roots from the brute
        # oracle but never from the Sturm count, so only compare when the
        # brute force is confident
        if brute == FAIL or v.status == brute:
            agree += 1
            assert not (v.status == PASS and brute == FAIL)
    assert agree >= 50


def _sympy_ray_roots(coeffs, closed):
    """Reference classification by sympy.real_roots, as _ray_roots did it
    before the Sturm sequence replaced it."""
    import sympy as sp

    cmax = np.max(np.abs(coeffs)) if len(coeffs) else 0.0
    if cmax == 0.0:
        return None, [], []
    t = sp.Symbol("t")
    poly = sum(sp.Rational(c).limit_denominator(10**15) * t**k
               for k, c in enumerate(coeffs) if abs(c) > 1e-12 * cmax)
    if poly == 0:
        return None, [], []
    on, near = [], []
    for r in sp.real_roots(sp.Poly(poly, t)):
        rf = float(r)
        if r == 0:
            if closed:
                on.append(0.0)
            continue
        if rf > 1e-8:
            on.append(rf)
        elif (rf > 0) or (closed and abs(rf) <= 1e-8):
            near.append(rf)
    return poly, on, near


_EDGE_POLYS = {
    "double-root": [1, -2, 1],
    "triple-root": [1, -3, 3, -1],
    "zero-root": [0, 1],
    "double-zero-root": [0, 0, 1],
    "root-in-(0,1e-8]": [-1e-9, 1],
    "root-in-[-1e-8,0)": [1e-9, 1],
    "truncated-coefficient": [1e-20, 1, 1],
    # 2**79 clears the denominator of the double 1e-8: root exactly -1e-8
    "root-at--1e-8": [2.0**79 * 1e-8, 2.0**79],
}


def _oracle_pairs(case):
    if case in _EDGE_POLYS:
        return [SkewPair(np.zeros((2, 2)), np.zeros((2, 2)))]
    if case == "zero-pfaffian":
        # both forms live on one 2-plane of R^4: Pf(mu0 + t mu1) = 0
        flat = scipy.linalg.block_diag(J2, np.zeros((2, 2)))
        return [SkewPair(flat, 2.0 * flat)]
    rng = np.random.default_rng(17)
    pairs = []
    for _ in range(200):
        n = int(rng.integers(1, 4))
        A, B = rng.standard_normal((2, 2 * n, 2 * n))
        pairs.append(SkewPair(A - A.T, B - B.T))
    return pairs


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("case", [*_EDGE_POLYS, "zero-pfaffian", "random"])
def test_pencil_matches_sympy_real_roots(case, closed, monkeypatch):
    if case in _EDGE_POLYS:
        coeffs = np.array(_EDGE_POLYS[case], dtype=float)
        monkeypatch.setattr(conetame, "_pencil_poly", lambda pair: coeffs)
    for pair in _oracle_pairs(case):
        got = pencil_positive(pair, closed=closed)
        with monkeypatch.context() as m:
            m.setattr(conetame, "_ray_roots", _sympy_ray_roots)
            ref = pencil_positive(pair, closed=closed)
        assert (got.status, got.message) == (ref.status, ref.message)
        assert len(got.roots_on_ray) == len(ref.roots_on_ray)
        for r, r_ref in zip(got.roots_on_ray, ref.roots_on_ray):
            assert r == pytest.approx(r_ref, rel=1e-12)


def test_pencil_roots_do_not_depend_on_the_scale():
    # scaling both forms by 2**k scales each Pfaffian coefficient exactly,
    # so neither the decision nor a root may move
    rng = np.random.default_rng(29)
    for i in range(200):
        n = (2, 4)[i % 2]
        A, B = rng.standard_normal((2, n, n))
        mu0, mu1 = A - A.T, B - B.T
        ref = pencil_positive(SkewPair(mu0, mu1))
        for k in (-200, -40, 40, 200):
            v = pencil_positive(SkewPair(2.0 ** k * mu0, 2.0 ** k * mu1))
            assert (v.status, v.roots_on_ray) == (ref.status,
                                                  ref.roots_on_ray), (i, k)


def test_overflowing_pencil_is_not_identically_zero():
    # Pf(1e200 J4 + t J4) overflows at every node: the interpolated
    # coefficients are not finite, which says nothing about a zero Pfaffian
    v = pencil_positive(SkewPair(1e200 * std_skew(2), std_skew(2)))
    assert (v.status, v.message) == (FAIL, "Pfaffian is not finite")
    assert not pencil_certified(v.coeffs[None])[0]


# ---------------------------------------------------------------------------
# stacked Pfaffians, pencil coefficients and the sign certificate
# ---------------------------------------------------------------------------

def _skew_rows(M):
    return 0.5 * (M - np.swapaxes(M, -1, -2))


def _pfaffian_reference(m):
    """The single-matrix Parlett-Reid reduction, step for step."""
    A = 0.5 * (m - m.T)
    n = len(A)
    pf = 1.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp]] = A[[kp, k + 1]]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            pf = -pf
        piv = A[k, k + 1]
        if piv == 0.0:
            return 0.0
        pf *= piv
        if k + 2 < n:
            tau = A[k, k + 2:] / piv
            col = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf


@st.composite
def _pair_stacks(draw):
    """Two (N, n, n) stacks for n in 2, 4, 6: small integers (tied pivot
    magnitudes, zero pivots) or gaussians, with zeroed rows and columns
    and non-finite entries mixed in."""
    n = draw(st.sampled_from([2, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, draw(st.integers(1, 8)), n, n)
    if draw(st.booleans()):
        M = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0], size=shape)
    else:
        M = rng.standard_normal(shape)
    for _ in range(draw(st.integers(0, 3))):
        k, i, j = rng.integers(2), rng.integers(shape[1]), rng.integers(n)
        M[k, i, j, :] = M[k, i, :, j] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        k, i = rng.integers(2), rng.integers(shape[1])
        a, b = rng.integers(n, size=2)
        M[k, i, a, b] = rng.choice([np.nan, np.inf, -np.inf])
    return M


@settings(max_examples=100, deadline=None)
@given(_pair_stacks())
def test_stacked_pencil_matches_single_pairs_bitwise(M):
    n = M.shape[-1]
    nodes = np.arange(n // 2 + 1, dtype=float)
    V = np.vander(nodes, len(nodes), increasing=True)
    with np.errstate(all="ignore"):
        pfs = pfaffians(M[0])
        coeffs = pencil_coeffs(_skew_rows(M[0]), _skew_rows(M[1]))
        for i in range(M.shape[1]):
            assert np.array_equal(pfs[i], _pfaffian_reference(M[0, i]),
                                  equal_nan=True)
            pair = SkewPair(M[0, i], M[1, i])
            assert np.array_equal(coeffs[i], conetame._pencil_poly(pair),
                                  equal_nan=True)
            vals = [_pfaffian_reference(pair.mu0 + t * pair.mu1)
                    for t in nodes]
            assert np.array_equal(coeffs[i], np.linalg.solve(V, vals),
                                  equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
def test_certified_pencils_pass_exactly(seed, n):
    # scales from 1e-6 to 1e2 put some coefficients under the 1e-15 floor
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2, 8, n, n))
    M *= 10.0 ** rng.uniform(-6, 2, size=(2, 8, 1, 1))
    M[1, ::2] += std_skew(n // 2)
    S0, S1 = _skew_rows(M[0]), _skew_rows(M[1])
    for i in np.flatnonzero(pencil_certified(pencil_coeffs(S0, S1))):
        pair = SkewPair(S0[i], S1[i])
        assert pencil_positive(pair).status == PASS
        with mock.patch.object(conetame, "_ray_roots", _sympy_ray_roots):
            assert pencil_positive(pair).status == PASS


def test_sign_changing_pencil_takes_the_sturm_path():
    # Pf(mu + t J4) = 1 - t + t^2 has no real root, but its coefficients
    # change sign, so the certificate leaves it to the Sturm decision
    mu = np.zeros((4, 4))
    mu[0, 1], mu[0, 2], mu[1, 3] = -1.0, 1.0, -1.0
    pair = SkewPair(mu - mu.T, std_skew(2))
    coeffs = pencil_coeffs(pair.mu0[None], pair.mu1[None])
    np.testing.assert_allclose(coeffs[0], [1.0, -1.0, 1.0], atol=1e-12)
    assert not pencil_certified(coeffs)[0]
    assert pencil_positive(pair).status == PASS
    with mock.patch.object(conetame, "_ray_roots", _sympy_ray_roots):
        assert pencil_positive(pair).status == PASS


@pytest.mark.parametrize("coeffs, certified", [
    ([0.0, 1.0, 1.0], True),            # exact zeros are dropped, not kept
    ([1e-20, 1.0, 1.0], True),          # truncated below 1e-12 * max
    ([1e-16, 1e-5], False),             # kept, under the 1e-15 floor
    ([1e-16, 2e-16], False),            # rationalizes to the zero polynomial
    ([1.0, -1.0, 1.0], False),          # a sign change
    ([-1.0, -2.0, -1.0], False),        # P(1) < 0
    ([0.0, 0.0, 0.0], False),           # identically zero
    ([np.nan, 1.0, 1.0], False),
    ([np.inf, 1.0, 1.0], False)])
def test_sign_certificate_cases(coeffs, certified):
    assert pencil_certified(np.array([coeffs]))[0] == certified
    if certified:
        with mock.patch.object(conetame, "_pencil_poly",
                               lambda pair: np.array(coeffs)):
            assert pencil_positive(SkewPair(J2, J2)).status == PASS


# ---------------------------------------------------------------------------
# taming
# ---------------------------------------------------------------------------

def test_taming_standard():
    v = taming_check(std_skew(2), std_J(2), K_ref=BasedSubspace(4, np.zeros((4, 0))))
    assert v.status == PASS
    assert np.min(v.eigenvalues) > 0.5


def test_taming_isotropic_image_fails():
    # J swapping the two symplectic planes: omega(v, Jv) = 0 identically
    J = np.zeros((4, 4))
    J[3, 0], J[2, 1] = 1.0, 1.0        # J e_x1 = e_y2, J e_y1 = e_x2
    J[1, 2], J[0, 3] = -1.0, -1.0
    np.testing.assert_allclose(J @ J, -np.eye(4), atol=1e-12)
    v = taming_check(std_skew(2), J, K_ref=BasedSubspace(4, np.zeros((4, 0))))
    assert v.status == FAIL
    weak = taming_check(std_skew(2), J, K_ref=None)
    assert weak.status == PASS         # weakly tamed, not tamed


def test_taming_split_with_kernel_reference():
    omega = scipy.linalg.block_diag(J2, np.zeros((2, 2)))
    J = scipy.linalg.block_diag(-J2, -J2)
    K = BasedSubspace(4, np.eye(4)[:, 2:])
    v = taming_check(omega, J, K_ref=K)
    assert v.status == PASS
    bad = BasedSubspace(4, np.eye(4)[:, :2])
    assert taming_check(omega, J, K_ref=bad).status == FAIL


def test_taming_conformal_status_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        omega = A - A.T
        J = std_J(2)
        s0 = taming_check(omega, J).status
        c = float(rng.uniform(0.1, 10))
        assert taming_check(c * omega, J).status == s0


# ---------------------------------------------------------------------------
# exact sign decisions on (0, 1]
# ---------------------------------------------------------------------------

def _product_of_roots(sign, roots):
    """sign * prod (s - r)**m over (r, m) in roots, constant term first."""
    p = [Fraction(sign)]
    for r, m in roots:
        for _ in range(m):
            p = [(p[k - 1] if k else 0) - r * (p[k] if k < len(p) else 0)
                 for k in range(len(p) + 1)]
    return p


def _value(p, x):
    return sum(c * x**k for k, c in enumerate(p))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.tuples(st.fractions(-1, 2, max_denominator=64),
                          st.integers(1, 3)), max_size=4))
def test_unit_negative_point_decides_the_sign(sign, roots):
    # p is constant in sign between consecutive roots, so its values at 1
    # and at the middles of the gaps in (0, 1) show whether it goes negative
    p = _product_of_roots(sign, roots)
    cuts = sorted({Fraction(0), Fraction(1)}
                  | {r for r, _ in roots if 0 < r < 1})
    probes = [Fraction(1)] + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    negative = any(_value(p, x) < 0 for x in probes)
    w = unit_negative_point(p)
    assert (w is not None) == negative
    if w is not None:
        assert 0 < w <= 1 and _value(p, w) < 0


# ---------------------------------------------------------------------------
# compatible J
# ---------------------------------------------------------------------------

def test_compatible_J_standard():
    J = compatible_J(std_skew(2))
    np.testing.assert_allclose(J.J, std_J(2), atol=1e-12)
    J5 = compatible_J(5.0 * std_skew(2))
    np.testing.assert_allclose(J5.J, J.J, atol=1e-12)     # scale invariance


def test_compatible_J_random_taming_and_compatibility():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        omega = A - A.T
        if abs(pfaffian(omega)) < 1e-6:
            continue
        G = rng.standard_normal((2 * n, 2 * n))
        g = G @ G.T + 2 * n * np.eye(2 * n)
        J = compatible_J(omega, g)
        assert taming_check(omega, J).status == PASS
        np.testing.assert_allclose(J.J.T @ omega @ J.J, omega, atol=1e-9)


def test_compatible_J_degenerate_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        compatible_J(scipy.linalg.block_diag(J2, np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# split construction, orthogonality, cone tameness
# ---------------------------------------------------------------------------

def _product_pair():
    # mu nondegenerate everywhere; dalpha kills the K block
    mu = scipy.linalg.block_diag(J2, J2)
    da = scipy.linalg.block_diag(J2, np.zeros((2, 2)))
    K = BasedSubspace(4, np.eye(4)[:, 2:])
    return SkewPair(mu, da, labels=("mu", "dalpha")), K


def test_split_cotamed_product_model():
    pair, K = _product_pair()
    J, status = split_cotamed_J(pair, K)
    assert status == PASS
    assert taming_check(pair.mu1, J, K_ref=K).status == PASS
    assert taming_check(pair.mu0, J).status == PASS


def test_split_cotamed_cone_tameness():
    pair, K = _product_pair()
    J, status = split_cotamed_J(pair, K)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f, g = rng.uniform(0.2, 5.0, size=2)
        v = taming_check(f * pair.mu0 + g * pair.mu1, J)
        assert v.status == PASS


def test_mu_orthogonal_complement_matches_dalpha_complement():
    # when iota_v dalpha = 0 on K, the mu- and (mu + t dalpha)-orthogonal
    # complements of K agree
    pair, K = _product_pair()
    nu_mu = mu_orthogonal_complement(pair.mu0, K)
    nu_mix = mu_orthogonal_complement(pair.mu0 + 3.7 * pair.mu1, K)
    ang = scipy.linalg.subspace_angles(nu_mu.basis, nu_mix.basis)
    assert np.max(ang) < 1e-10


def test_cotaming_search_feasible_pair():
    # two slightly rotated standard forms share the standard J
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4)) * 0.05
    omega0 = std_skew(2)
    omega1 = std_skew(2) + (A - A.T)
    J, status = cotaming_search([omega0, omega1], std_J(2), seed=1)
    assert status == PASS
    assert taming_check(omega0, J).status == PASS
    assert taming_check(omega1, J).status == PASS


# ---------------------------------------------------------------------------
# Cayley interpolation
# ---------------------------------------------------------------------------

def test_cayley_endpoints_exact():
    J0 = ComplexStructureMatrix(std_J(2))
    A = np.zeros((4, 4))
    A[0, 1] = 0.3
    W = 0.5 * ((A - A.T) + std_J(2) @ (A - A.T) @ std_J(2))
    J1 = ComplexStructureMatrix(
        std_J(2) @ (np.eye(4) + W) @ np.linalg.inv(np.eye(4) - W))
    np.testing.assert_allclose(cayley_interpolate(J0, J1, 0.0).J, J0.J,
                               atol=1e-12)
    np.testing.assert_allclose(cayley_interpolate(J0, J1, 1.0).J, J1.J,
                               atol=1e-10)


def _random_cotamed_pair(rng, n=2):
    omega = std_skew(n)
    Js = []
    for _ in range(2):
        G = rng.standard_normal((2 * n, 2 * n)) * 0.2
        g = G @ G.T + np.eye(2 * n)
        Js.append(compatible_J(omega, g))
    return omega, Js[0], Js[1]


def test_cayley_interior_samples_stay_tamed():
    rng = np.random.default_rng(21)
    for _ in range(10):
        omega, J0, J1 = _random_cotamed_pair(rng)
        prev = None
        for tau in np.linspace(0, 1, 10):
            Jt = cayley_interpolate(J0, J1, tau)
            assert taming_check(omega, Jt).status == PASS
            if prev is not None:
                assert np.linalg.norm(Jt.J - prev) < 1.5   # path continuity
            prev = Jt.J


def test_taming_symmetrization_definition():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    omega = A - A.T
    J = std_J(2)
    S = taming_symmetrization(omega, J)
    for _ in range(10):
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        lhs = v @ S @ w
        rhs = 0.5 * (v @ omega @ (J @ w) + w @ omega @ (J @ v))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# numpy ports of scipy.linalg, with scipy as the reference
# ---------------------------------------------------------------------------

def test_null_space_matches_scipy_bitwise():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 7, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        cases += [
            (rng.standard_normal((m, n)), None),
            (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)), None),
            (rng.standard_normal((1, n + 1)), None),          # as in xi_basis
        ]
        A = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        B = np.hstack([A[:, :2], rng.standard_normal((6, 1))])
        cases.append((np.hstack([A, -B]), 1e-9))   # as in the intersection
    for m, n in ((3, 5), (5, 5), (6, 2)):
        # a smallest singular value just below and just above the default
        # cut eps * max(m, n) * s_max
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        k = min(m, n)
        for f in (0.3, 3.0):
            S = np.zeros((m, n))
            S[range(k), range(k)] = [1.0] * (k - 1) + [
                f * np.finfo(float).eps * max(m, n)]
            cases.append((U @ S @ V.T, None))
    for A, rcond in cases:
        got = conetame.null_space(A, rcond)
        ref = scipy.linalg.null_space(A, rcond)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_subspace_angles_match_scipy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        p, q = (int(v) for v in rng.integers(1, n + 1, size=2))
        A, B = rng.standard_normal((n, p)), rng.standard_normal((n, q))
        # nearly parallel pairs take the sine form
        near = A + 1e-9 * rng.standard_normal((n, p))
        for X, Y in ((A, B), (A, near)):
            got = conetame._subspace_angles(X, Y)
            ref = scipy.linalg.subspace_angles(X, Y)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12
