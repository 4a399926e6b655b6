"""Verifier-level tests: order/stratification, confoliation verdicts, SHS,
flows, the open-book collar model and the product blob."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import sympy as sp

from fractions import Fraction

from confolkit import confolcheck, gallery
from confolkit.chartfield import Chart, FormFieldNum, d_fd, table_d
from confolkit.conetame import (
    FAIL,
    PASS,
    UNDETERMINED,
    SkewPair,
    kernel_with_tol,
    split_cotamed_J,
    taming_symmetrization,
)
from confolkit.confolcheck import (
    BLobData,
    ConfoliationData,
    Hermite,
    HyperplaneField,
    OpenBookProfiles,
    Profile,
    SKIPPED,
    StableHamiltonianPair,
    Verdict,
    blob_pointwise_check,
    char_dist_at,
    confoliation_check,
    default_profiles,
    flow_invariance_test,
    hermite_segment,
    open_book_confoliation,
    open_book_samples,
    order_at,
    profile_constraints,
    rank_stratify,
    shs_check,
    transversely_exact_check,
)

R5 = Chart(("x1", "y1", "x2", "y2", "z"), tuple(((-1.0, 1.0),) * 5))
x1, y1, x2, y2, z = sp.symbols("x1 y1 x2 y2 z")


def darboux_field():
    return HyperplaneField.from_symbolic(R5, {"z": 1, "y1": x1, "y2": x2})


def cubic_field():
    return HyperplaneField.from_symbolic(R5, {"z": 1, "y1": x1**3, "y2": x2})


def flat_field():
    return HyperplaneField.from_symbolic(R5, {"z": 1})


def pts(*coords):
    return np.array(coords, dtype=float)


SAMPLES = pts((0.3, -0.2, 0.4, 0.1, 0.0), (-0.6, 0.5, -0.1, 0.7, 0.2),
              (0.0, 0.3, 0.6, -0.4, -0.3))


# ---------------------------------------------------------------------------
# order / characteristic distribution / strata
# ---------------------------------------------------------------------------

def test_order_at_basic_fields():
    h = darboux_field()
    for p in SAMPLES:
        res = order_at(h, p)
        assert res.status == PASS and res.k == 2
    h0 = flat_field()
    assert order_at(h0, SAMPLES[0]).k == 0
    hc = cubic_field()
    assert order_at(hc, np.array([0.0, 0.2, 0.3, -0.1, 0.0])).k == 1
    assert order_at(hc, np.array([0.6, 0.2, 0.3, -0.1, 0.0])).k == 2


def test_char_dist_dimensions_and_cubic_kernel():
    assert char_dist_at(darboux_field(), SAMPLES[0]).subspace.dim == 0
    K = char_dist_at(flat_field(), SAMPLES[0])
    assert K.subspace.dim == 4
    Kc = char_dist_at(cubic_field(), np.zeros(5))
    assert Kc.subspace.dim == 2
    # span{d/dx1, d/dy1}: projection onto the last three axes vanishes
    B = Kc.subspace.basis
    assert np.linalg.norm(B[2:, :]) < 1e-8


def test_corank_identity():
    # dim K + 2k + 1 = dim M at every decidable sample
    rng = np.random.default_rng(7)
    for h in (darboux_field(), cubic_field(), flat_field()):
        for _ in range(6):
            p = rng.uniform(-0.8, 0.8, size=5)
            res = order_at(h, p)
            if res.status != PASS:
                continue
            K = char_dist_at(h, p)
            if K.status != PASS:
                continue
            assert K.subspace.dim + 2 * res.k + 1 == 5


def test_rank_stratify_two_strata_and_product():
    grid = pts((0.0, 0.1, 0.2, 0.3, 0.0), (0.0, -0.5, 0.1, 0.2, 0.1),
               (0.5, 0.1, 0.2, 0.3, 0.0), (-0.7, -0.5, 0.1, 0.2, 0.1))
    strata, labels = rank_stratify(cubic_field(), grid)
    assert sorted(k for k in strata if k is not None) == [1, 2]
    assert all(lab.status == PASS for lab in labels)
    strata_c, _ = rank_stratify(darboux_field(), grid)
    assert set(strata_c) == {2}
    # product with a two-dimensional trivial factor: one stratum, rank 2
    hp = HyperplaneField.from_symbolic(R5, {"z": 1, "y1": x1})
    strata_p, _ = rank_stratify(hp, grid)
    assert set(strata_p) == {1}
    assert char_dist_at(hp, grid[0]).subspace.dim == 2


# ---------------------------------------------------------------------------
# confoliation / cone membership / fillings
# ---------------------------------------------------------------------------

def mu_field(table):
    return FormFieldNum.from_symbolic(R5, 2, table)


def test_confoliation_cubic_pass():
    c = ConfoliationData(cubic_field(), mu_field({("x1", "y1"): 1}))
    v = confoliation_check(
        c, np.concatenate([SAMPLES, pts((0.0, 0.1, 0.2, 0.3, 0.0))]))
    assert v.status == PASS, v.message


def test_confoliation_flat_wrong_orientation_fails():
    # the (dx1^dx2 + dy1^dy2) pairing is negative against the orientation
    # induced by dz: its Pfaffian on ker dz is -1
    c = ConfoliationData(flat_field(),
                         mu_field({("x1", "x2"): 1, ("y1", "y2"): 1}))
    v = confoliation_check(c, SAMPLES)
    assert v.status == FAIL


def test_confoliation_contact_with_dalpha():
    h = darboux_field()
    c = ConfoliationData(h, mu_field({("x1", "y1"): 1, ("x2", "y2"): 1}))
    assert confoliation_check(c, SAMPLES).status == PASS


# ---------------------------------------------------------------------------
# batched sample loops: witness order and named bands
# ---------------------------------------------------------------------------

R3 = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3)
x, y = sp.symbols("x y")
# seven samples told apart by x: positions 2 and 5 have x > 0.5, position
# 3 has x = -0.3, position 5 alone has x > 0.65
ORDERED = pts((-0.9, 0.1, 0.0), (-0.6, 0.2, 0.1), (0.6, 0.3, 0.2),
              (-0.3, 0.4, 0.3), (0.0, 0.5, 0.4), (0.7, 0.6, 0.5),
              (0.2, 0.7, 0.6))


def _field(degree, coeffs):
    """A numeric field on R3 from callables in the evaluation contract."""
    return FormFieldNum(R3, degree, coeffs)


def _sign_at_2_and_5(p):
    return np.where(p[0] > 0.5, -1.0, 1.0)


def _nan_at_3(p):
    return np.where(np.isclose(p[0], -0.3), np.nan, 0.0)


def _zero_at_5(p):
    return np.where(p[0] > 0.65, 0.0, 1.0)


def _dz_dxdy():
    return HyperplaneField(R3, _field(1, {(2,): lambda p: 1.0}),
                           _field(2, {(0, 1): lambda p: 1.0}))


def test_confoliation_witness_is_the_first_failing_sample():
    # mu = -dx^dy at positions 2 and 5: the pencil degenerates at t = 1
    c = ConfoliationData(_dz_dxdy(), _field(2, {(0, 1): _sign_at_2_and_5}))
    v = confoliation_check(c, ORDERED)
    assert v.status == FAIL
    assert v.message.startswith("pencil: pencil degenerates at t=1")
    np.testing.assert_array_equal(v.witness, ORDERED[2])
    assert confoliation_check(
        c, np.concatenate([ORDERED[:2], ORDERED[3:5]])).status == PASS


def test_confoliation_first_bad_sample_names_its_cause():
    # alpha is nan at position 3 and vanishes at position 5
    h = HyperplaneField(R3, _field(1, {(1,): _nan_at_3, (2,): _zero_at_5}),
                        _field(2, {(0, 1): lambda p: 1.0}))
    c = ConfoliationData(h, _field(2, {(0, 1): lambda p: 1.0}))
    v = confoliation_check(c, ORDERED)
    assert v.status == FAIL
    assert v.message == "alpha is not finite at the witness"
    np.testing.assert_array_equal(v.witness, ORDERED[3])
    v = confoliation_check(c, ORDERED[4:])
    assert (v.status, v.message) == (FAIL, "alpha vanishes at the witness")
    np.testing.assert_array_equal(v.witness, ORDERED[5])
    # a nan mu after a nan dalpha names dalpha
    c = ConfoliationData(
        HyperplaneField(R3, _field(1, {(2,): lambda p: 1.0}),
                        _field(2, {(0, 1): lambda p: 1.0 + _nan_at_3(p)})),
        _field(2, {(0, 1): lambda p: 1.0 + _nan_at_3(p)}))
    assert confoliation_check(c, ORDERED).message == \
        "dalpha is not finite at the witness"


def test_shs_witness_is_the_first_failing_sample():
    lam = _field(1, {(2,): lambda p: 1.0})
    om = _field(2, {(0, 1): _sign_at_2_and_5})
    v = shs_check(StableHamiltonianPair(lam, om, R3), ORDERED)
    assert v.status == FAIL and "not positive" in v.message
    np.testing.assert_array_equal(v.witness, ORDERED[2])


def test_shs_first_bad_sample_names_its_cause():
    # lambda is nan at position 3 and vanishes at position 5
    lam = _field(1, {(1,): _nan_at_3, (2,): _zero_at_5})
    om = _field(2, {(0, 1): lambda p: 1.0})
    v = shs_check(StableHamiltonianPair(lam, om, R3), ORDERED)
    assert v.status == FAIL
    assert v.message == "lambda is not finite at the witness"
    np.testing.assert_array_equal(v.witness, ORDERED[3])
    v = shs_check(StableHamiltonianPair(lam, om, R3), ORDERED[4:])
    assert v.status == FAIL and "lambda^omega^1 = 0.000e+00" in v.message
    np.testing.assert_array_equal(v.witness, ORDERED[5])


def test_batched_order_at_matches_single_points():
    P = np.concatenate([SAMPLES, pts((0.0, 0.1, 0.2, 0.3, 0.0),
                                     (1.0, -1.0, 0.0, 0.5, 1.0))])
    for h in (darboux_field(), cubic_field(), flat_field()):
        batch = order_at(h, P)
        assert batch == [order_at(h, p) for p in P]


def test_pencil_band_names_its_tolerance():
    # Pf(mu + t dalpha) on xi is a multiple of t - 5e-9: a root within
    # RAY_TOL = 1e-8 of the open ray
    h = HyperplaneField.from_symbolic(R3, {"z": 1, "y": x})
    mu = FormFieldNum.from_symbolic(R3, 2,
                                    {("x", "y"): -sp.Rational(5, 10**9)})
    v = confoliation_check(ConfoliationData(h, mu), pts((0.1, 0.2, 0.3)))
    assert v.status == UNDETERMINED
    assert v.message.startswith("pencil: root within 1e-08 of the ray")
    assert set(v.margins) == {"tolerance", "tau", "margin"}
    assert (v.margins["tolerance"], v.margins["tau"]) == ("ray_tol", 1e-8)
    assert v.margins["margin"] == pytest.approx(5e-9, rel=1e-6)


# mu on ker dz of R5 by sample kind, told apart by x1 (dalpha = dx1^dy1 +
# dx2^dy2 throughout):
#   x1 < 0:        Pf(mu + t dalpha) = 1 - t + t^2, a PASS that changes sign
#                  and so takes the Sturm path
#   0 < x1 < 0.5:  (t - 1)(t + 1), which degenerates at t = 1
#   x1 > 0.5:      (t - 5e-9)(t + 1), a root within RAY_TOL of the open ray
def _by_kind(sturm_pass, fail, band):
    return lambda p: np.where(p[0] < 0, sturm_pass,
                              np.where(p[0] < 0.5, fail, band))


def _kinds_field():
    h = HyperplaneField(R5, FormFieldNum(R5, 1, {(4,): lambda p: 1.0}),
                        FormFieldNum(R5, 2, {(0, 1): lambda p: 1.0,
                                             (2, 3): lambda p: 1.0}))
    mu = FormFieldNum(R5, 2, {(0, 1): _by_kind(-1.0, 1.0, -5e-9),
                              (2, 3): _by_kind(0.0, -1.0, 1.0),
                              (0, 2): _by_kind(1.0, 0.0, 0.0),
                              (1, 3): _by_kind(-1.0, 0.0, 0.0)})
    return ConfoliationData(h, mu)


STURM_PASS = pts((-0.5, 0.1, 0.2, 0.3, 0.0), (-0.2, -0.4, 0.1, 0.0, 0.5))
PENCIL_FAIL = pts((0.3, 0.2, -0.1, 0.4, 0.1))
PENCIL_BAND = pts((0.7, -0.3, 0.2, 0.1, -0.2))


def _counting_pencil(monkeypatch):
    """Record each pair that confoliation_check hands to the Sturm path."""
    calls, sturm = [], confolcheck.pencil_positive

    def counted(pair, *args, **kw):
        calls.append(pair)
        return sturm(pair, *args, **kw)
    monkeypatch.setattr(confolcheck, "pencil_positive", counted)
    return calls


def test_uncertified_pencils_pass_through_the_sturm_path(monkeypatch):
    calls = _counting_pencil(monkeypatch)
    v = confoliation_check(_kinds_field(), STURM_PASS)
    assert v.status == PASS
    assert len(calls) == len(STURM_PASS)


@pytest.mark.parametrize("bad, status, message", [
    (PENCIL_FAIL, FAIL, "pencil: pencil degenerates at t=1"),
    (PENCIL_BAND, UNDETERMINED, "pencil: root within 1e-08 of the ray")],
    ids=["fail", "band"])
def test_witness_follows_uncertified_passes(monkeypatch, bad, status,
                                            message):
    # the Sturm-path PASSes come first; the first failing sample is the
    # witness, ahead of a later failure of the other kind
    calls = _counting_pencil(monkeypatch)
    other = PENCIL_BAND if bad is PENCIL_FAIL else PENCIL_FAIL
    samples = np.concatenate([STURM_PASS, bad, STURM_PASS, other])
    v = confoliation_check(_kinds_field(), samples)
    assert v.status == status
    assert v.message.startswith(message)
    np.testing.assert_array_equal(v.witness, bad[0])
    assert len(calls) == len(STURM_PASS) + 1
    if status == UNDETERMINED:
        assert (v.margins["tolerance"], v.margins["tau"]) == ("ray_tol", 1e-8)
        assert v.margins["margin"] == pytest.approx(5e-9, rel=1e-6)


def _banded_pair(seed):
    """dalpha = Q diag(J, 1e-7 J) Q^T on ker dz of R5: its small singular
    pair sits on the rank cut 1e-7 * max(sigma_max, 1), where rounding in
    the SVD splits it for some rotations Q; mu = Q diag(J, J) Q^T keeps the
    pencil positive."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    Q[:, 0] *= np.sign(np.linalg.det(Q))
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Z = np.zeros((2, 2))
    D, M = np.zeros((5, 5)), np.zeros((5, 5))
    D[:4, :4] = Q @ np.block([[J, Z], [Z, 1e-7 * J]]) @ Q.T
    M[:4, :4] = Q @ np.block([[J, Z], [Z, J]]) @ Q.T

    def const(T):
        return FormFieldNum(R5, 2, {
            (i, j): (lambda v: lambda p: v)(T[i, j])
            for i in range(5) for j in range(i + 1, 5)})
    h = HyperplaneField(R5, FormFieldNum(R5, 1, {(4,): lambda p: 1.0}),
                        const(D))
    return ConfoliationData(h, const(M))


def test_kernel_band_names_its_tolerance():
    banded = []
    for seed in range(60):
        c = _banded_pair(seed)
        v = confoliation_check(c, SAMPLES[:1])
        if v.status != PASS:
            banded.append((c, v))
    assert banded, "no rotation split the singular pair at the cut"
    for c, v in banded:
        assert v.status == UNDETERMINED
        assert v.message.startswith("odd numerical rank 3")
        assert (v.margins["tolerance"], v.margins["tau"]) == ("tau_rank", 1e-7)
        above, below = v.margins["margin"]
        assert above > below
        assert abs(above - 1e-7) < 1e-15 and abs(below - 1e-7) < 1e-15
        # the single-point K_xi reports the same band (it raised a
        # TypeError before KernelResult had a message)
        K = char_dist_at(c.h, SAMPLES[0], c.tau_rank)
        assert (K.status, K.message) == (UNDETERMINED, v.message)


def test_blob_kernel_band_names_its_tolerance():
    # a blob whose psi lands on the banded point: blob item 1 and both K_xi
    # sites of transverse exactness name the band as confoliation_check does
    c = next(c for c in map(_banded_pair, range(60))
             if char_dist_at(c.h, SAMPLES[0], c.tau_rank).status != PASS)
    K = char_dist_at(c.h, SAMPLES[0], c.tau_rank)
    e = np.eye(5)
    blob = BLobData(
        N_chart=Chart(("r", "theta"), ((0.1, 1.0), (0.0, 2 * math.pi))),
        psi=lambda p: SAMPLES[0], radial_index=0, theta_index=1,
        KN_basis=lambda p: np.zeros((2, 1)), binding_normal_indices=(0,),
        FU_basis=lambda pM: e[:, :1], gamma=c.h.alpha,
        tangent_families={"fiber": lambda p: e[:, :2]})
    samples_N = pts((0.5, 1.0))
    v = transversely_exact_check(c, blob, c.mu, samples_N)
    for got in (blob_pointwise_check(c, blob, samples_N).sub["item1"],
                v.sub["complement_fiber"], v.sub["exactness"]):
        assert (got.status, got.message) == (UNDETERMINED, K.message)
        assert np.array_equal(got.witness, samples_N[0])
        assert (got.margins["tolerance"], got.margins["tau"]) == \
            ("tau_rank", 1e-7)
        above, below = got.margins["margin"]
        assert above > below
        assert abs(above - 1e-7) < 1e-15 and abs(below - 1e-7) < 1e-15


def test_status_invariant_under_conformal_rescaling():
    table = {"z": sp.exp(z), "y1": sp.exp(z) * x1**3, "y2": sp.exp(z) * x2}
    h = HyperplaneField.from_symbolic(R5, table)
    u = sp.exp(0.3 * x2)
    c = ConfoliationData(h, mu_field({("x1", "y1"): u}))
    assert confoliation_check(c, SAMPLES).status == PASS


# ---------------------------------------------------------------------------
# stable Hamiltonian pairs
# ---------------------------------------------------------------------------

def test_shs_standard_pass():
    lam = FormFieldNum.from_symbolic(R5, 1, {("z",): 1})
    om = mu_field({("x1", "y1"): 1, ("x2", "y2"): 1})
    v = shs_check(StableHamiltonianPair(lam, om, R5), SAMPLES)
    assert v.status == PASS, v.message


def test_shs_kernel_dimension_fail():
    lam = FormFieldNum.from_symbolic(R5, 1, {("z",): 1, ("y1",): x1})
    om = mu_field({("x2", "y2"): 1})
    assert shs_check(StableHamiltonianPair(lam, om, R5), SAMPLES).status == FAIL


def test_shs_reeb_not_in_ker_dlam_fails():
    lam = FormFieldNum.from_symbolic(R5, 1, {("z",): 1, ("y1",): z * x1})
    om = mu_field({("x1", "y1"): 1, ("x2", "y2"): 1})
    v = shs_check(StableHamiltonianPair(lam, om, R5), SAMPLES)
    assert v.status == FAIL
    assert "d lambda" in v.message


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_flow_invariance_order_one_and_vacuous():
    h1 = HyperplaneField.from_symbolic(R5, {"z": 1, "y1": x1})
    v = flow_invariance_test(h1, np.array([0.1, 0.2, 0.0, 0.1, 0.0]))
    assert v.status == PASS, v.message
    hc = cubic_field()
    v = flow_invariance_test(hc, np.array([0.6, 0.2, 0.3, -0.1, 0.0]))
    assert v.status == PASS and "vacuous" in v.message


# ---------------------------------------------------------------------------
# open-book collar model
# ---------------------------------------------------------------------------

def test_profile_constraints_default_pass():
    pr = default_profiles()
    v = profile_constraints(pr)
    assert v.status == PASS, v.message
    assert v.margins == {"shs_residual": 0.0}


def test_open_book_rejects_flat_potential():
    pr = default_profiles()
    bad = OpenBookProfiles(pr.f, pr.g, pr.h, Profile((), ((0,),)), pr.delta)
    with pytest.raises(ValueError, match="degenerate slice"):
        open_book_confoliation(1, profiles=bad)


def _literal_profiles(delta):
    """The open-book profiles written out as sympy Piecewise expressions:
    the reference the piece descriptions must emit."""
    r = sp.Symbol("r")
    d1, a, b, d2 = 0.15 * delta, 0.3 * delta, 0.6 * delta, 0.8 * delta
    half = sp.Rational(1, 2)
    f = sp.Piecewise((1, r <= a), (hermite_segment(a, b, 1, 0, 0, 0), r <= b),
                     (0, True))
    g = sp.Piecewise((0, r <= a), (hermite_segment(a, b, 0, 0, 1, 0), r <= b),
                     (1, True))
    h = sp.Piecewise((r, r <= d1),
                     (hermite_segment(d1, a, d1, 1, half, 0), r <= a),
                     (half, r <= b),
                     (hermite_segment(b, d2, half, 0, 0, 0), r <= d2),
                     (0, True))
    l = sp.Piecewise((0, r <= d1),
                     (hermite_segment(d1, a, 0, 0, a / 2, half), r <= a),
                     (r / 2, r <= b),
                     (hermite_segment(b, d2, b / 2, half, d2, 1), r <= d2),
                     (r, True))
    # openbook-deformation's monotone tail for l
    l_deformation = sp.Piecewise(
        (sp.Integer(0), r <= d1),
        (hermite_segment(d1, a, 0, 0, a / 2, half), r <= a),
        (r / 2, r <= b),
        (hermite_segment(b, delta, b / 2, half, 0.45 * delta, 0.25), True))
    return {"f": f, "g": g, "h": h, "l": l, "l-deformation": l_deformation}


@functools.cache
def _profiles_under_test(delta):
    pr = default_profiles(delta)
    entry = gallery.build("openbook-deformation", delta=delta)
    return {"f": pr.f, "g": pr.g, "h": pr.h, "l": pr.l,
            "l-deformation": entry.structures["profiles"].l}


# 1.01 is the delta gallery.jittered builds
@pytest.mark.parametrize("delta", [1.0, 1.01])
def test_profiles_emit_the_literal_piecewise(delta):
    want = _literal_profiles(delta)
    got = _profiles_under_test(delta)
    for name in want:
        assert sp.srepr(got[name].expr) == sp.srepr(want[name]), name


@pytest.mark.parametrize("delta", [1.0, 1.01])
def test_exact_pieces_match_sympy_derivatives(delta):
    r = sp.Symbol("r")
    for name, prof in _profiles_under_test(delta).items():
        breaks, polys = prof.exact
        edges = [breaks[0] - 1, *breaks, breaks[-1] + 1]
        for (e, _), poly, lo, hi in zip(prof.expr.args, polys, edges,
                                        edges[1:]):
            de = sp.diff(e, r)
            dpoly = [k * c for k, c in enumerate(poly)][1:]
            for t in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
                x = lo + (hi - lo) * t
                want = float(de.subs(r, float(x)))
                got = float(sum(c * x**k for k, c in enumerate(dpoly)))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), name
                assert float(sum(c * x**k for k, c in enumerate(poly))) == \
                    pytest.approx(float(e.subs(r, float(x))), rel=1e-9,
                                  abs=1e-12), name


def test_exact_audit_catches_a_rise_between_grid_points():
    # f climbs back by 1e-7 on (0.600, 0.602) and falls again by 0.604,
    # strictly between the points 0.6 and 0.6025 of a 400-point grid
    pr = default_profiles()
    bump = Profile((0.3, 0.6, 0.602, 0.604),
                   ((1,), Hermite(0.3, 0.6, 1, 0, 0, 0),
                    Hermite(0.6, 0.602, 0, 0, 1e-7, 0),
                    Hermite(0.602, 0.604, 1e-7, 0, 0, 0), (0,)))
    v = profile_constraints(dataclasses.replace(pr, f=bump))
    assert v.status == FAIL and "f' > 0" in v.message
    assert 0.600 < v.witness < 0.602


@pytest.mark.parametrize("name,at,piece,sign,lo,hi", [
    # g falls past b, l' = 1/2 - 2r turns negative on (a, b], h < 0 past d2
    ("g", 2, (1 + sp.Rational(6, 10000), -sp.Rational(1, 1000)), "g' < 0",
     0.6, 0.8),
    ("l", 2, (0, sp.Rational(1, 2), -1), "l' < 0", 0.3, 0.6),
    ("h", 4, (-sp.Rational(1, 100),), "h < 0", 0.8, 1.0)])
def test_exact_audit_names_the_failing_sign(name, at, piece, sign, lo, hi):
    pr = default_profiles()
    prof = getattr(pr, name)
    pieces = prof.pieces[:at] + (piece,) + prof.pieces[at + 1:]
    v = profile_constraints(dataclasses.replace(
        pr, **{name: Profile(prof.breaks, pieces)}))
    assert v.status == FAIL and v.message.endswith(sign)
    assert lo < v.witness <= hi


@pytest.mark.parametrize("name,piece,message", [
    # h = r + r^2 vanishes linearly but is not r near the binding
    ("h", (0, 1, 1), "h(r) != r near the binding"),
    ("f", (sp.Rational(99, 100),), "f != 1 near the binding"),
    ("g", (sp.Rational(99, 100),), "g != 1 at the outer rim")])
def test_profile_ends_are_checked_exactly(name, piece, message):
    pr = default_profiles()
    prof = getattr(pr, name)
    at = 0 if name != "g" else len(prof.pieces) - 1
    pieces = prof.pieces[:at] + (piece,) + prof.pieces[at + 1:]
    v = profile_constraints(dataclasses.replace(
        pr, **{name: Profile(prof.breaks, pieces)}))
    assert v.status == FAIL and v.message == message


@pytest.mark.parametrize("name", ["openbook-solid-torus",
                                  "openbook-s3-binding",
                                  "openbook-deformation"])
def test_openbook_profiles_pass_with_zero_residual(name):
    entry = gallery.build(name)
    if name == "openbook-deformation":
        v = profile_constraints(entry.structures["profiles"])
    else:
        pair = entry.structures["pair"]
        v = pair.profile_verdict
    assert v.status == PASS and v.margins == {"shs_residual": 0.0}


def test_profile_audit_calls_neither_diff_nor_lambdify(monkeypatch):
    pair = open_book_confoliation(1)

    def forbidden(*args, **kw):
        raise AssertionError("sympy called by the profile audit")

    monkeypatch.setattr(sp, "diff", forbidden)
    monkeypatch.setattr(sp, "lambdify", forbidden)
    v = profile_constraints(pair.profiles)
    assert v.status == PASS and v.margins == {"shs_residual": 0.0}


def test_open_book_n1_bundle():
    pair = open_book_confoliation(1)
    assert pair.profile_verdict.status == PASS
    assert pair.profile_verdict.margins["shs_residual"] < 1e-9
    samples = open_book_samples(pair, count=25, seed=3)
    c = ConfoliationData(pair.h, pair.Omega)
    v = confoliation_check(c, samples)
    assert v.status == PASS, (v.message, v.witness)
    shs = shs_check(StableHamiltonianPair(pair.h.alpha, pair.Omega,
                                          pair.chart), samples)
    assert shs.status == PASS, shs.message
    # away from the collar the form is a pure angular form
    rim = np.array([1.0, 0.95, 2.0])
    comp = pair.h.alpha.components(rim)
    assert abs(comp[(0,)]) < 1e-12 and abs(comp[(2,)] - 1.0) < 1e-12


def test_open_book_n1_split_cotamed():
    pair = open_book_confoliation(1)
    for p in open_book_samples(pair, count=10, seed=11):
        xi = pair.h.xi_basis(p)
        mu_xi = xi.restrict(pair.Omega.eval_at(p))
        da_xi = xi.restrict(pair.h.dalpha.eval_at(p))
        K = kernel_with_tol(da_xi)
        assert K.status == PASS
        J, status = split_cotamed_J(SkewPair(mu_xi, da_xi), K.subspace)
        assert status == PASS
        for t in (0.0, 0.25, 1.0):
            S = taming_symmetrization(mu_xi + t * da_xi, J.J)
            assert np.linalg.eigvalsh(S).min() > -1e-9


def test_open_book_n2_confoliation():
    pair = open_book_confoliation(2)
    samples = open_book_samples(pair, count=12, seed=5)
    c = ConfoliationData(pair.h, pair.Omega)
    v = confoliation_check(c, samples)
    assert v.status == PASS, (v.message, v.witness)
    shs = shs_check(StableHamiltonianPair(pair.h.alpha, pair.Omega,
                                          pair.chart), samples[:6])
    assert shs.status == PASS, shs.message


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("delta", [1.0, 1.01, 1e-3, 1e3])
def test_open_book_dalpha_is_the_exact_table_d(n, delta):
    # dalpha is written from the exact profile pieces; table_d of alpha's
    # sympy table, compiled, is the reference.  Its expanded Piecewise loses
    # digits to cancellation near the zeros of f' and g', so the tolerance
    # is relative to each entry's largest value on the samples.
    pair = open_book_confoliation(n, delta=delta)
    ref = FormFieldNum.from_symbolic(
        pair.chart, 2, table_d(pair.chart, pair.h.symbolic_table))
    samples = open_book_samples(pair, count=60, seed=7)
    got, want = pair.h.dalpha.eval_at(samples), ref.eval_at(samples)
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # a point gives the same floats alone as in the batch
    assert np.array_equal(got, [pair.h.dalpha.eval_at(p) for p in samples])
    # f' and g' are exactly 0.0 off the transition piece (a, b]
    a, b = pair.profiles.f.breaks
    r = samples[:, pair.r_index]
    flat = (r <= a) | (r > b)
    assert flat.any() and not flat.all()
    slope_keys = [k for k in pair.h.dalpha.coeffs if pair.r_index in k]
    for key in slope_keys:
        values = pair.h.dalpha.components(samples)[key]
        assert np.all(values[flat] == 0.0)
        assert np.all(values[~flat] != 0.0)
    for prof in (pair.profiles.f, pair.profiles.g):
        assert np.all(prof.numeric(1)(r[flat]) == 0.0)


# ---------------------------------------------------------------------------
# product blob
# ---------------------------------------------------------------------------

M7 = Chart(("r", "phi", "z", "w", "pw", "q", "pq"),
           ((1e-4, 3.3), (0.0, 2 * math.pi), (-1.0, 1.0),
            (0.0, 2 * math.pi), (-1.0, 1.0), (0.0, 2 * math.pi),
            (-1.0, 1.0)),
           periodic=("phi", "w", "q"))
N4 = Chart(("r", "phi", "w", "q"),
           ((1e-4, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi),
            (0.0, 2 * math.pi)),
           periodic=("phi", "w", "q"))
rr, pw = sp.Symbol("r"), sp.Symbol("pw")


def product_blob():
    alpha_tab = {"z": sp.cos(rr), "phi": rr * sp.sin(rr), "w": pw}
    h = HyperplaneField.from_symbolic(M7, alpha_tab)
    mu = FormFieldNum.from_symbolic(M7, 2, {("q", "pq"): -1})   # dpq ^ dq
    c = ConfoliationData(h, mu)

    def psi(p):
        r, phi, w, q = p
        return np.array([r, phi, 0.0, w, 0.0, q, 0.0])

    e = np.eye(7)
    blob = BLobData(
        N_chart=N4, psi=psi, radial_index=0, theta_index=1,
        KN_basis=lambda p: np.array([[0.0], [0.0], [0.0], [1.0]]),
        binding_normal_indices=(0, 1),
        FU_basis=lambda pM: e[:, [0, 1, 2, 3, 4]],
        gamma=FormFieldNum.from_symbolic(
            M7, 1, {("z",): sp.cos(rr), ("phi",): rr * sp.sin(rr),
                    ("w",): pw}),
        tangent_families={
            "binding": lambda p: e[:, [3, 5]],
            "boundary": lambda p: e[:, [1, 3, 5]],
            "fiber": lambda p: e[:, [0, 3, 5]],
        },
    )
    return c, blob


def blob_samples():
    rng = np.random.default_rng(2)
    out = []
    for r in (0.2, 0.25, 0.8, 1.5, 2.4, 3.0):
        p = np.array([r, rng.uniform(0, 6), rng.uniform(0, 6),
                      rng.uniform(0, 6)])
        out.append(p)
    return np.array(out)


def test_blob_product_model_passes():
    c, blob = product_blob()
    v = blob_pointwise_check(c, blob, blob_samples())
    assert v.status == PASS, {k: (s.status, s.message) for k, s in v.sub.items()}
    assert v.sub["item3c"].status == SKIPPED
    assert v.sub["item3d"].status == SKIPPED
    assert v.sub["item1"].margins["rank"] == 2


def test_blob_conformal_mu_same_statuses():
    c, blob = product_blob()
    w = sp.Symbol("w")
    c2 = ConfoliationData(
        c.h, FormFieldNum.from_symbolic(
            M7, 2, {("q", "pq"): -(1 + sp.Rational(3, 10) * sp.sin(w))}))
    v1 = blob_pointwise_check(c, blob, blob_samples())
    v2 = blob_pointwise_check(c2, blob, blob_samples())
    assert {k: s.status for k, s in v1.sub.items()} == \
        {k: s.status for k, s in v2.sub.items()}


def test_blob_non_lagrangian_KN_fails_3b():
    c, blob = product_blob()
    bad = dataclasses.replace(
        blob, KN_basis=lambda p: np.array([[0.0, 0.0], [0.0, 0.0],
                                           [0.0, 1.0], [1.0, 0.0]]))
    v = blob_pointwise_check(c, bad, blob_samples())
    assert v.sub["item3b"].status == FAIL


def test_transversely_exact_product_and_failures():
    c, blob = product_blob()
    mu = c.mu
    dgamma = d_fd(blob.gamma)
    Om = mu + dgamma
    v = transversely_exact_check(c, blob, Om, blob_samples())
    assert v.status == PASS, {k: (s.status, s.message) for k, s in v.sub.items()}
    # gamma leaking onto K_xi
    leak = blob.gamma + FormFieldNum.from_symbolic(M7, 1, {("q",): sp.Rational(1, 2)})
    v = transversely_exact_check(c, dataclasses.replace(blob, gamma=leak),
                                 Om, blob_samples())
    assert v.sub["exactness"].status == FAIL
    # non-exact term seen by F_U
    Om_bad = Om + FormFieldNum.from_symbolic(M7, 2, {("r", "w"): 1})
    v = transversely_exact_check(c, blob, Om_bad, blob_samples())
    assert v.sub["exactness"].status == FAIL
