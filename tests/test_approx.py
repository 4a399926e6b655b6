"""Deformation analyzer tests: table algebra, practical contractions,
conformal limits on both paths, bivariate compatibility, full bundles."""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

from confolkit import gallery
from confolkit.chartfield import Chart, FormFieldNum, PointSample
from confolkit.conetame import FAIL, PASS, UNDETERMINED
from confolkit.approx import (
    DeformationFamily,
    PartitionedForm,
    StratumData,
    approx_verdict,
    compat_check,
    conformal_limit,
    practical_mu,
    table_contract,
    table_d,
    table_to_field,
    table_wedge,
    table_wedge_power,
    _laurent,
)
from confolkit.confolcheck import ConfoliationData, HyperplaneField

R5 = Chart(("x1", "y1", "x2", "y2", "z"), tuple(((-1.0, 1.0),) * 5))
x1, y1, x2, y2, z = sp.symbols("x1 y1 x2 y2 z")
s = sp.Symbol("s")
TOP5 = (0, 1, 2, 3, 4)


def pts(*coords):
    return [PointSample(np.array(c, dtype=float), 1e-7, 1e-9,
                        R5.default_h()) for c in coords]


GENERIC = pts((0.5, -0.3, 0.2, 0.4, 0.1), (-0.6, 0.2, -0.5, 0.3, -0.2),
              (0.7, 0.5, 0.3, -0.4, 0.6))
ON_C1 = pts((0.0, -0.3, 0.2, 0.4, 0.1), (0.0, 0.6, -0.5, 0.3, -0.2),
            (0.0, 0.1, 0.3, -0.4, 0.6))


def cubic_family():
    return DeformationFamily.from_table(
        R5, {"z": 1, "y1": x1**3 + s * x1, "y2": x2},
        {("x1", "y1"): 1}, param=s)


def flat_family():
    return DeformationFamily.from_table(
        R5, {"z": 1, "y1": s * x1, "y2": s * x2},
        {("x1", "x2"): 1, ("y1", "y2"): 1}, param=s)


# ---------------------------------------------------------------------------
# symbolic coefficient tables
# ---------------------------------------------------------------------------

def test_table_d_matches_hand_derivative():
    t = table_d(R5, {("z",): x1**2})
    assert set(t) == {(0, 4)}
    assert sp.expand(t[(0, 4)] - 2 * x1) == 0
    # d of d vanishes
    assert table_d(R5, t) == {}
    # every spelling of the dz key reads as the same table
    for key in ("z", ("z",), (4,)):
        assert table_d(R5, {key: x1**2}) == t


def test_table_wedge_signs_and_power():
    a = {("x1",): sp.Integer(1)}
    b = {("y1",): sp.Integer(1)}
    assert table_wedge(R5, a, b) == {(0, 1): 1}
    assert table_wedge(R5, b, a) == {(0, 1): -1}
    dlam = {("x1", "y1"): sp.Integer(1), ("x2", "y2"): sp.Integer(1)}
    sq = table_wedge_power(R5, dlam, 2)
    assert sq == {(0, 1, 2, 3): 2}
    assert table_wedge_power(R5, dlam, 3) == {}


def test_table_contract_antiderivation():
    vol = {("x1", "y1", "z"): x2}
    ez = np.zeros(5); ez[4] = 1.0
    out = table_contract(R5, vol, ez)
    assert set(out) == {(0, 1)}
    assert sp.expand(out[(0, 1)] - x2) == 0
    ex1 = np.zeros(5); ex1[0] = 1.0
    out = table_contract(R5, vol, ex1)
    assert out == {(1, 4): x2}


def test_laurent_powers_and_piecewise_fallback():
    r = sp.Symbol("r")
    lp = _laurent(x1 * s**2 + y1 / s, s)
    assert set(lp) == {-1, 2}
    assert lp[-1] == y1 and lp[2] == x1
    pw = sp.Piecewise((r, r < 1), (1, True))
    lp = _laurent(pw * s + s**3, s)
    assert set(lp) == {1, 3}
    assert lp[1] == pw
    with pytest.raises(ValueError):
        _laurent(sp.exp(s), s, max_deg=3)


def test_laurent_keeps_parameter_free_denominators():
    # together() rewrites e^(-t) s as s / e^t; the e^t must not be dropped
    t = sp.Symbol("t")
    lp = _laurent(-s * sp.exp(-t), s)
    assert sp.simplify(lp[1] + sp.exp(-t)) == 0
    lp = _laurent(s * x1 / sp.exp(t) + sp.exp(-2 * t) / s, s)
    assert sp.simplify(lp[1] - x1 * sp.exp(-t)) == 0
    assert sp.simplify(lp[-1] - sp.exp(-2 * t)) == 0


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_base_from_table():
    fam = cubic_family()
    tab = fam.base.h.symbolic_table
    assert sp.expand(tab[(R5.index("y1"),)] - x1**3) == 0
    assert fam.base_consistency(GENERIC).status == PASS
    assert fam.n == 2


def test_family_singular_at_the_base_is_a_value_error():
    x = sp.Symbol("x")
    chart = Chart(("x", "y", "z"), ((-1, 1),) * 3)
    with pytest.raises(ValueError,
                       match=r"coefficient of dy is not finite at s = 0"):
        DeformationFamily.from_table(chart, {"z": 1, "y": x / s},
                                     {("x", "y"): 1})


def test_family_from_sequence_base():
    lam = {"z": 1}
    def fields(m):
        return table_to_field(
            R5, {("z",): 1, ("y1",): sp.Rational(1, m) * x1}, 1)
    fam = DeformationFamily.from_sequence(
        R5, fields, {("x1", "y1"): 1}, lam, param="m")
    v = fam.base_consistency(GENERIC, tau=1e-9)
    assert v.status == PASS
    assert fam.direction == "m->inf"


@pytest.mark.parametrize("name", ["r5-cubic", "r5-flat-negative",
                                  "bertelson-meigniez-r5", "branched-cover-r3",
                                  "mnw-torus", "openbook-deformation"])
def test_compiled_family_matches_substituted_table(name):
    # alpha_s and d(alpha_s) are compiled once with the parameter as the last
    # argument; binding a value must agree with substituting it first
    structures = gallery.build(name).structures
    fam, pf = structures["family"], structures["partition"]
    chart = fam.chart
    points = [smp.point for sd in pf.strata.values() for smp in sd.samples]
    for sv in (0.0, 2.0 ** -12, 0.25):
        tab = {k: e.subs(fam.param, sv) for k, e in fam.table.items()}
        pairs = ((fam.alpha_of(sv), table_to_field(chart, tab, 1)),
                 (fam.hyperplane_at(sv).dalpha,
                  table_to_field(chart, table_d(chart, tab), 2)))
        for got, want in pairs:
            for p in points:
                g, w = got.components(p), want.components(p)
                diff = max((abs(g.get(k, 0.0) - w.get(k, 0.0))
                            for k in set(g) | set(w)), default=0.0)
                scale = max((abs(v) for v in w.values()), default=0.0)
                assert diff <= 1e-12 * scale, (sv, p)


# ---------------------------------------------------------------------------
# practical contraction families
# ---------------------------------------------------------------------------

def test_practical_mu_linear_deformation():
    fam = DeformationFamily.from_table(
        R5, {"z": 1, "y1": s * x1, "y2": s * x2},
        {("x1", "y1"): 1, ("x2", "y2"): 1}, param=s)
    ez = np.zeros(5); ez[4] = 1.0
    mu_s = practical_mu(fam, 0, [ez], GENERIC)
    # iota_dz(alpha_s ^ dalpha_s) = s(dx1dy1 + dx2dy2), exactly
    assert set(mu_s) == {(0, 1), (2, 3)}
    assert sp.expand(mu_s[(0, 1)] - s) == 0
    assert sp.expand(mu_s[(2, 3)] - s) == 0


def test_practical_mu_normalization_guard():
    fam = cubic_family()
    ez = np.zeros(5); ez[4] = 2.0    # beta(2 dz-dual) = 2, not 1
    with pytest.raises(ValueError, match="normalization"):
        practical_mu(fam, 0, [ez], GENERIC)


def test_practical_mu_vacuous_on_contact_stratum():
    fam = cubic_family()
    assert practical_mu(fam, fam.n, [], GENERIC) == {}


def test_practical_mu_multivector_cubic_c1():
    # X = dz-, dx2-, dy2-duals contract beta ^ dbeta to 1 on {x1 = 0}
    fam = cubic_family()
    ez = np.zeros(5); ez[4] = 1.0
    ex2 = np.zeros(5); ex2[2] = 1.0
    ey2 = np.zeros(5); ey2[3] = 1.0
    mu_s = practical_mu(fam, 1, [ez, ex2, ey2], ON_C1)
    lead = {k: sp.expand(e.subs(x1, 0)) for k, e in mu_s.items()}
    lead = {k: e for k, e in lead.items() if e != 0}
    assert set(lead) == {(0, 1)}
    assert sp.expand(lead[(0, 1)] - 2 * s) == 0


# ---------------------------------------------------------------------------
# conformal limits
# ---------------------------------------------------------------------------

def test_conformal_limit_symbolic_cubic_factor():
    zeta = {TOP5: 2 * s}
    eta = {TOP5: sp.Integer(1)}
    rep = conformal_limit(zeta, eta, ON_C1, chart=R5, param="s")
    lim = rep.strata[0]
    assert lim.status == PASS
    assert lim.exponent == 1
    assert abs(lim.factor_coeff - 2.0) <= 1e-9 * 2.0
    assert rep.status == PASS


def test_conformal_limit_constant_family():
    zeta = {("x1", "y1"): sp.Integer(1)}
    rep = conformal_limit(zeta, dict(zeta), GENERIC, chart=R5, param="s")
    lim = rep.strata[0]
    assert lim.status == PASS and lim.exponent == 0
    assert abs(lim.factor_coeff - 1.0) <= 1e-12


def test_conformal_limit_pointwise_weight():
    # zeta ~ s * x1-free coefficient, eta carries an extra weight x2**2:
    # the factor separates as w(x)/s with w = x2**2 fitted pointwise
    zeta = {TOP5: s * (1 + x1**2)}
    eta = {TOP5: x2**2 * (1 + x1**2)}
    rep = conformal_limit(zeta, eta, GENERIC, chart=R5, param="s")
    lim = rep.strata[0]
    assert lim.status == PASS and lim.exponent == 1
    assert lim.factor_coeff is None
    expect = np.array([p.point[2] ** 2 for p in GENERIC])
    assert np.allclose(lim.factor_values, expect, rtol=1e-9)


def test_conformal_limit_numeric_matches_symbolic_exponent():
    def zeta(sv):
        return FormFieldNum(R5, 5, {TOP5: lambda p, sv=sv: 2.0 * sv})
    eta = FormFieldNum(R5, 5, {TOP5: lambda p: 1.0})
    rep = conformal_limit(zeta, eta, ON_C1)
    lim = rep.strata[0]
    assert lim.status == PASS
    assert lim.exponent == 1
    assert lim.r_squared > 0.999999
    assert abs(lim.factor_coeff - 2.0) <= 1e-6


def test_conformal_limit_numeric_unstable_exponent():
    def zeta(sv):
        w = 1.0 + 0.8 * math.sin(17.0 / sv)
        return FormFieldNum(R5, 5, {TOP5: lambda p, w=w, sv=sv: sv * w})
    eta = FormFieldNum(R5, 5, {TOP5: lambda p: 1.0})
    rep = conformal_limit(zeta, eta, ON_C1[:1])
    assert rep.strata[0].status == UNDETERMINED


def test_conformal_limit_component_mismatch_fails():
    zeta = {("x1", "y1"): s}
    eta = {("x1", "z"): sp.Integer(1)}
    rep = conformal_limit(zeta, eta, GENERIC, chart=R5, param="s")
    assert rep.strata[0].status == FAIL
    assert "proportionality" in rep.strata[0].message


def test_conformal_limit_negative_ratio_fails():
    zeta = {TOP5: s}
    eta = {TOP5: sp.Integer(-1)}
    rep = conformal_limit(zeta, eta, GENERIC, chart=R5, param="s")
    assert rep.strata[0].status == FAIL


# ---------------------------------------------------------------------------
# bivariate compatibility
# ---------------------------------------------------------------------------

def constant_rank2_base():
    return ConfoliationData(
        HyperplaneField.from_symbolic(R5, {"z": 1, "y2": x2}),
        table_to_field(R5, {("x1", "y1"): 1}, 2))


def test_compat_rank2_determinant_oracle():
    # constant rank-2 characteristic plane span(dx1-, dy1-duals); compare
    # the bivariate protocol against the 2x2 orientation oracle
    rng = np.random.default_rng(7)
    base_h = HyperplaneField.from_symbolic(R5, {"z": 1, "y2": x2})
    p = GENERIC[0]
    vol_anchor = base_h.alpha.wedge(base_h.dalpha).wedge(
        table_to_field(R5, {("x1", "y1"): 1}, 2))
    sigma = math.copysign(1.0, vol_anchor.components(p.point)[TOP5])
    agree = checked = 0
    for _ in range(60):
        w = rng.normal(size=(5, 5)); w = w - w.T
        m = rng.normal(size=(5, 5)); m = m - m.T
        omega = FormFieldNum(R5, 2, {
            (i, j): (lambda v: lambda q: v)(w[i, j])
            for i in range(5) for j in range(i + 1, 5)})
        mu = FormFieldNum(R5, 2, {
            (i, j): (lambda v: lambda q: v)(m[i, j])
            for i in range(5) for j in range(i + 1, 5)})
        c = ConfoliationData(base_h, omega)
        pf = PartitionedForm({1: StratumData(order=1, samples=[p], mu=mu)})
        got = compat_check(c, pf).status
        oracle = (sigma * w[0, 1] > 1e-9 and sigma * m[0, 1] > 1e-9)
        if got == UNDETERMINED:
            continue
        checked += 1
        agree += (got == PASS) == oracle
    assert checked >= 50
    assert agree == checked


def test_compat_area_forms_always_pass():
    # any two positively-oriented area forms on the rank-2 plane comply
    c = constant_rank2_base()
    mu = table_to_field(R5, {("x1", "y1"): sp.Integer(3)}, 2)
    pf = PartitionedForm({1: StratumData(order=1, samples=GENERIC, mu=mu)})
    assert compat_check(c, pf).status == PASS


def test_compat_flat_negative_constant_term():
    fam = flat_family()
    mu2 = table_to_field(R5, {("x1", "y1"): 1, ("x2", "y2"): 1}, 2)
    pf = PartitionedForm({0: StratumData(order=0, samples=GENERIC, mu=mu2)})
    v = compat_check(fam.base, pf)
    assert v.status == FAIL
    assert v.sub[0].witness is not None


# ---------------------------------------------------------------------------
# full bundles
# ---------------------------------------------------------------------------

def cubic_partition():
    return PartitionedForm({
        "C1": StratumData(order=1, samples=ON_C1,
                          mu_table={("x1", "y1"): 1},
                          zeta_table={TOP5: 2 * s},
                          eta_table={TOP5: sp.Integer(1)}),
        "C0": StratumData(order=2, samples=GENERIC),
    })


def test_approx_verdict_cubic_passes():
    rep = approx_verdict(cubic_family(), cubic_partition(), samples=GENERIC)
    assert rep.verdict.status == PASS
    assert rep.strata["C1"].exponent == 1
    assert abs(rep.strata["C1"].factor_coeff - 2.0) <= 2e-9
    assert rep.verdict.sub["item2"].status == "SKIPPED"


def test_approx_verdict_flat_fails_at_item_c():
    fam = flat_family()
    pf = PartitionedForm({
        0: StratumData(order=0, samples=GENERIC,
                       mu_table={("x1", "y1"): 1, ("x2", "y2"): 1})})
    rep = approx_verdict(fam, pf, samples=GENERIC)
    assert rep.verdict.status == FAIL
    assert rep.verdict.sub["item_c"].status == FAIL
    for key in ("base", "contact", "item1", "item_a", "item_b"):
        assert rep.verdict.sub[key].status == PASS
    assert "item (c)" in rep.verdict.message


def test_stratum_without_mu_fails_item_c():
    entry = gallery.build("r5-cubic")
    fam, pf = entry.structures["family"], entry.structures["partition"]
    bare = PartitionedForm(dict(pf.strata))
    bare.strata["C1"] = dataclasses.replace(pf.strata["C1"], mu=None,
                                            mu_table=None)
    rep = approx_verdict(fam, bare)
    assert rep.verdict.status == FAIL
    for key in ("item_a", "item_c"):
        item = rep.verdict.sub[key]
        assert item.status == FAIL
        assert item.sub["C1"].message == "stratum C1 missing mu"
    assert rep.verdict.sub["item_c"].sub["C0"].status == PASS


def test_approx_reparameterization_invariance():
    fam2 = DeformationFamily.from_table(
        R5, {"z": 1, "y1": x1**3 + 3 * s * x1, "y2": x2},
        {("x1", "y1"): 1}, param=s)
    pf = PartitionedForm({
        "C1": StratumData(order=1, samples=ON_C1,
                          mu_table={("x1", "y1"): 1},
                          zeta_table={TOP5: 6 * s},
                          eta_table={TOP5: sp.Integer(1)}),
        "C0": StratumData(order=2, samples=GENERIC)})
    rep = approx_verdict(fam2, pf, samples=GENERIC)
    assert rep.verdict.status == PASS             # status invariant
    assert abs(rep.strata["C1"].factor_coeff - 6.0) <= 6e-9   # factor scales


def test_approx_conformal_rescaling_invariance():
    # alpha_s -> e^z alpha_s: statuses unchanged, weights absorb e^z
    fam = DeformationFamily.from_table(
        R5, {"z": sp.exp(z), "y1": sp.exp(z) * (x1**3 + s * x1),
             "y2": sp.exp(z) * x2},
        {("x1", "y1"): 1}, param=s)
    pf = PartitionedForm({
        "C1": StratumData(order=1, samples=ON_C1,
                          mu_table={("x1", "y1"): 1}),
        "C0": StratumData(order=2, samples=GENERIC)})
    rep = approx_verdict(fam, pf, samples=GENERIC)
    assert rep.verdict.status == PASS
    assert rep.strata["C1"].exponent == 1
    assert rep.strata["C1"].factor_coeff is None  # weight now depends on z


def test_symbolic_and_numeric_paths_agree_on_cubic():
    fam = cubic_family()
    sym = conformal_limit({TOP5: 2 * s}, {TOP5: sp.Integer(1)}, ON_C1,
                          chart=R5, param="s").strata[0]

    def zeta_num(sv):
        a = fam.alpha_of(sv)
        from confolkit.chartfield import d_fd
        return a.wedge(d_fd(a).wedge_power(2))
    eta = FormFieldNum(R5, 5, {TOP5: lambda p: 1.0})
    num = conformal_limit(zeta_num, eta, ON_C1).strata[0]
    assert sym.status == num.status == PASS
    assert sym.exponent == num.exponent == 1
