"""Worked-example gallery.

Each entry bundles a constructor, the produced structures, and the verdict
table its checks are expected to reproduce.  Builders are deterministic for a
fixed seed; ``GalleryEntry.verify`` runs every check and reports any row
that disagrees with the expected table.  Rows that read one analysis (the
approximation bundle of a family entry, the pointwise items of
product-blob) share it: it is computed on the first run of a built entry and
reused after, so recomputing means building the entry again.  The five
deformation-family entries (r5-cubic, r5-flat-negative,
bertelson-meigniez-r5, mnw-torus, openbook-deformation) come from one
builder, ``_family_entry``, which supplies their ``approx`` and
``exponents`` rows and turns a lookup that finds nothing in the report into
a FAIL row.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .chartfield import (Chart, FormFieldNum, d_fd, sample_prefix,
                         table_to_field)
from .conetame import FAIL, PASS, SkewPair, kernel_with_tol, split_cotamed_J
from .confolcheck import (
    SKIPPED, ConfoliationData, Hermite, HyperplaneField, OpenBookProfiles,
    Profile, StableHamiltonianPair, Verdict, _norms, _xi_frames, aggregate,
    BLobData,
    blob_pointwise_check, confoliation_check, default_profiles,
    hermite_segment,
    open_book_confoliation, open_book_samples,
    order_at, profile_constraints, shs_check, transversely_exact_check)
from .approx import (
    DeformationFamily, PartitionedForm, StratumData, _family_top,
    approx_verdict, conformal_limit, stratum_eta)
from .grassmann import FormAlgebra, wedge_all


# ---------------------------------------------------------------------------
# entry plumbing
# ---------------------------------------------------------------------------

@dataclass
class GalleryEntry:
    """A named example with its expected check table.

    ``checks`` maps each row label to a zero-argument callable returning a
    Verdict; ``expected`` fixes the status every row must reproduce, and the
    row order.  ``structures`` exposes the built objects for reuse; a
    builder's seed is one of the ``params``.
    Rows reading one shared analysis compute it once per built entry: a
    second run reuses it, and a fresh ``build`` recomputes it.  The
    deformation-family entries are made by ``_family_entry``.
    """

    name: str
    params: dict
    structures: dict
    expected: dict
    checks: dict = field(default_factory=dict, repr=False)
    notes: tuple = ()

    def run(self):
        """Label -> status of every row, in table order."""
        return {label: v.status for label, v in self.run_verdicts().items()}

    def run_verdicts(self):
        return {label: self.checks[label]() for label in self.expected}

    def verify(self):
        got = self.run()
        bad = {k: (self.expected[k], got.get(k)) for k in self.expected
               if got.get(k) != self.expected[k]}
        return not bad, got, bad

    def to_cfl(self):
        parts = [f"gallery {self.name}"]
        for k, v in self.params.items():
            parts.append(f"{k}={v}")
        return " ".join(parts) + "\n"


_BUILDERS = {}


def register(name):
    def deco(fn):
        _BUILDERS[name] = fn
        return fn
    return deco


def names():
    return tuple(_BUILDERS)


def build(name, **params):
    if name not in _BUILDERS:
        raise KeyError(f"unknown gallery entry {name!r}")
    return _BUILDERS[name](**params)


def jittered(entry, rel=0.01):
    """Rebuild ``entry`` with every float parameter scaled by 1+rel."""
    params = {k: v * (1.0 + rel) if isinstance(v, float) else v
              for k, v in entry.params.items()}
    return build(entry.name, **params)


def _bool_verdict(ok, margins=None, message=""):
    return Verdict(PASS if ok else FAIL, margins or {}, None, message)


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------

_x1, _y1, _x2, _y2, _z, _s = sp.symbols("x1 y1 x2 y2 z s")
_TOP5 = (0, 1, 2, 3, 4)


def _r5_chart():
    return Chart(("x1", "y1", "x2", "y2", "z"), tuple(((-1.0, 1.0),) * 5))


def _pts(*rows):
    return np.array(rows, dtype=float)


def _exponent_agreement(fam, pf, rep=None):
    """Symbolic and numeric conformal limits must agree on the leading
    exponent (and both pass) on every non-contact stratum.  The symbolic
    lane is item (b) of the ``approx_verdict`` report ``rep`` (computed when
    not given); a stratum missing from it FAILs.  Only the numeric lane
    runs here."""
    if rep is None:
        rep = approx_verdict(fam, pf)
    sub = {}
    for lab, sd in pf.strata.items():
        if 2 * sd.order + 3 > fam.chart.dim:
            continue                    # contact stratum: no conformal limit
        ls = rep.strata.get(lab)
        if ls is None:
            sub[lab] = Verdict(FAIL, message=f"stratum {lab}: no symbolic "
                               "limit in item (b)")
            continue
        ln = conformal_limit(_family_top(fam, sd.order), stratum_eta(fam, sd),
                             sd.samples, order=sd.order).strata[0]
        ok = (ls.status == PASS and ln.status == PASS
              and ls.exponent == ln.exponent)
        sub[lab] = _bool_verdict(ok, {"symbolic": ls.exponent,
                                      "numeric": ln.exponent},
                                 f"stratum {lab}: exponents "
                                 f"{ls.exponent} / {ln.exponent}")
    return Verdict(aggregate(sub), sub=sub,
                   message="symbolic and numeric leading exponents agree")


def _factor_row(lim, coeff, tol):
    """A stratum limit with exponent 1 and constant factor ``coeff``."""
    ok = (lim.status == PASS and lim.exponent == 1
          and lim.factor_coeff is not None
          and abs(lim.factor_coeff - coeff) <= tol)
    return _bool_verdict(ok, {"exponent": lim.exponent,
                              "factor_coeff": lim.factor_coeff},
                         _factor_message(lim.exponent, lim.factor_coeff))


def _factor_message(exponent, coeff):
    if coeff is None:
        return "pointwise conformal weight (no constant factor)"
    p = "s" if exponent == 1 else f"s^{exponent}"
    if coeff == 1.0:
        return f"F_s = 1/{p}"
    return f"F_s = 1/({coeff:g}{p})"


def _family_entry(name, params, fam, pf, expected, reads, checks=None,
                  notes=(), structures=None, **approx_kw):
    """A deformation-family entry.

    Its ``approx_verdict(fam, pf, **approx_kw)`` report is computed at most
    once per built entry, by the first row that reads it.  The builder
    supplies the ``approx`` row (the report's verdict) and the ``exponents``
    row; ``reads`` maps the entry's other report rows to callables of the
    report, and ``checks`` its rows that do not read it.  ``expected`` fixes
    the table and its order.  A ``reads`` row whose lookup finds no stratum
    or sub-verdict (an early FAIL has neither) FAILs naming it.
    """
    report = functools.cache(lambda: approx_verdict(fam, pf, **approx_kw))

    def row(read):
        def check():
            rep = report()
            try:
                return read(rep)
            except KeyError as exc:
                return Verdict(FAIL, message=f"stratum {exc.args[0]}: no "
                               "symbolic limit in item (b)")
        return check

    return GalleryEntry(
        name=name, params=params,
        structures={"family": fam, "partition": pf, **(structures or {})},
        expected=expected,
        checks={"approx": lambda: report().verdict,
                "exponents": lambda: _exponent_agreement(fam, pf, report()),
                **(checks or {}),
                **{lab: row(read) for lab, read in reads.items()}},
        notes=notes)


# ---------------------------------------------------------------------------
# symbolic identity helpers (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def open_book_contact_identity(n):
    """alpha ^ dalpha^n for alpha = f*lam + g*dtheta near a binding.

    The derived coefficient is n * f^(n-1) * (f g' - g f'); the factorial
    variant (n! in place of n) agrees only for n <= 2.
    """
    alg = FormAlgebra(top_degree=2 * n + 1, block_caps={"B": 2 * n - 1})
    lam = alg.generator("lam", 1, block="B")
    r, dr = alg.coordinate("r")
    _, dth = alg.coordinate("theta")
    f = sp.Function("f")(r)
    g = sp.Function("g")(r)
    top = (lam * f + dth * g)
    top = top.wedge(top.d().wedge_power(n))
    dlam = alg.form("dlam")
    W = f * sp.diff(g, r) - g * sp.diff(f, r)
    vol = wedge_all(lam, dlam.wedge_power(n - 1), dr, dth)
    derived = vol * (n * f ** (n - 1) * W)
    factorial_variant = vol * (math.factorial(n) * f ** (n - 1) * W)
    return {
        "n": n,
        "derived": top.equals(derived) is True,
        "factorial_variant": top.equals(factorial_variant) is True,
        "note": "coefficient is n*f^(n-1)*(fg'-gf'); the n! variant only "
                "matches for n <= 2",
    }


def open_book_taming_identity():
    """Double contraction of dalpha and Omega against X, JX in the binding
    collar model alpha = f*alB + g*dtheta, J = J_B (+) rotation.

    q_da and q_om stand for dalpha_B(v_B, J_B v_B) and Omega_B(v_B, J_B v_B);
    the a^2 block of the quoted dalpha formula has a sign slip and misses an
    overall f on the base term, while the Omega formula is exact.
    """
    alg = FormAlgebra()
    DalB = alg.generator("DalB", 2, d=None)
    OmB = alg.generator("OmB", 2, d=None)
    alB = alg.generator("alB", 1, d=DalB)
    VX = alg.generator("VX", 1, d=None)
    WX = alg.generator("WX", 1, d=None)
    r, dr = alg.coordinate("r")
    _, dth = alg.coordinate("theta")
    f, g, h, el = (sp.Function(nm)(r) for nm in ("f", "g", "h", "l"))
    fp, gp, lp = (sp.diff(e, r) for e in (f, g, el))
    a, b = sp.symbols("a b", real=True)
    q_da, q_om = sp.symbols("q_da q_om", real=True)

    alpha = alB * f + dth * g
    i_x = {"dr": a, "alB": -b * g, "dtheta": b * f, "DalB": VX, "OmB": WX}
    i_jx = {"dr": -b, "alB": -a * g, "dtheta": a * f, "VX": q_da, "WX": q_om}

    da_xjx = alpha.d().contract(i_x).contract(i_jx)
    derived = f * q_da + (a ** 2 + b ** 2) * (f * gp - g * fp)
    displayed = q_da - a ** 2 * (g * fp + f * gp) + b ** 2 * (-g * fp + f * gp)

    Om = OmB + dr.wedge(dth) * h - dr.wedge(alB) * lp - DalB * el
    om_xjx = Om.contract(i_x).contract(i_jx)
    om_formula = (q_om - el * q_da) + (a ** 2 + b ** 2) * (g * lp + f * h)
    return {
        "dalpha_derived": da_xjx.equals(alg.scalar_form(derived)) is True,
        "dalpha_quoted": da_xjx.equals(alg.scalar_form(displayed)) is True,
        "omega_exact": om_xjx.equals(alg.scalar_form(om_formula)) is True,
        "note": "dalpha(X,JX) = f*q_da + (a^2+b^2)(fg'-gf'); the variant with "
                "-a^2(gf'+fg') and a bare q_da does not hold",
    }


def mnw_volume_identity(n, k=1):
    """ds ^ (a*omega + b*mu)^(n+1) on the twisted torus model.

    Derived value: (-1)^n (n+1)! a (a+b)^n times the full volume form
    ds^dth0^dt^dt1^dth1^...; the (a+b)^(n-1) variant without the dt leg is
    not even top degree and fails.
    """
    alg = FormAlgebra(top_degree=2 * n + 3)
    s, ds = alg.coordinate("s")
    _, dt = alg.coordinate("t")
    _, dth0 = alg.coordinate("th0")
    pairs = []
    for i in range(1, n + 1):
        ti, dti = alg.coordinate(f"t{i}")
        _, dthi = alg.coordinate(f"th{i}")
        pairs.append((ti, dti, dthi))
    E = sp.exp(sum(p[0] for p in pairs))
    omega = dth0.wedge(dt) * E
    mu = alg.zero()
    for ti, dti, dthi in pairs:
        omega = omega - dti.wedge(dthi) * sp.exp(-ti)
        mu = mu - dti.wedge(dthi) * sp.exp(-ti) \
            + dti.wedge(dth0) * (sp.cos(k * s) * E)
    a, b = sp.symbols("a b", positive=True)
    lhs = ds.wedge((omega * a + mu * b).wedge_power(n + 1))
    legs = [w for p in pairs for w in (p[1], p[2])]
    vol = wedge_all(ds, dth0, dt, *legs)
    coeff = (-1) ** n * math.factorial(n + 1) * a
    derived = vol * (coeff * (a + b) ** n)
    short_vol = wedge_all(ds, dth0, *legs)
    quoted = short_vol * (coeff * (a + b) ** (n - 1))
    return {
        "n": n,
        "derived": lhs.equals(derived) is True,
        "quoted_variant": lhs.equals(quoted) is True,
        "note": "power is (a+b)^n and the volume keeps the dt leg; the "
                "(a+b)^(n-1) variant without dt has the wrong degree",
    }


def bourgeois_brackets(n):
    """Wedge-power bookkeeping for beta_t = alpha + t(phi1 dx - phi2 dy).

    The top power is n+1; every surviving top monomial carries exactly t^2,
    with multipliers ((n+1)n, n+1).  The multiplier pair (n(n-1), n) is the
    one quoted in grouped displays: it belongs to wedge power n, with the
    dalpha exponents transposed to (n-2, n-1).
    """
    alg = FormAlgebra(top_degree=2 * n + 3,
                      block_caps={"M": 2 * n + 1, "T": 2})
    alpha = alg.generator("alpha", 1, block="M")
    dalpha = alg.form("dalpha")
    dphi1 = alg.generator("dphi1", 1, d=None, block="M")
    dphi2 = alg.generator("dphi2", 1, d=None, block="M")
    phi1, phi2 = sp.symbols("phi1 phi2", real=True)
    alg.scalar_differential(phi1, dphi1)
    alg.scalar_differential(phi2, dphi2)
    _, dx = alg.coordinate("x", block="T")
    _, dy = alg.coordinate("y", block="T")
    t = sp.Symbol("t", positive=True)

    beta = alpha + dx * (t * phi1) - dy * (t * phi2)
    pairing = dphi2 * phi1 - dphi1 * phi2
    top = beta.wedge(beta.d().wedge_power(n + 1))
    ex_top = top.expand_in_param(t)
    target_top = \
        wedge_all(alpha, dalpha.wedge_power(n - 1), dphi1, dphi2, dx, dy) \
        * ((n + 1) * n) \
        + wedge_all(dalpha.wedge_power(n), pairing, dx, dy) * (n + 1)

    mid = beta.wedge(beta.d().wedge_power(n))
    ex_mid = mid.expand_in_param(t)
    target_mid = \
        wedge_all(alpha, dalpha.wedge_power(n - 2), dphi1, dphi2, dx, dy) \
        * (n * (n - 1)) \
        + wedge_all(dalpha.wedge_power(n - 1), pairing, dx, dy) * n
    return {
        "n": n,
        "top_power": n + 1,
        "powers_at_top": ex_top.powers(),
        "top_matches": ex_top.coefficient(2).equals(target_top) is True,
        "quoted_multiplier_index": n,
        "index_matches": ex_mid.coefficient(2).equals(target_mid) is True,
        "top_multipliers": ((n + 1) * n, n + 1),
        "quoted_multipliers": (n * (n - 1), n),
    }


def mori_identities():
    """The five-dimensional interpolation computation, verified exactly.

    Works in the coframe nu, eta, gamma (deta = gamma ^ nu, dnu = 0) plus an
    abstract area form om of the same fiber block, with drho, dtheta.  Returns
    equality and positivity results together with the grouped variants and
    their defect count.
    """
    alg = FormAlgebra(top_degree=5, block_caps={"N": 3})
    nu = alg.generator("nu", 1, d=None, block="N")
    gamma = alg.generator("gamma", 1, d=None, block="N")
    eta = alg.generator("eta", 1, d=gamma.wedge(nu), block="N")
    om = alg.generator("om", 2, block="N")
    rho, drho = alg.coordinate("rho")
    _, dth = alg.coordinate("theta")
    t, s, delta = sp.symbols("t s delta", real=True)
    b, f, g, g0, gt, h = (sp.Function(nm)(rho)
                          for nm in ("b", "f", "g", "g0", "gt", "h"))

    def Dr(e):
        return sp.diff(e, rho)

    f0 = b * f
    ft = ((1 - t) * b + t) * f
    Kt = f0 * Dr(gt) - gt * Dr(f0)
    Lt = ft * Dr(gt) - gt * Dr(ft)

    alpha_t = nu * ((1 - t) * f0) + eta * (t * ft) + dth * gt \
        + drho * ((1 - t) * h)
    da_t = alpha_t.d()
    da_display = drho.wedge(nu * ((1 - t) * Dr(f0)) + eta * (t * Dr(ft))
                            + dth * Dr(gt)) + gamma.wedge(nu) * (t * ft)

    mu_t = alpha_t.wedge(da_t).contract(
        {"nu": f0, "dtheta": g0, "drho": h})
    mu_hand = (
        drho.wedge(eta) * (-(1 - t) * t ** 2 * b * Dr(b) * f ** 3
                           - t * g0 * Lt)
        + drho.wedge(dth) * ((1 - t) * f0 * Kt)
        + nu.wedge(eta) * ((1 - t) * t ** 2 * h * Dr(b) * f ** 2)
        + dth.wedge(nu) * ((1 - t) * h * Kt)
        + nu.wedge(drho) * ((1 - t) * g0 * Kt)
        + eta.wedge(dth) * (-t * h * Lt)
        + eta.wedge(gamma) * (t ** 2 * f0 * ft ** 2)
        + dth.wedge(gamma) * (t * f0 * gt * ft)
        + gamma.wedge(nu) * (t * g0 * gt * ft + (1 - t) * t * h ** 2 * ft)
        + drho.wedge(gamma) * ((1 - t) * t * h * f0 * ft))
    mu_grouped = (
        drho.wedge(eta) * (-((1 - t) * t * f ** 3 * b * Dr(b)
                             + t * g0 * Lt))
        + drho.wedge(dth) * ((1 - t) * f0 * Kt)
        + gamma.wedge(nu) * ((1 - t) * t * ft * (f0 ** 2 + h ** 2)
                             + t * g0 * gt * ft + t * (1 - t) * f0 * ft)
        + nu.wedge(drho) * ((1 - t) * g0 * Kt)
        + nu.wedge(eta) * ((1 - t) * t ** 2 * h * Dr(b) * f ** 2)
        + dth.wedge(nu) * ((1 - t) * h * Kt)
        + eta.wedge(gamma) * (t ** 2 * ft ** 2)
        + dth.wedge(gamma) * (t * gt * ft))
    defect_monomials = len((mu_grouped - mu_t).terms())

    tau = drho.wedge(eta) * Dr(f) + drho.wedge(dth) * Dr(g) \
        + gamma.wedge(nu) * f + (dth.wedge(nu) * h + om) * delta
    alpha0 = nu * f0 + dth * g0 + drho * h
    P = mu_t * s + tau
    lhs = alpha0.wedge(P.wedge(P))

    A = s * (1 - t) * f0 * Kt + Dr(g)
    Bt = s * ((1 - t) * t ** 2 * b * Dr(b) * f ** 3 + t * g0 * Lt) - Dr(f)
    Ct = s * (t * g0 * gt * ft + (1 - t) * t * h ** 2 * ft) + f
    V1 = (2 * s * t * f0 ** 2 * gt * ft * Bt
          + 2 * s * t ** 2 * f0 ** 2 * ft ** 2 * A
          + 2 * s ** 2 * (1 - t) * t ** 2 * h ** 2 * f0 ** 2 * ft * Lt
          + 2 * g0 * Bt * Ct
          - 2 * s ** 2 * (1 - t) ** 2 * t ** 3 * g0 * h ** 2
          * b * Dr(b) * f ** 3 * ft
          + 2 * s ** 2 * (1 - t) * t ** 2 * g0 ** 2 * Kt * f0 * ft ** 2
          + 2 * s ** 2 * (1 - t) * t ** 3 * h ** 2 * b * Dr(b)
          * f ** 3 * gt * ft
          + 2 * s * t ** 2 * f0 * ft ** 2 * h ** 2 * (s * (1 - t) * Kt + delta)
          + 2 * s * t * h ** 2 * Lt * Ct)
    Vnu = 2 * f0 * delta * A + 2 * s * (1 - t) * g0 ** 2 * Kt * delta \
        + 2 * delta * h ** 2 * (s * (1 - t) * Kt + delta)
    Veta = 2 * g0 * delta * Bt + 2 * delta * s * t * h ** 2 * Lt
    Vgamma = 2 * delta * s * t * h * f0 * ft * (gt - (1 - t) * g0)
    rhs = wedge_all(drho, dth, eta, gamma, nu) * V1 \
        + wedge_all(drho, dth, nu, om) * Vnu \
        + wedge_all(drho, dth, eta, om) * Veta \
        + wedge_all(drho, dth, gamma, om) * Vgamma

    pos = _mori_positive()
    return {
        "dalpha": da_t.equals(da_display) is True,
        "mu_expansion": mu_t.equals(mu_hand) is True,
        "mu_defect_monomials": defect_monomials,
        "top_expansion": lhs.equals(rhs) is True,
        "positivity": all(pos),
        "structures": {"algebra": alg, "alpha_t": alpha_t, "mu_t": mu_t,
                       "mu_grouped": mu_grouped, "tau": tau, "lhs": lhs},
    }


def _mori_positive():
    """A, B, C strictly positive under the declared profile signs
    (f > 0, f' < 0, g' > 0, everything else nonnegative, 0 < t < 1)."""
    s, t, u, dlt = sp.symbols("s t u delta", positive=True)   # u = 1 - t
    f, fp, gp = sp.symbols("f fp gp", positive=True)          # fp = -f'
    b, bp, g0, gt, Kt, Lt, h = sp.symbols("b bp g0 gt Kt Lt h",
                                          nonnegative=True)
    ft = (u * b + t) * f
    A = s * u * b * f * Kt + gp
    B = s * (u * t ** 2 * b * bp * f ** 3 + t * g0 * Lt) + fp
    C = s * (t * g0 * gt * ft + u * t * h ** 2 * ft) + f
    return (A.is_positive is True, B.is_positive is True,
            C.is_positive is True)


# ---------------------------------------------------------------------------
# flat deformation examples on a five-dimensional chart
# ---------------------------------------------------------------------------

@register("r5-cubic")
def _build_r5_cubic(s_probe=0.25, seed=0):
    chart = _r5_chart()
    fam = DeformationFamily.from_table(
        chart, {"z": 1, "y1": _x1 ** 3 + _s * _x1, "y2": _x2},
        {("x1", "y1"): 1}, param="s")
    on_c1 = _pts((0.0, 0.3, 0.2, -0.4, 0.1),
                 (0.0, -0.5, -0.3, 0.25, 0.0),
                 (0.0, 0.1, 0.45, 0.35, -0.2))
    generic = _pts((0.5, -0.3, 0.2, 0.4, 0.1),
                   (-0.6, 0.2, -0.1, 0.3, -0.2),
                   (0.35, 0.15, 0.55, -0.25, 0.05))
    pf = PartitionedForm({
        "C1": StratumData(order=1, samples=on_c1,
                          mu_table={("x1", "y1"): 1},
                          zeta_table={_TOP5: 2 * _s},
                          eta_table={_TOP5: sp.Integer(1)}),
        "C0": StratumData(order=2, samples=generic),
    })

    return _family_entry(
        "r5-cubic", {"s_probe": s_probe, "seed": seed}, fam, pf,
        {"approx": PASS, "factor": PASS, "exponents": PASS},
        {"factor": lambda rep: _factor_row(rep.strata["C1"], 2.0, 2.0e-9)},
        notes=("the top form is (6*x1^2 + 2*s) vol, so the degenerate locus "
               "x1 = 0 carries conformal factor 1/(2s)",),
        s_probe=s_probe, seed=seed)


@register("r5-flat-negative")
def _build_r5_flat(s_probe=0.25, seed=0):
    chart = _r5_chart()
    fam = DeformationFamily.from_table(
        chart, {"z": 1, "y1": _s * _x1, "y2": _s * _x2},
        {("x1", "x2"): 1, ("y1", "y2"): 1}, param="s")
    generic = _pts((0.5, -0.3, 0.2, 0.4, 0.1),
                   (-0.6, 0.2, -0.1, 0.3, -0.2),
                   (0.35, 0.15, 0.55, -0.25, 0.05))
    pf = PartitionedForm({
        "foliation": StratumData(order=0, samples=generic,
                                 mu_table={("x1", "y1"): 1,
                                           ("x2", "y2"): 1})})

    def failing_item(rep):
        sub = rep.verdict.sub
        ok = (rep.verdict.status == FAIL
              and sub["item_c"].status == FAIL
              and all(sub[k].status == PASS for k in
                      ("base", "contact", "item1", "item_a", "item_b"))
              and "item (c)" in rep.verdict.message)
        return _bool_verdict(ok, {}, "only item (c) fails, with a witness")

    return _family_entry(
        "r5-flat-negative", {"s_probe": s_probe, "seed": seed}, fam, pf,
        {"approx": FAIL, "failing-item": PASS, "exponents": PASS},
        {"failing-item": failing_item},
        notes=("the proposed cone direction dx1^dx2 + dy1^dy2 pairs "
               "negatively with the volume: the compatibility polynomial has "
               "constant term -2",),
        samples=generic, s_probe=s_probe, seed=seed)


@register("bertelson-meigniez-r5")
def _build_bm(lam_scale=1.0, seed=0):
    chart = _r5_chart()
    c = sp.Float(lam_scale) if lam_scale != 1.0 else sp.Integer(1)
    fam = DeformationFamily.from_table(
        chart, {"z": 1, "y1": _s * c * _x1, "y2": _s * c * _x2},
        {("x1", "y1"): 1, ("x2", "y2"): 1}, param="s")
    generic = _pts((0.5, -0.3, 0.2, 0.4, 0.1),
                   (-0.4, 0.25, -0.15, 0.3, -0.2),
                   (0.3, 0.1, 0.5, -0.3, 0.15))
    pf = PartitionedForm({
        "foliation": StratumData(order=0, samples=generic,
                                 mu_table={("x1", "y1"): c,
                                           ("x2", "y2"): c})})

    return _family_entry(
        "bertelson-meigniez-r5", {"lam_scale": lam_scale, "seed": seed},
        fam, pf, {"approx": PASS, "factor": PASS, "exponents": PASS},
        {"factor": lambda rep: _factor_row(rep.strata["foliation"], 1.0,
                                           1e-9)},
        notes=("linear deformation of the closed-kernel foliation dz = 0 by "
               "the primitive x1 dy1 + x2 dy2; mu is its differential and "
               "the conformal factor is 1/s",),
        samples=generic, seed=seed)


# ---------------------------------------------------------------------------
# branched cover of the standard contact ball
# ---------------------------------------------------------------------------

@register("branched-cover-r3")
def _build_branched_cover(k=2, eps=1.0, seed=0):
    chart = Chart(("z", "r", "theta"),
                  ((-1.0, 1.0), (0.05, 1.0), (0.0, 2 * math.pi)),
                  periodic=("theta",))
    rr = sp.Symbol("r")
    e = sp.Float(eps) if eps != 1.0 else sp.Integer(1)
    fam = DeformationFamily.from_table(
        chart, {"z": 1, "theta": k * rr ** 2 + _s * e * rr ** 2},
        {("r", "theta"): 2 * k * rr}, param="s")
    small_r = _pts((0.1, 0.05, 1.0), (-0.3, 0.08, 2.5),
                   (0.4, 0.12, 4.2), (0.0, 0.2, 0.7))
    bulk = sample_prefix(chart, 3, seed, 12)
    pf = PartitionedForm({
        "bulk": StratumData(order=1, samples=bulk)})
    zt = {(0, 1, 2): 2 * _s * e * rr}
    et = {(0, 1, 2): 2 * rr}

    def contact_family_check():
        h1 = fam.base
        points = np.concatenate([bulk, small_r])
        bad = []
        for sv in (0.25, 0.5, 1.0):
            res = order_at(fam.hyperplane_at(sv), points, h1.tau_rank)
            bad += [(sv, p) for p, r in zip(points, res) if r.k != 1]
        return _bool_verdict(not bad, {"checked": 3 * len(points)},
                             "pullback family is contact for s in (0, 1]")

    def conformal_limit_check():
        ls = conformal_limit(zt, et, small_r, chart=chart, param="s",
                             order=1).strata[0]
        base_a = fam.alpha_of(0.0)
        base_top = base_a.wedge(d_fd(base_a))

        def zfun(sv):
            a = fam.alpha_of(sv)
            return a.wedge(d_fd(a)) - base_top

        eta_num = table_to_field(chart, et)
        ln = conformal_limit(zfun, eta_num, small_r, order=1).strata[0]
        ok = (ls.status == PASS and ln.status == PASS
              and ls.exponent == ln.exponent == 1
              and ls.factor_coeff is not None
              and abs(ls.factor_coeff - eps) <= 1e-6 * eps)
        return _bool_verdict(ok, {"exponent": ls.exponent,
                                  "factor_coeff": ls.factor_coeff},
                             "difference from the pullback is s*eps times "
                             "twice the pullback form wedge r dr dtheta")

    return GalleryEntry(
        name="branched-cover-r3", params={"k": k, "eps": eps, "seed": seed},
        structures={"family": fam, "partition": pf},
        expected={"approx": PASS, "contact-family": PASS,
                  "conformal-limit": PASS},
        checks={"approx": lambda: approx_verdict(fam, pf, samples=bulk,
                                                 seed=seed).verdict,
                "contact-family": contact_family_check,
                "conformal-limit": conformal_limit_check},
        notes=(f"local model dz + r^2 dphi pulled back under phi = "
               f"{k}*theta, then pushed by s*eps*r^2 dtheta; the base is "
               "already contact away from the branch axis",))


# ---------------------------------------------------------------------------
# twisted torus family
# ---------------------------------------------------------------------------

@register("mnw-torus")
def _build_mnw(n=1, k=1, seed=0):
    names_ = ("s", "t", "th0") + tuple(
        x for i in range(1, n + 1) for x in (f"t{i}", f"th{i}"))
    boxes, periodic = [], []
    for nm in names_:
        if nm.startswith("t") and nm[1:].isdigit():
            boxes.append((-0.5, 0.5))
        else:
            boxes.append((0.0, 2 * math.pi))
            periodic.append(nm)
    chart = Chart(names_, tuple(boxes), periodic=tuple(periodic))

    ss = sp.Symbol("s")
    par = sp.Symbol("r")
    tis = [sp.Symbol(f"t{i}") for i in range(1, n + 1)]
    E = sp.exp(sum(tis))
    table = {"s": 1, "th0": par * sp.cos(k * ss) * E,
             "t": par * sp.sin(k * ss)}
    mu_tab, om_tab = {}, {("t", "th0"): -E}
    for i, ti in enumerate(tis, start=1):
        table[f"th{i}"] = par * sp.exp(-ti)
        mu_tab[("th0", f"t{i}")] = -sp.cos(k * ss) * E
        mu_tab[(f"t{i}", f"th{i}")] = -sp.exp(-ti)
        om_tab[(f"t{i}", f"th{i}")] = -sp.exp(-ti)
    fam = DeformationFamily.from_table(chart, table, om_tab, param="r")

    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(4):
        p = [rng.uniform(0.3, 6.0), rng.uniform(0.3, 6.0),
             rng.uniform(0.3, 6.0)]
        for __ in range(n):
            p.extend([rng.uniform(-0.45, 0.45), rng.uniform(0.3, 6.0)])
        samples.append(p)
    samples = np.array(samples)
    pf = PartitionedForm({
        "pages": StratumData(order=0, samples=samples, mu_table=mu_tab)})

    def identity_check():
        res = mnw_volume_identity(n, k=k)
        return _bool_verdict(res["derived"] and not res["quoted_variant"],
                             {}, res["note"])

    return _family_entry(
        "mnw-torus", {"n": n, "k": k, "seed": seed}, fam, pf,
        {"approx": PASS, "factor": PASS, "volume-identity": PASS,
         "exponents": PASS},
        {"factor": lambda rep: _factor_row(rep.strata["pages"], 1.0, 1e-9)},
        {"volume-identity": identity_check},
        notes=("coherent model: alpha_pm = +-e^(sum t) dth0 + sum e^(-ti) "
               "dthi; mu uses cos(k s) so the family stays invariant under "
               "the torus action",),
        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# open book constructions
# ---------------------------------------------------------------------------

def _openbook_entry(name, n, delta, seed, note):
    pair = open_book_confoliation(n, delta=delta)
    count = 14 if n == 1 else 10
    samples = open_book_samples(pair, count=count, seed=seed)
    c = ConfoliationData(pair.h, pair.Omega)

    def confoliation():
        return confoliation_check(c, samples)

    def split_at(xi, mu, da):
        mu_xi, da_xi = xi.T @ mu @ xi, xi.T @ da @ xi
        K = kernel_with_tol(da_xi)
        if K.status != PASS:
            return K.status, "kernel extraction"
        _, status = split_cotamed_J(SkewPair(mu_xi, da_xi), K.subspace)
        return status, "no split cotamed J"

    def cotamed():
        # the forms on all samples at once, the xi frames from one stacked
        # SVD; the verdict, not numpy's warnings, reports an overflow or a nan
        with np.errstate(all="ignore"):
            A, MU, DA = (f.eval_at(samples)
                         for f in (pair.h.alpha, pair.Omega, pair.h.dalpha))
            na = _norms(A)
            ok = (na < np.inf) & (na >= 1e-12)
            B = _xi_frames(np.where(ok[:, None], A, np.eye(A.shape[1])[0]))
        worst = None
        for i, p in enumerate(samples):
            try:
                with np.errstate(all="ignore"):
                    # where ker(alpha) is no hyperplane, xi_basis raises
                    # alpha_at's ValueError
                    xi = B[i] if ok[i] else pair.h.xi_basis(p).basis
                    status, why = split_at(xi, MU[i], DA[i])
            except (np.linalg.LinAlgError, ValueError) as exc:
                return Verdict(FAIL, {}, p,
                               f"split cotamed J breaks down: {exc}")
            if status != PASS:
                return Verdict(status, {}, p, why)
            worst = status
        return Verdict(worst or FAIL, {"samples": len(samples)}, None,
                       "split cotamed J at every sample")

    def shs():
        return shs_check(StableHamiltonianPair(pair.h.alpha, pair.Omega,
                                               pair.chart), samples[:8])

    def residual():
        res = pair.profile_verdict.margins["shs_residual"]
        return _bool_verdict(res < 1e-9, {"residual": res},
                             "stable Hamiltonian residual -h f' - l' g'")

    def taming():
        res = open_book_taming_identity()
        ok = (res["dalpha_derived"] and res["omega_exact"]
              and not res["dalpha_quoted"])
        return _bool_verdict(ok, {}, res["note"])

    return GalleryEntry(
        name=name, params={"delta": delta, "seed": seed},
        structures={"pair": pair, "confoliation": c, "samples": samples},
        expected={"profiles": PASS, "confoliation": PASS, "cotamed-J": PASS,
                  "shs": PASS, "shs-residual": PASS, "taming-identity": PASS},
        checks={"profiles": lambda: pair.profile_verdict,
                "confoliation": confoliation, "cotamed-J": cotamed,
                "shs": shs, "shs-residual": residual,
                "taming-identity": taming},
        notes=(note,))


@register("openbook-solid-torus")
def _build_ob1(delta=1.0, seed=0):
    return _openbook_entry(
        "openbook-solid-torus", 1, delta, seed,
        "page an annulus, binding a circle: the radial profiles give a "
        "confoliation that is also a stable Hamiltonian structure")


@register("openbook-s3-binding")
def _build_ob2(delta=1.0, seed=0):
    return _openbook_entry(
        "openbook-s3-binding", 2, delta, seed,
        "binding a three-sphere seen in coordinates (eta, phi1, phi2); same "
        "profile functions, one dimension up")


@register("openbook-deformation")
def _build_ob_deformation(delta=1.0, seed=0):
    d1, a, bb, d2 = (0.15 * delta, 0.3 * delta, 0.6 * delta, 0.8 * delta)
    base = default_profiles(delta)
    r = sp.Symbol("r")
    rim = sp.exp(delta / 2 - d2)
    f1 = sp.Piecewise(
        (sp.Integer(1), r <= a),
        (hermite_segment(a, d2, 1, 0, rim, -rim), r <= d2),
        (sp.exp(delta / 2 - r), True))
    g1 = sp.Piecewise(
        (r ** 2, r <= d1),
        (hermite_segment(d1, d2, d1 ** 2, 2 * d1, 1, 0), r <= d2),
        (sp.Integer(1), True))
    # monotone replacement tail for l: keeps l' > 0 and l < 1, which is all
    # the compatibility argument uses
    half = sp.Rational(1, 2)
    l_prof = Profile((d1, a, bb),
                     ((0,), Hermite(d1, a, 0, 0, a / 2, half), (0, half),
                      Hermite(bb, delta, bb / 2, half, 0.45 * delta, 0.25)))
    f0, g0, h = base.f.expr, base.g.expr, base.h.expr
    profiles = OpenBookProfiles(base.f, base.g, base.h, l_prof, delta)

    chart = Chart(("x", "r", "theta"),
                  ((0.0, 2 * math.pi), (0.02 * delta, 1.0 * delta),
                   (0.0, 2 * math.pi)),
                  periodic=("x", "theta"))
    fs = (1 - _s) * f0 + _s * f1
    gs = (1 - _s) * g0 + _s * g1
    lp = sp.diff(l_prof.expr, r)
    fam = DeformationFamily.from_table(
        chart, {"x": fs, "theta": gs},
        {("r", "theta"): h, ("x", "r"): lp}, param="s")

    def at(*rvs):
        return np.array([[1.1, rv * delta, 2.3] for rv in rvs])

    fhat = (1 - _s) + _s * f1
    ghat = _s * g1
    ftil = _s * f1
    gtil = (1 - _s) + _s * g1
    pf = PartitionedForm({
        "g0-zero": StratumData(
            order=0, samples=at(0.05, 0.12, 0.2, 0.28),
            mu_table={("r", "theta"): f0 * sp.diff(g1, r) * r},
            zeta_table={(0, 1, 2): fhat * sp.diff(ghat, r)
                        - ghat * sp.diff(fhat, r)},
            eta_table={(0, 1, 2): sp.diff(g1, r) * r}),
        "band": StratumData(order=1, samples=at(0.35, 0.45, 0.55)),
        "f0-zero": StratumData(
            order=0, samples=at(0.65, 0.72, 0.85, 0.95),
            mu_table={("x", "r"): -sp.diff(f1, r)},
            zeta_table={(0, 1, 2): ftil * sp.diff(gtil, r)
                        - gtil * sp.diff(ftil, r)},
            eta_table={(0, 1, 2): -sp.diff(f1, r)}),
    })

    def factors(rep):
        g0z = rep.strata["g0-zero"]
        f0z = rep.strata["f0-zero"]
        rs = pf.strata["g0-zero"].samples[:, 1]
        ok = (g0z.status == PASS and g0z.exponent == 1
              and g0z.factor_coeff is None
              and np.allclose(g0z.factor_values, rs, atol=1e-7)
              and f0z.status == PASS and f0z.exponent == 1
              and f0z.factor_coeff is not None
              and abs(f0z.factor_coeff - 1.0) <= 1e-9)
        return _bool_verdict(
            ok, {"g0_zero_values": list(map(float, g0z.factor_values)),
                 "f0_zero_coeff": f0z.factor_coeff},
            "F_s = r/s near the binding, 1/(s g_s) near the rim")

    return _family_entry(
        "openbook-deformation", {"delta": delta, "seed": seed}, fam, pf,
        {"profiles": PASS, "approx": PASS, "factors": PASS,
         "exponents": PASS},
        {"factors": factors},
        {"profiles": lambda: profile_constraints(profiles)},
        structures={"profiles": profiles}, seed=seed,
        notes=("the deformation turns the page foliation region into contact "
               "turbulization; strata {g0 = 0} and {f0 = 0} carry different "
               "conformal weights",
               "the literal exponential tail for l is replaced by a "
               "monotone cubic: only l' > 0 and l < 1 enter the argument"))


# ---------------------------------------------------------------------------
# formal (coefficient-algebra) entries
# ---------------------------------------------------------------------------

@register("bourgeois-abstract")
def _build_bourgeois(n=2, seed=0):
    if n < 2:
        raise ValueError("bourgeois-abstract needs n >= 2")
    res = bourgeois_brackets(n)

    def powers_check():
        return _bool_verdict(res["powers_at_top"] == [2], {},
                             "every top-wedge monomial carries exactly t^2")

    def top_check():
        return _bool_verdict(res["top_matches"],
                             {"multipliers": res["top_multipliers"]},
                             "top power n+1 with multipliers ((n+1)n, n+1)")

    def index_check():
        return _bool_verdict(
            res["index_matches"],
            {"index": res["quoted_multiplier_index"],
             "multipliers": res["quoted_multipliers"]},
            "the quoted multiplier pair (n(n-1), n) lives at wedge power n "
            "with the dalpha exponents transposed")

    return GalleryEntry(
        name="bourgeois-abstract", params={"n": n, "seed": seed},
        structures={"brackets": res},
        expected={"t2-uniform": PASS, "top-bracket": PASS,
                  "quoted-index": PASS},
        checks={"t2-uniform": powers_check, "top-bracket": top_check,
                "quoted-index": index_check},
        notes=("wedge power recorded independently: the displayed "
               "multipliers correspond to power n, not the top power n+1",))


@register("mori-formal")
def _build_mori(seed=0):
    res = mori_identities()

    def eq(key, msg):
        return lambda: _bool_verdict(res[key], {}, msg)

    def mu_check():
        return _bool_verdict(
            res["mu_expansion"],
            {"grouped_defect_monomials": res["mu_defect_monomials"]},
            "contraction of alpha_t ^ dalpha_t equals the corrected "
            "ten-monomial form")

    return GalleryEntry(
        name="mori-formal", params={"seed": seed},
        structures={"identities": res},
        expected={"dalpha": PASS, "mu-expansion": PASS,
                  "top-expansion": PASS, "positivity": PASS},
        checks={"dalpha": eq("dalpha", "dalpha_t matches its display"),
                "mu-expansion": mu_check,
                "top-expansion": eq(
                    "top_expansion",
                    "alpha_0 ^ (s mu_t + tau)^2 regrouped over the four "
                    "surviving volume monomials"),
                "positivity": eq(
                    "positivity",
                    "A, B, C strictly positive under the declared signs")},
        notes=("the grouped mu_t variant kept in structures differs from the "
               "derived contraction in six monomials: a t vs t^2 slip, two "
               "spurious deta terms, two dropped f0 factors, and missing "
               "drho^gamma and eta^dtheta monomials",
               "the grouped square additionally needs the 2 f0 delta A "
               "volume term, a factor 2 on the delta h^2 line, and the "
               "cross terms sourced by the restored monomials"))


# ---------------------------------------------------------------------------
# product plastikstufe
# ---------------------------------------------------------------------------

@register("product-blob")
def _build_product_blob(seed=2):
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
    alpha_tab = {"z": sp.cos(rr), "phi": rr * sp.sin(rr), "w": pw}
    h = HyperplaneField.from_symbolic(M7, alpha_tab)
    mu = FormFieldNum.from_symbolic(M7, 2, {("q", "pq"): -1})
    c = ConfoliationData(h, mu)

    def psi(p):
        r_, phi, w, q = p
        return np.array([r_, phi, 0.0, w, 0.0, q, 0.0])

    e = np.eye(7)
    gamma = FormFieldNum.from_symbolic(
        M7, 1, {("z",): sp.cos(rr), ("phi",): rr * sp.sin(rr), ("w",): pw})
    blob = BLobData(
        N_chart=N4, psi=psi, radial_index=0, theta_index=1,
        KN_basis=lambda p: np.array([[0.0], [0.0], [0.0], [1.0]]),
        binding_normal_indices=(0, 1),
        FU_basis=lambda pM: e[:, [0, 1, 2, 3, 4]],
        gamma=gamma,
        tangent_families={
            "binding": lambda p: e[:, [3, 5]],
            "boundary": lambda p: e[:, [1, 3, 5]],
            "fiber": lambda p: e[:, [0, 3, 5]],
        })
    rng = np.random.default_rng(seed)
    samples = np.array([[rv, rng.uniform(0, 6), rng.uniform(0, 6),
                         rng.uniform(0, 6)]
                        for rv in (0.2, 0.25, 0.8, 1.5, 2.4, 3.0)])
    Om = mu + d_fd(gamma)

    items = functools.cache(
        lambda: blob_pointwise_check(c, blob, samples).sub)

    def item(label):
        return lambda: items()[label]

    def exact_check():
        return transversely_exact_check(c, blob, Om, samples)

    return GalleryEntry(
        name="product-blob", params={"seed": seed},
        structures={"confoliation": c, "blob": blob, "samples": samples,
                    "Omega_M": Om},
        expected={"item1": PASS, "item2": PASS, "item3a": PASS,
                  "item3b": PASS, "item3c": SKIPPED, "item3d": SKIPPED,
                  "transversely-exact": PASS},
        checks={"item1": item("item1"), "item2": item("item2"),
                "item3a": item("item3a"), "item3b": item("item3b"),
                "item3c": item("item3c"), "item3d": item("item3d"),
                "transversely-exact": exact_check},
        notes=("overtwisted three-dimensional factor times a cotangent "
               "circle: the sheet family is checked pointwise; the global "
               "items are out of scope and reported as skipped",))
