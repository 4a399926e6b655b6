"""Stratified leading-order analysis for parameter families of one-forms.

A deformation family alpha_s degenerates onto a base hyperplane field as the
parameter goes to zero.  On each stratum of the base's order function the
family's top non-vanishing wedge collapses at some rate s^e; this module
extracts the rate, matches a conformal factor against a declared target, and
tests bivariate symplectic compatibility of the stratum two-forms.

``limit_inputs`` is the one place a stratum's limit inputs are resolved: its
two-form mu (compiled from ``mu_table`` once and kept on the StratumData),
the family zeta_s whose rate is measured, and the target eta (from
``stratum_eta``, which the gallery's numeric cross-check reads alone).

A symbolic family is one index-keyed coefficient table in the chart
coordinates and the parameter (the table helpers live in chartfield and are
re-exported here); alpha and its exact d are compiled once and each
parameter value only binds.  The exact route reads the rate off the Laurent
expansion of alpha ^ dalpha^(k+1); the numeric route fits it on a ladder of
parameter values with the finite-difference d, so the two cross-check.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .chartfield import (Chart, FormFieldNum, _canon_table, compile_table,
                         d_fd, sample_grid, table_contract, table_d,
                         table_to_field, table_top, table_wedge,
                         table_wedge_power)
from .conetame import FAIL, PASS, UNDETERMINED
from .confolcheck import (SKIPPED, ConfoliationData, HyperplaneField, Verdict,
                          aggregate, order_at)

__all__ = [
    "DeformationFamily", "PartitionedForm", "StratumData", "StratumLimit",
    "ConformalLimitReport", "base_table", "limit_inputs", "stratum_eta",
    "practical_mu", "conformal_limit", "compat_check", "approx_verdict",
    "table_d", "table_wedge", "table_wedge_power", "table_contract",
    "table_to_field",
]


# ---------------------------------------------------------------------------
# parameter expansion
# ---------------------------------------------------------------------------

def _laurent(expr, s, max_deg=8):
    """Map power -> coefficient for an expression rational in the parameter.

    Piecewise coefficients defeat sympy's Poly; a Taylor fallback recovers
    polynomial dependence up to ``max_deg`` and verifies the reconstruction.
    """
    e = sp.together(sp.expand(expr))
    num, den = sp.fraction(e)
    shift = sp.degree(sp.Poly(den, s)) if den.has(s) else 0
    rem = sp.cancel(den / s ** shift)
    if rem.has(s):
        raise ValueError(f"denominator {den} is not a pure power of {s}")
    if rem != 1:
        # together() may park parameter-free factors (e.g. exp(t)) in the
        # denominator; fold them back before reading off coefficients
        num = sp.expand(num / rem)
    try:
        poly = sp.Poly(sp.expand(num), s)
        pairs = [(k, c) for (k,), c in zip(poly.monoms(), poly.coeffs())]
    except sp.PolynomialError:
        pairs, g, fact = [], num, 1
        for k in range(max_deg + 1):
            pairs.append((k, sp.expand(g.subs(s, 0) / fact)))
            g = sp.diff(g, s)
            fact *= k + 1
        rec = sum(c * s ** k for k, c in pairs)
        if sp.simplify(sp.expand(num - rec)) != 0:
            raise ValueError(f"coefficient not polynomial of degree "
                             f"<= {max_deg} in {s}: {expr}")
    out = {}
    for k, c in pairs:
        if c != 0:
            out[k - shift] = out.get(k - shift, 0) + c
    return out


def base_table(chart, table, param):
    """The one-form table of a family at parameter = 0.

    Raises ValueError naming the differential whose coefficient is not
    finite there: such a family has no base.
    """
    out = {}
    for key, e in _canon_table(chart, table).items():
        e0 = e.subs(param, 0)
        if e0.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
            raise ValueError(f"coefficient of d{chart.names[key[0]]} is not "
                             f"finite at {param} = 0: the family has no base")
        e0 = sp.expand(e0)
        if e0 != 0:
            out[key] = e0
    return out


# ---------------------------------------------------------------------------
# family and partition containers
# ---------------------------------------------------------------------------

@dataclass
class DeformationFamily:
    """One-form family alpha_s over a chart, degenerating onto a base.

    The base is a ConfoliationData (beta plus ambient two-form omega); the
    family is given symbolically (index-keyed coefficient table in the
    coordinates and the parameter) and/or as a callable s -> FormFieldNum.
    ``dalpha_of`` gives the exact d of a symbolic family; without it the
    hyperplane fields take the finite-difference d.  ``direction`` is
    either "s->0" or "m->inf" (the latter substitutes s = 1/m on ladders).
    """

    chart: Chart
    base: ConfoliationData
    param: sp.Symbol
    table: dict = None
    alpha_of: object = None
    dalpha_of: object = None
    direction: str = "s->0"

    @property
    def n(self):
        return (self.chart.dim - 1) // 2

    @classmethod
    def from_table(cls, chart, table, omega, param="s", tau_rank=1e-7,
                   tau_pos=1e-9):
        param = sp.Symbol(param) if isinstance(param, str) else param
        table = _canon_table(chart, table)
        base_h = HyperplaneField.from_symbolic(
            chart, base_table(chart, table, param))
        if isinstance(omega, dict):
            omega = table_to_field(chart, omega, 2)
        base = ConfoliationData(base_h, omega, tau_rank, tau_pos)
        return cls(chart, base, param, table=table,
                   alpha_of=compile_table(chart, table, 1, (param,)),
                   dalpha_of=compile_table(chart, table_d(chart, table), 2,
                                           (param,)))

    @classmethod
    def from_sequence(cls, chart, fields, omega, base_table, param="m",
                      tau_rank=1e-7, tau_pos=1e-9):
        """``fields``: callable m -> FormFieldNum, sampled at integer m."""
        param = sp.Symbol(param) if isinstance(param, str) else param
        base_h = HyperplaneField.from_symbolic(chart, base_table)
        if isinstance(omega, dict):
            omega = table_to_field(chart, omega, 2)
        base = ConfoliationData(base_h, omega, tau_rank, tau_pos)
        fam = cls(chart, base, param, direction="m->inf")
        fam.alpha_of = lambda s: fields(2 ** 40 if s <= 0
                                        else max(1, round(1.0 / s)))
        return fam

    # -- evaluation --------------------------------------------------------
    def hyperplane_at(self, s):
        dalpha = self.dalpha_of(s) if self.dalpha_of is not None else None
        return HyperplaneField(self.chart, self.alpha_of(s), dalpha)

    def base_consistency(self, samples, tau=1e-9):
        """alpha at s=0 spans the same line as beta at each sample."""
        worst, witness = 0.0, None
        a0 = self.alpha_of(0.0)
        for smp in samples:
            v = _comp_vec(a0, smp.point)
            b = _comp_vec(self.base.h.alpha, smp.point)
            r = _misalignment(v, b)
            if r > worst:
                worst, witness = r, smp.point
        status = PASS if worst <= tau else FAIL
        return Verdict(status, {"misalignment": worst}, witness,
                       "base direction residual")


@dataclass
class StratumData:
    """Per-stratum inputs: the two-form mu_i with its extension over O_i,
    the extended family zeta_s of top forms, and the target eta."""

    order: int
    samples: list = field(default_factory=list)
    mu: FormFieldNum = None
    mu_table: dict = None
    zeta: object = None          # callable s -> FormFieldNum
    zeta_table: dict = None      # keys -> sympy in coords + param
    eta: FormFieldNum = None
    eta_table: dict = None


@dataclass
class PartitionedForm:
    """Stratum label -> StratumData.  Labels follow rank_stratify (the order
    integer) unless the caller names disjoint strata of equal order."""

    strata: dict = field(default_factory=dict)

    def labels(self):
        return list(self.strata)


def _beta_k(h: HyperplaneField, k):
    """beta ^ dbeta^k of a hyperplane field."""
    return h.alpha.wedge(h.dalpha.wedge_power(k))


def _family_top(fam: DeformationFamily, k):
    """s -> alpha_s ^ dalpha_s^(k+1) with the finite-difference d."""
    def top(s):
        a = fam.alpha_of(s)
        return a.wedge(d_fd(a).wedge_power(k + 1))
    return top


def _stratum_mu(chart, sd: StratumData):
    if sd.mu is None and sd.mu_table is not None:
        sd.mu = table_to_field(chart, sd.mu_table, 2)
    return sd.mu


def limit_inputs(fam: DeformationFamily, pf: PartitionedForm):
    """Stratum label -> (order, samples, zeta, eta, mu) on every non-contact
    stratum (2k+3 <= dim), in partition order.

    zeta is ``zeta_table``, else ``zeta``, else the family's own top form
    alpha_s ^ dalpha_s^(k+1) (the exact table of a symbolic family, the
    finite-difference callable otherwise).  eta is ``eta_table``, else
    ``eta``, else beta ^ dbeta^k ^ mu.  mu is compiled from ``mu_table`` on
    first use and kept on the StratumData; without either, mu is None and so
    is a default eta.
    """
    chart = fam.chart
    out = {}
    for lab, sd in pf.strata.items():
        k = sd.order
        if 2 * k + 3 > chart.dim:
            continue
        zeta = sd.zeta_table if sd.zeta_table is not None else sd.zeta
        if zeta is None:
            zeta = (table_top(chart, fam.table, k) if fam.table is not None
                    else _family_top(fam, k))
        out[lab] = (k, sd.samples, zeta, stratum_eta(fam, sd),
                    _stratum_mu(chart, sd))
    return out


def stratum_eta(fam: DeformationFamily, sd: StratumData):
    """A stratum's eta: ``eta_table``, else ``eta``, else beta ^ dbeta^k ^ mu
    (None without a mu)."""
    eta = sd.eta_table if sd.eta_table is not None else sd.eta
    mu = _stratum_mu(fam.chart, sd)
    if eta is None and mu is not None:
        eta = _beta_k(fam.base.h, sd.order).wedge(mu)
    return eta


# ---------------------------------------------------------------------------
# pointwise helpers
# ---------------------------------------------------------------------------

def _comp_vec(f: FormFieldNum, p):
    comp = f.components(p)
    keys = sorted(comp)
    return np.array([comp[k] for k in keys]), keys


def _misalignment(va, vb):
    (a, ka), (b, kb) = va, vb
    keys = sorted(set(ka) | set(kb))
    x = np.array([dict(zip(ka, a)).get(k, 0.0) for k in keys])
    y = np.array([dict(zip(kb, b)).get(k, 0.0) for k in keys])
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        return 0.0 if nx == ny else 1.0
    x, y = x / nx, y / ny
    return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))


def _field_norm_at(f: FormFieldNum, p):
    return math.sqrt(sum(v * v for v in f.components(p).values()))


def _ratio_match(zcomp, ecomp, tau):
    """Common positive ratio eta/zeta across components; None on mismatch.

    Returns (ratio, residual).  Components below tau of the larger scale on
    both sides are ignored; one-sided support is a mismatch.
    """
    keys = sorted(set(zcomp) | set(ecomp))
    z = np.array([zcomp.get(k, 0.0) for k in keys])
    e = np.array([ecomp.get(k, 0.0) for k in keys])
    sz, se = np.max(np.abs(z), initial=0.0), np.max(np.abs(e), initial=0.0)
    if sz == 0 or se == 0:
        return None, 1.0
    live = (np.abs(z) > tau * sz) | (np.abs(e) > tau * se)
    z, e = z[live], e[live]
    if np.any(np.abs(z) <= tau * sz) or np.any(np.abs(e) <= tau * se):
        return None, 1.0          # supported on different component sets
    r = e / z
    ratio = float(np.median(r))
    if ratio <= 0:
        return None, 1.0
    resid = float(np.max(np.abs(e - ratio * z)) / se)
    return ratio, resid


# ---------------------------------------------------------------------------
# practical contraction families
# ---------------------------------------------------------------------------

def practical_mu(fam: DeformationFamily, order, xbar, samples, tau=1e-9):
    """iota_Xbar(alpha_s ^ dalpha_s^(k+1)) on a stratum of order k.

    ``xbar`` is a list of constant ambient vectors whose iterated interior
    product realizes the normalizing multivector: applied left to right, it
    must send beta ^ dbeta^k to the constant 1 at every stratum sample
    (checked to ``tau``).  Returns a symbolic coefficient table in the
    parameter when the family is symbolic, else a callable s -> FormFieldNum.
    On the top stratum (2k+3 exceeding the chart dimension) the wedge is
    identically zero and the operation is vacuous.
    """
    chart, k = fam.chart, order
    xbar = [np.asarray(v, float) for v in xbar]
    if 2 * k + 3 > chart.dim:
        if fam.table is not None:
            return {}
        return lambda s: FormFieldNum(chart, max(chart.dim - 2 * k - 2, 0), {})

    # normalization against the base
    base_f = _beta_k(fam.base.h, k)
    for smp in samples:
        T = base_f.eval_at(smp.point)
        for v in xbar:
            T = np.tensordot(v, T, axes=([0], [0]))
        if abs(float(T) - 1.0) > tau:
            raise ValueError(
                f"normalization residual {abs(float(T) - 1.0):.3e} at "
                f"{smp.point}: iota_Xbar(beta ^ dbeta^{k}) != 1")

    if fam.table is not None:
        zt = table_top(chart, fam.table, k)
        for v in xbar:
            zt = table_contract(chart, zt, v)
        return zt

    top = _family_top(fam, k)

    def family(s):
        out = top(s)
        for v in xbar:
            out = _field_contract(out, v)
        return out
    return family


def _field_contract(f: FormFieldNum, v):
    v = np.asarray(v, float)
    out = {}
    for key, fn in f.coeffs.items():
        for pos, idx in enumerate(key):
            if v[idx] == 0:
                continue
            rest = key[:pos] + key[pos + 1:]
            c = (-1 if pos % 2 else 1) * v[idx]
            term = (lambda g, cc: lambda p: cc * g(p))(fn, c)
            if rest in out:
                out[rest] = (lambda a, b: lambda p: a(p) + b(p))(out[rest], term)
            else:
                out[rest] = term
    return FormFieldNum(f.chart, f.degree - 1, out)


# ---------------------------------------------------------------------------
# conformal limits
# ---------------------------------------------------------------------------

@dataclass
class StratumLimit:
    label: object
    order: int
    exponent: object             # leading power e of the parameter (int)
    factor_coeff: object         # F_s = w(x) / (c * s^e): c when w is constant
    factor_values: np.ndarray    # per-sample weights w = eta/zeta_leading
    residual: float
    status: str
    r_squared: object = None
    message: str = ""


@dataclass
class ConformalLimitReport:
    strata: dict = field(default_factory=dict)   # label -> StratumLimit
    compat: dict = field(default_factory=dict)   # label -> Verdict
    status: str = PASS
    verdict: Verdict = None


def conformal_limit(zeta, eta, samples, chart=None, param="s", order=None,
                    j_range=(4, 16), tau=1e-9, tau_num=1e-3):
    """Leading exponent and conformal factor of a family against a target.

    Single-stratum inputs give a one-entry report; dicts keyed by stratum
    label are analyzed entry-wise (``eta``/``samples`` then index the same
    keys).  Symbolic tables take the exact expansion route; callables are
    measured on the geometric ladder s_j = 2^-j, j in ``j_range``.
    """
    if not isinstance(zeta, dict) or (zeta and not isinstance(
            next(iter(zeta)), (str, int))):
        zeta, eta, samples = {0: zeta}, {0: eta}, {0: samples}
        order = {0: order}
    elif not isinstance(order, dict):
        order = {lab: order for lab in zeta}
    rep = ConformalLimitReport()
    for lab, zs in zeta.items():
        rep.strata[lab] = _limit_one(lab, order.get(lab), zs, eta[lab],
                                     samples[lab], chart, param, j_range,
                                     tau, tau_num)
    rep.status = aggregate(rep.strata)
    return rep


def _limit_one(label, order, zeta, eta, samples, chart, param, j_range,
               tau, tau_num):
    if isinstance(zeta, dict):
        return _limit_symbolic(label, order, zeta, eta, samples, chart,
                               param, tau)
    return _limit_numeric(label, order, zeta, eta, samples, j_range, tau_num)


def _limit_symbolic(label, order, zeta, eta, samples, chart, param, tau):
    if chart is None:
        raise ValueError("symbolic path needs the chart")
    s = sp.Symbol(param) if isinstance(param, str) else param
    zeta = _canon_table(chart, zeta)
    by_power = {}
    for key, e in zeta.items():
        for k, c in _laurent(e, s).items():
            by_power.setdefault(k, {})[key] = \
                by_power.get(k, {}).get(key, 0) + c

    # minimal exponent with coefficient alive on the stratum samples
    exponent = None
    for k in sorted(by_power):
        fld = table_to_field(chart, by_power[k])
        mx = max((abs(v) for smp in samples
                  for v in fld.components(smp.point).values()),
                 default=0.0)
        if mx > tau:
            exponent, lead = k, fld
            break
    if exponent is None:
        return StratumLimit(label, order, None, None, np.array([]), 1.0,
                            FAIL, message="family vanishes on stratum")

    bad, ratios, resid, coeff = _factor_fit(lead, eta, samples, tau, 1e-6)
    if bad is not None:
        return StratumLimit(label, order, exponent, None, np.array([]), 1.0,
                            FAIL, message=f"no positive proportionality at "
                                          f"{bad}")
    return StratumLimit(label, order, int(exponent), coeff, ratios, resid,
                        PASS if resid <= max(tau, 1e-9) * 10 else FAIL)


def _factor_fit(lead: FormFieldNum, eta, samples, tau, spread_tol, scale=1.0):
    """Per-sample weights w = eta / (lead / scale) at ``samples``.

    Returns (bad, weights, worst residual, coeff): coeff = 1/mean(w) when
    the weights agree to ``spread_tol`` relative, else None (F_s = 1/(coeff
    * s^e)); bad is the first sample point without a common positive ratio,
    and then the other three are None.
    """
    if isinstance(eta, dict):
        eta = table_to_field(lead.chart, eta)
    ratios, resid = [], 0.0
    for smp in samples:
        zc = {k: v / scale for k, v in lead.components(smp.point).items()}
        r, rs = _ratio_match(zc, eta.components(smp.point), tau)
        if r is None:
            return smp.point, None, None, None
        ratios.append(r)
        resid = max(resid, rs)
    ratios = np.array(ratios)
    spread = float(np.max(ratios) - np.min(ratios)) / float(np.max(ratios))
    coeff = 1.0 / float(np.mean(ratios)) if spread <= spread_tol else None
    return None, ratios, resid, coeff


def _limit_numeric(label, order, zeta, eta, samples, j_range, tau_num):
    js = np.arange(j_range[0], j_range[1] + 1)
    svals = 2.0 ** (-js)
    slopes, r2s = [], []
    fields = [zeta(float(s)) for s in svals]
    for smp in samples:
        norms = np.array([_field_norm_at(f, smp.point) for f in fields])
        if np.any(norms <= 0):
            return StratumLimit(label, order, None, None, np.array([]), 1.0,
                                FAIL, message="family vanishes on the ladder")
        x, y = np.log(svals), np.log(norms)
        A = np.vstack([x, np.ones_like(x)]).T
        (m, _), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(res[0]) / ss_tot if ss_tot > 0 and len(res) else 1.0
        slopes.append(m)
        r2s.append(r2)
    slopes, r2s = np.array(slopes), np.array(r2s)
    e = int(round(float(np.median(slopes))))
    if np.min(r2s) < 0.999 or np.max(np.abs(slopes - e)) > 0.1:
        return StratumLimit(label, order, None, None, np.array([]), 1.0,
                            UNDETERMINED, r_squared=float(np.min(r2s)),
                            message="leading exponent unstable on ladder")
    s_min = float(svals[-1])
    # higher-order contamination at the finite smallest rung is live noise
    # of size O(s_min); mask it out of the support comparison
    bad, ratios, resid, coeff = _factor_fit(
        fields[-1], eta, samples, max(1e-9, 10 * s_min), 10 * tau_num,
        scale=s_min ** e)
    if bad is not None:
        return StratumLimit(label, order, e, None, np.array([]), 1.0, FAIL,
                            r_squared=float(np.min(r2s)),
                            message=f"nonconvergent ratios at {bad}")
    return StratumLimit(label, order, e, coeff, ratios, resid,
                        PASS if resid <= tau_num else FAIL,
                        r_squared=float(np.min(r2s)))


# ---------------------------------------------------------------------------
# symplectic compatibility (definition item (c))
# ---------------------------------------------------------------------------

_GRID = np.logspace(-3.0, 3.0, 13)


def _q_coeffs(c: ConfoliationData, sd: StratumData, n):
    """Point-independent fields behind Q(s,t) = sum Q_bm s^b t^m."""
    k = sd.order
    i = n - k
    beta_k = _beta_k(c.h, k)
    fields = {}
    for b in range(i + 1):
        for m in range(i + 1 - b):
            a = i - b - m
            f = beta_k.wedge(c.h.dalpha.wedge_power(b)).wedge(
                c.mu.wedge_power(a))
            if m:
                f = f.wedge(sd.mu.wedge_power(m))
            coef = math.factorial(i) // (math.factorial(a) *
                                         math.factorial(b) * math.factorial(m))
            fields[(b, m)] = (coef, f)
    return fields


def _q_point_verdict(Q, tau):
    """(status, margin, witness-detail) for one bivariate coefficient dict."""
    scale = max(max(abs(v) for v in Q.values()), 1e-300)
    const = Q.get((0, 0), 0.0)
    if const < -tau * scale:
        return FAIL, const / scale, ("constant term", const)
    if const <= tau * scale:
        return UNDETERMINED, const / scale, ("constant term", const)
    gmin, gwit = np.inf, None
    for sv in _GRID:
        for tv in _GRID:
            q = sum(v * sv ** b * tv ** m for (b, m), v in Q.items())
            if q < gmin:
                gmin, gwit = q, (float(sv), float(tv), q)
    if gmin < -tau * scale:
        return FAIL, gmin / scale, gwit
    live = {bm: v for bm, v in Q.items() if abs(v) > tau * scale}
    ambiguous = gmin <= tau * scale

    def slice_min(axis):
        dmax = max(bm[axis] for bm in live)
        other = 1 - axis
        return min(sum(v * g ** bm[other] for bm, v in live.items()
                       if bm[axis] == dmax) for g in _GRID)

    dtot = max(b + m for (b, m) in live)
    joint = min(sum(v * math.cos(th) ** b * math.sin(th) ** m
                    for (b, m), v in live.items() if b + m == dtot)
                for th in np.linspace(0.01, math.pi / 2 - 0.01, 13))
    lo = min(slice_min(0), slice_min(1), joint) / scale
    if lo < -tau:
        return FAIL, lo, ("extremal leading coefficient", lo)
    if lo <= tau or ambiguous:
        return UNDETERMINED, min(lo, gmin / scale), \
            ("boundary coefficient in band", lo)
    return PASS, gmin / scale, None


def compat_check(c: ConfoliationData, pf: PartitionedForm, tau=None) -> Verdict:
    """beta ^ dbeta^(n-i) ^ (omega + s dbeta + t mu_i)^i > 0 on each stratum.

    The top coefficient is a bivariate polynomial Q(s,t); evidence is a 13x13
    logarithmic grid over [1e-3,1e3]^2 plus sign conditions on the extremal
    leading coefficients (s alone, t alone, joint degree) and a strictly
    positive constant term.  Band-straddling values go UNDETERMINED.
    """
    tau = c.tau_pos if tau is None else tau
    chart = c.h.chart
    n = c.h.n_max()
    top = tuple(range(chart.dim))
    sub = {}
    for lab, sd in pf.strata.items():
        if _stratum_mu(chart, sd) is None and sd.order < n:
            sub[lab] = Verdict(FAIL, message=f"stratum {lab} missing mu")
            continue
        fields = _q_coeffs(c, sd, n)
        worst, wit, statuses = np.inf, None, []
        for smp in sd.samples:
            Q = {bm: coef * f.components(smp.point).get(top, 0.0)
                 for bm, (coef, f) in fields.items()}
            st, margin, detail = _q_point_verdict(Q, tau)
            statuses.append(st)
            if margin < worst:
                worst = margin
            if st != PASS and wit is None:
                wit = (lab, smp.point, detail)
            if st == FAIL:
                break
        if FAIL in statuses:
            sub[lab] = Verdict(FAIL, {"Q_min": worst}, wit,
                               f"stratum {lab}: nonpositive Q")
        elif UNDETERMINED in statuses:
            sub[lab] = Verdict(UNDETERMINED, {"Q_min": worst}, wit,
                               f"stratum {lab}: coefficient inside band")
        else:
            sub[lab] = Verdict(PASS, {"Q_min": worst})
    return Verdict(aggregate(sub), {lab: v.margins.get("Q_min")
                                    for lab, v in sub.items()},
                   next((v.witness for v in sub.values()
                         if v.status == FAIL), None),
                   "bivariate positivity on strata", sub)


# ---------------------------------------------------------------------------
# full analyzer bundle
# ---------------------------------------------------------------------------

def approx_verdict(fam: DeformationFamily, pf: PartitionedForm, samples=None,
                   s_probe=0.25, seed=0, tau=1e-9) -> ConformalLimitReport:
    """Contact-approximation analysis: items 1, 2, (a), (b), (c).

    Strata come from ``pf`` (caller-labeled; thin strata carry hand-placed
    samples since random points never land on them).  ``samples`` are pooled
    generic points for the contact spot-check; defaults to a seeded grid.
    A family with a nan or infinite coefficient at one of these points or a
    stratum sample (at s = 0, ``s_probe`` or a rung of item 1's ladder)
    FAILs at once, with the first such point as witness.
    """
    chart, n = fam.chart, fam.n
    if samples is None:
        density = max(2, int(round(200 ** (1.0 / chart.dim))))
        samples = sample_grid(chart, density, seed, margin=0.05)[:24]
    rungs = [fam.alpha_of(s) for s in (2.0 ** -4, 2.0 ** -8, 2.0 ** -12)]
    h_probe = fam.hyperplane_at(s_probe)

    # components of the base, the probe and each rung at every point; a nan
    # or infinite one would turn every margin below into nan
    points = [smp.point for smp in samples] + [
        smp.point for sd in pf.strata.values() for smp in sd.samples]
    comps = [[_comp_vec(f, p) for p in points]
             for f in [fam.base.h.alpha, h_probe.alpha] + rungs]
    for i, p in enumerate(points):
        if not all(np.isfinite(c[i][0]).all() for c in comps):
            rep = ConformalLimitReport(status=FAIL)
            rep.verdict = Verdict(FAIL, {}, p,
                                  "alpha is not finite at the witness")
            return rep

    sub = {}
    sub["base"] = fam.base_consistency(samples, tau=max(tau, 1e-9))

    bad = [s.point for s in samples
           if order_at(h_probe, s.point, fam.base.tau_rank).k != n]
    sub["contact"] = Verdict(PASS if not bad else FAIL,
                             {"noncontact_points": len(bad)},
                             bad[0] if bad else None,
                             f"order_at == n at s={s_probe}")

    # item 1: hyperplane convergence measured along a short ladder
    m = len(samples)
    angles = [max(map(_misalignment, c[:m], comps[0][:m])) for c in comps[2:]]
    ok = angles[-1] <= 1e-3 and angles[-1] <= angles[0] + 1e-12
    sub["item1"] = Verdict(PASS if ok and sub["base"] else FAIL,
                           {"angles": angles}, None,
                           "hyperplane field convergence")

    sub["item2"] = Verdict(SKIPPED, message="C^0 cone convergence applies "
                           "only to k=0 families; this family is smooth")

    # per-stratum items (a), (b), (c)
    inputs = limit_inputs(fam, pf)
    a_sub, lim = {}, {}
    for lab in pf.strata:
        if lab not in inputs:
            a_sub[lab] = Verdict(PASS, message="contact stratum, no mu needed")
            continue
        k, samples_i, _, _, mu = inputs[lab]
        if mu is None:
            a_sub[lab] = Verdict(FAIL, message=f"stratum {lab} missing mu")
            continue
        anchor = _beta_k(fam.base.h, k).wedge(mu)
        low = min(_field_norm_at(anchor, smp.point) for smp in samples_i)
        scale = max(_field_norm_at(fam.base.h.alpha, smp.point)
                    for smp in samples_i)
        a_sub[lab] = Verdict(PASS if low > tau * scale else FAIL,
                             {"min_norm": low}, None,
                             f"beta ^ dbeta^{k} ^ mu nonzero on stratum")
        lim[lab] = inputs[lab]

    rep = ConformalLimitReport()
    if lim:
        order, samp, zeta, eta = ({lab: v[i] for lab, v in lim.items()}
                                  for i in range(4))
        rep = conformal_limit(zeta, eta, samp, chart=chart, param=fam.param,
                              order=order)
    sub["item_a"] = Verdict(aggregate(a_sub), sub=a_sub,
                            message="stratum anchoring forms")
    sub["item_b"] = Verdict(aggregate(rep.strata),
                            message="conformal convergence")
    sub["item_c"] = compat_check(fam.base, pf, tau=max(tau, fam.base.tau_pos))
    rep.compat = sub["item_c"].sub

    status = aggregate(sub)
    names = {"base": "base direction", "contact": "contact spot-check",
             "item1": "item 1", "item2": "item 2", "item_a": "item (a)",
             "item_b": "item (b)", "item_c": "item (c)"}
    failing = [names[k] for k, v in sub.items() if v.status == FAIL]
    msg = "contact approximation verified" if status == PASS else \
        f"failing: {', '.join(failing)}" if failing else "undetermined"
    rep.verdict = Verdict(status, {"angles": sub["item1"].margins.get("angles")},
                          None, msg, sub)
    rep.status = status
    return rep
