"""Stratified leading-order analysis for parameter families of one-forms.

A deformation family alpha_s degenerates onto a base hyperplane field as the
parameter goes to zero.  On each stratum of the base's order function the
family's top non-vanishing wedge collapses at some rate s^e; this module
extracts the rate, matches a conformal factor against a declared target, and
tests bivariate symplectic compatibility of the stratum two-forms.

``approx_verdict`` resolves each non-contact stratum's limit inputs in its
own loop over the strata: the two-form mu (compiled from ``mu_table`` once
and kept on the StratumData), the family zeta_s whose rate is measured, and
the target eta (from ``stratum_eta``, which the gallery's numeric
cross-check reads alone).  ``conformal_limit`` analyzes one stratum, given a
table or a callable, and reports it under label 0.

A symbolic family is one index-keyed coefficient table in the chart
coordinates and the parameter (the table helpers live in chartfield and are
re-exported here); alpha and its exact d are compiled once and each
parameter value only binds; base_table rejects a family that is not
polynomial in its parameter.  The exact route reads the rate off the Laurent
split (grassmann.laurent) of alpha ^ dalpha^(k+1); the numeric route fits it
on a ladder of parameter values with the finite-difference d, so the two
cross-check.
Sample sets, a stratum's and the pooled generic ones, are ``(N, dim)``
float arrays; the default generic set is ``sample_prefix``'s first 24
points of a seeded grid, which cover the whole box.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .chartfield import (Chart, FormFieldNum, _canon_table, compile_table,
                         d_fd, sample_prefix, table_contract, table_d,
                         table_to_field, table_top, table_wedge,
                         table_wedge_power)
from .conetame import FAIL, PASS, UNDETERMINED
from .confolcheck import (SKIPPED, ConfoliationData, HyperplaneField, Verdict,
                          _field_norms, _norms, aggregate, order_at)
from .grassmann import laurent

__all__ = [
    "DeformationFamily", "PartitionedForm", "StratumData", "StratumLimit",
    "ConformalLimitReport", "base_table", "stratum_eta",
    "conformal_limit", "compat_check", "approx_verdict",
    "table_d", "table_wedge", "table_wedge_power", "table_contract",
    "table_to_field",
]


def base_table(chart, table, param):
    """The one-form table of a family at parameter = 0.

    Raises ValueError naming the differential whose coefficient is not
    finite there (such a family has no base) or not polynomial in the
    parameter (the exact conformal limits split it by powers of it).
    """
    out = {}
    for key, e in _canon_table(chart, table).items():
        e0 = e.subs(param, 0)
        if e0.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
            raise ValueError(f"coefficient of d{chart.names[key[0]]} is not "
                             f"finite at {param} = 0: the family has no base")
        if not e.is_polynomial(param):
            raise ValueError(f"coefficient of d{chart.names[key[0]]} is not "
                             f"polynomial in {param}")
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
    family is an index-keyed coefficient table in the coordinates and the
    parameter.  ``alpha_of`` and ``dalpha_of`` are that table and its exact
    d compiled once: s -> FormFieldNum.
    """

    chart: Chart
    base: ConfoliationData
    param: sp.Symbol
    table: dict
    alpha_of: object
    dalpha_of: object

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

    # -- evaluation --------------------------------------------------------
    def hyperplane_at(self, s):
        return HyperplaneField(self.chart, self.alpha_of(s), self.dalpha_of(s))

    def base_consistency(self, samples, tau=1e-9):
        """alpha at s=0 spans the same line as beta at each sample."""
        r = _misalignments(_comp_rows(self.alpha_of(0.0), samples),
                           _comp_rows(self.base.h.alpha, samples))
        worst, witness = 0.0, None
        for p, ri in zip(samples, r.tolist()):
            if ri > worst:
                worst, witness = ri, p
        status = PASS if worst <= tau else FAIL
        return Verdict(status, {"misalignment": worst}, witness,
                       "base direction residual")


@dataclass
class StratumData:
    """Per-stratum inputs: sample points on the stratum (rows of an array),
    the two-form mu_i with its extension over O_i, the extended family
    zeta_s of top forms, and the target eta."""

    order: int
    samples: np.ndarray
    mu: FormFieldNum = None
    mu_table: dict = None
    zeta_table: dict = None      # keys -> sympy in coords + param
    eta_table: dict = None


@dataclass
class PartitionedForm:
    """Stratum label -> StratumData.  Labels follow rank_stratify (the order
    integer) unless the caller names disjoint strata of equal order."""

    strata: dict = field(default_factory=dict)


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


def stratum_eta(fam: DeformationFamily, sd: StratumData):
    """A stratum's eta: ``eta_table``, else beta ^ dbeta^k ^ mu (None
    without a mu)."""
    eta = sd.eta_table
    mu = _stratum_mu(fam.chart, sd)
    if eta is None and mu is not None:
        eta = _beta_k(fam.base.h, sd.order).wedge(mu)
    return eta


# ---------------------------------------------------------------------------
# pointwise helpers
# ---------------------------------------------------------------------------

def _comp_rows(f: FormFieldNum, P):
    """Components of f at the points P (N, dim): an (N, K) array, one column
    per key in the field's key order, and the keys."""
    comp = f.components(P)
    return (np.stack(list(comp.values()), axis=1) if comp
            else np.zeros((len(P), 0))), list(comp)


def _misalignments(va, vb):
    """Per point, the distance between the unit lines of two forms given as
    _comp_rows: min |x - y|, |x + y| after normalizing; 0 when both vanish,
    1 when one does."""
    (a, ka), (b, kb) = va, vb
    keys = sorted(set(ka) | set(kb))
    x, y = np.zeros((len(a), len(keys))), np.zeros((len(b), len(keys)))
    x[:, [keys.index(k) for k in ka]] = a
    y[:, [keys.index(k) for k in kb]] = b
    nx, ny = _norms(x), _norms(y)
    out = np.where(nx == ny, 0.0, 1.0)
    live = (nx != 0) & (ny != 0)
    x, y = x[live] / nx[live, None], y[live] / ny[live, None]
    out[live] = np.minimum(_norms(x - y), _norms(x + y))
    return out


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


_J_RANGE = (4, 16)


def conformal_limit(zeta, eta, samples, chart=None, param="s", order=None,
                    tau=1e-9, tau_num=1e-3):
    """Leading exponent and conformal factor of one stratum's family against
    a target, as a one-entry report under label 0.

    A symbolic table takes the exact expansion route; a callable
    s -> FormFieldNum is measured on the geometric ladder s_j = 2^-j, j in
    ``_J_RANGE``.
    """
    if isinstance(zeta, dict):
        lim = _limit_symbolic(0, order, zeta, eta, samples, chart, param, tau)
    else:
        lim = _limit_numeric(0, order, zeta, eta, samples, tau_num)
    return ConformalLimitReport({0: lim}, status=lim.status)


def _limit_symbolic(label, order, zeta, eta, samples, chart, param,
                    tau=1e-9):
    if chart is None:
        raise ValueError("symbolic path needs the chart")
    s = sp.Symbol(param) if isinstance(param, str) else param
    zeta = _canon_table(chart, zeta)
    by_power = {}
    for key, e in zeta.items():
        for k, c in laurent(e, s).items():
            by_power.setdefault(k, {})[key] = \
                by_power.get(k, {}).get(key, 0) + c

    # minimal exponent with coefficient alive on the stratum samples
    exponent = None
    for k in sorted(by_power):
        fld = table_to_field(chart, by_power[k])
        # Python's max over the points in order, each point's keys in order
        mx = max(np.abs(_comp_rows(fld, samples)[0]).ravel().tolist(),
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
    lc = {k: v / scale for k, v in lead.components(samples).items()}
    ec = eta.components(samples)
    for i, p in enumerate(samples):
        r, rs = _ratio_match({k: v[i] for k, v in lc.items()},
                             {k: v[i] for k, v in ec.items()}, tau)
        if r is None:
            return p, None, None, None
        ratios.append(r)
        resid = max(resid, rs)
    ratios = np.array(ratios)
    spread = float(np.max(ratios) - np.min(ratios)) / float(np.max(ratios))
    coeff = 1.0 / float(np.mean(ratios)) if spread <= spread_tol else None
    return None, ratios, resid, coeff


def _limit_numeric(label, order, zeta, eta, samples, tau_num):
    js = np.arange(_J_RANGE[0], _J_RANGE[1] + 1)
    svals = 2.0 ** (-js)
    slopes, r2s = [], []
    fields = [zeta(float(s)) for s in svals]
    ladder = np.stack([_field_norms(f, samples) for f in fields], axis=1)
    for norms in ladder:
        if not np.all(np.isfinite(norms) & (norms > 0)):
            why = "vanishes" if np.any(norms <= 0) else "is not finite"
            return StratumLimit(label, order, None, None, np.array([]), 1.0,
                                FAIL, message=f"family {why} on the ladder")
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
    """(status, margin, witness-detail) for one bivariate coefficient dict;
    a nan or infinite coefficient FAILs."""
    bad = next((bm for bm, v in Q.items() if not math.isfinite(v)), None)
    if bad is not None:
        return FAIL, -math.inf, ("coefficient not finite", bad)
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
        zero = np.zeros(len(sd.samples))
        cols = {bm: coef * f.components(sd.samples).get(top, zero)
                for bm, (coef, f) in _q_coeffs(c, sd, n).items()}
        worst, wit, statuses = np.inf, None, []
        for i, p in enumerate(sd.samples):
            Q = {bm: float(v[i]) for bm, v in cols.items()}
            st, margin, detail = _q_point_verdict(Q, tau)
            statuses.append(st)
            if margin < worst:
                worst = margin
            if st != PASS and wit is None:
                wit = (lab, p, detail)
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
        samples = sample_prefix(chart, density, seed, 24, margin=0.05)
    rungs = [fam.alpha_of(s) for s in (2.0 ** -4, 2.0 ** -8, 2.0 ** -12)]
    h_probe = fam.hyperplane_at(s_probe)

    # components of the base, the probe and each rung at every point, each
    # field evaluated once on all of them; a nan or infinite one would turn
    # every margin below into nan
    P = np.concatenate([samples, *(sd.samples for sd in pf.strata.values())])
    comps = [_comp_rows(f, P)
             for f in [fam.base.h.alpha, h_probe.alpha] + rungs]
    finite = np.logical_and.reduce([np.isfinite(c).all(axis=1)
                                    for c, _ in comps])
    if not finite.all():
        rep = ConformalLimitReport(status=FAIL)
        rep.verdict = Verdict(FAIL, {}, P[int(np.argmin(finite))],
                              "alpha is not finite at the witness")
        return rep

    sub = {}
    sub["base"] = fam.base_consistency(samples, tau=max(tau, 1e-9))

    m = len(samples)
    bad = [p for p, res in zip(samples, order_at(
        h_probe, samples, fam.base.tau_rank)) if res.k != n]
    sub["contact"] = Verdict(PASS if not bad else FAIL,
                             {"noncontact_points": len(bad)},
                             bad[0] if bad else None,
                             f"order_at == n at s={s_probe}")

    # item 1: hyperplane convergence measured along a short ladder
    base_m = (comps[0][0][:m], comps[0][1])
    angles = [max(_misalignments((c[:m], keys), base_m).tolist())
              for c, keys in comps[2:]]
    ok = angles[-1] <= 1e-3 and angles[-1] <= angles[0] + 1e-12
    sub["item1"] = Verdict(PASS if ok and sub["base"] else FAIL,
                           {"angles": angles}, None,
                           "hyperplane field convergence")

    sub["item2"] = Verdict(SKIPPED, message="C^0 cone convergence applies "
                           "only to k=0 families; this family is smooth")

    # per-stratum items (a) and (b) on every non-contact stratum
    # (2k+3 <= dim): zeta is ``zeta_table``, else the exact table of the
    # family's own top form alpha_s ^ dalpha_s^(k+1)
    a_sub, rep = {}, ConformalLimitReport()
    for lab, sd in pf.strata.items():
        k = sd.order
        if 2 * k + 3 > chart.dim:
            a_sub[lab] = Verdict(PASS, message="contact stratum, no mu needed")
            continue
        mu = _stratum_mu(chart, sd)
        if mu is None:
            a_sub[lab] = Verdict(FAIL, message=f"stratum {lab} missing mu")
            continue
        anchor = _beta_k(fam.base.h, k).wedge(mu)
        low = min(_field_norms(anchor, sd.samples).tolist())
        scale = max(_field_norms(fam.base.h.alpha, sd.samples).tolist())
        a_sub[lab] = Verdict(PASS if low > tau * scale else FAIL,
                             {"min_norm": low}, None,
                             f"beta ^ dbeta^{k} ^ mu nonzero on stratum")
        zeta = (sd.zeta_table if sd.zeta_table is not None
                else table_top(chart, fam.table, k))
        rep.strata[lab] = _limit_symbolic(lab, k, zeta, stratum_eta(fam, sd),
                                          sd.samples, chart, fam.param)
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
