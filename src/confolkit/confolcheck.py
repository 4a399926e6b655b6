"""Manifold-level verifiers: order fields, confoliation and cone verdicts,
stable Hamiltonian pairs, flows, collars, the open-book constructor, and
pointwise bLob checks.

All verifiers are pointwise at sampled points and return Verdict records.
Samples are an ``(N, dim)`` float array, one point per row, and a witness
is one of its rows.  Tolerances are keyword arguments, among them the
finite-difference step ``h`` that scales the bands of ``shs_check``, the
strong ``filling_boundary_check`` and ``transversely_exact_check``.
The sample loops of ``order_at``/``rank_stratify``, ``confoliation_check``
and ``shs_check`` evaluate their forms once on all samples (chartfield's
batched evaluation) and then decide sample by sample in sample order, so a
FAIL's witness is the first failing sample.  Status vocabulary: PASS / FAIL
(with witness sample) / UNDETERMINED (tolerance ambiguity or exhausted
search) / SKIPPED (declared-global conditions that samples cannot certify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from confolkit.chartfield import (
    Chart,
    FormFieldNum,
    _canon_table,
    d_fd,
    fd_jacobian,
    flow_rk4,
    pullback,
    table_d,
)
from confolkit.conetame import (
    FAIL,
    PASS,
    RAY_TOL,
    UNDETERMINED,
    BasedSubspace,
    SkewPair,
    kernel_with_tol,
    null_space,
    odd_rank_message,
    pencil_positive,
    pfaffian,
    sigmas_at_cut,
    skew_rank,
)

SKIPPED = "SKIPPED"


@dataclass
class Verdict:
    status: str
    margins: dict = field(default_factory=dict)
    witness: object = None
    message: str = ""
    sub: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == PASS


def aggregate(subs: dict) -> str:
    statuses = [v.status for v in subs.values()]
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == UNDETERMINED for s in statuses):
        return UNDETERMINED
    return PASS


# ---------------------------------------------------------------------------
# hyperplane fields
# ---------------------------------------------------------------------------

def _not_finite(values):
    """Name of the first form in ``values`` (name -> its values at one point)
    with a non-finite entry, else None; one np.isfinite call in all."""
    flat = [np.ravel(v) for v in values.values()]
    ok = np.isfinite(np.concatenate(flat))
    if ok.all():
        return None
    first = int(np.argmin(ok))
    for name, v in zip(values, flat):
        if first < v.size:
            return name
        first -= v.size


def _finite_rows(*arrays):
    """Per point (leading axis): are all the arrays' entries finite?"""
    ok = True
    for a in arrays:
        ok = ok & np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    return ok


def _norms(T):
    """np.linalg.norm of each T[i], computed as numpy computes it (the square
    root of the flattened dot product), so a row's norm is its single-point
    norm bit for bit."""
    flat = T.reshape(len(T), math.prod(T.shape[1:]))
    return np.sqrt(np.array([r.dot(r) for r in flat]))


def _xi_frames(A):
    """Oriented orthonormal bases of ker(a), an (m, m-1) frame for each row
    a of A (N, m); every row must be finite and nonzero.

    One stacked SVD (a nonzero row has rank 1 under null_space's cut, so
    the last m-1 right singular vectors span ker(a)) and one stacked det.
    Orientation convention: (a, frame) agrees with the chart orientation, so
    Pfaffian signs of restricted forms are well-defined.
    """
    vh = np.linalg.svd(A[:, None, :])[2]
    B = np.swapaxes(vh[:, 1:, :], 1, 2).copy()
    flip = np.linalg.det(np.concatenate([A[:, :, None], B], axis=2)) < 0
    B[flip, :, 0] = -B[flip, :, 0]
    return B


def _skew_rows(M):
    """conetame._skew of each M[i]."""
    return 0.5 * (M - np.swapaxes(M, 1, 2))


class HyperplaneField:
    """ker(alpha) on a chart, with dalpha cached (exact when built from a
    coefficient table, finite-difference otherwise)."""

    def __init__(self, chart, alpha: FormFieldNum, dalpha: FormFieldNum = None,
                 symbolic_table: dict = None):
        self.chart = chart
        self.alpha = alpha
        self.symbolic_table = symbolic_table
        self.dalpha = dalpha if dalpha is not None else d_fd(alpha)
        self._powers = None

    @classmethod
    def from_symbolic(cls, chart, table):
        """``table`` maps coordinate names (or index keys) to sympy
        coefficient expressions; dalpha comes from the exact ``table_d``."""
        tab = _canon_table(chart, table)
        return cls(chart, FormFieldNum.from_symbolic(chart, 1, tab),
                   FormFieldNum.from_symbolic(chart, 2, table_d(chart, tab)),
                   symbolic_table=tab)

    # -- pointwise frames --------------------------------------------------
    def alpha_at(self, p):
        """alpha at one point; ValueError where ker(alpha) is no hyperplane
        (alpha vanishes, or has a nan or infinite coefficient)."""
        v = self.alpha.eval_at(p)
        norm = np.linalg.norm(v)
        if not norm < np.inf:
            raise ValueError(f"alpha is not finite at {p}")
        if norm < 1e-12:
            raise ValueError(f"alpha vanishes at {p}")
        return v

    def xi_basis(self, p):
        """Oriented orthonormal basis of ker(alpha) at p (see _xi_frames)."""
        a = self.alpha_at(p)
        return BasedSubspace(len(a), _xi_frames(a[None, :])[0])

    def n_max(self):
        return (self.chart.dim - 1) // 2

    def wedge_powers(self):
        """[alpha, alpha ^ dalpha, ..., alpha ^ dalpha^n_max], built once."""
        if self._powers is None:
            powers = [self.alpha]
            for _ in range(self.n_max()):
                powers.append(powers[-1].wedge(self.dalpha))
            self._powers = powers
        return self._powers


# ---------------------------------------------------------------------------
# order and characteristic distribution
# ---------------------------------------------------------------------------

@dataclass
class OrderResult:
    k: int
    status: str
    norms: list
    message: str = ""


def order_at(h: HyperplaneField, p, tau_rank=None):
    """Largest k with alpha ^ (dalpha)^k nonzero at p, by tensor norms.

    The scale for the k-th norm is ||alpha|| * max(||dalpha||, 1)^k; values
    inside the band (1e-2..1) * tau * scale are ambiguous -> UNDETERMINED.
    At N points ``(N, dim)`` the result is a list, one OrderResult each.
    """
    tau = 1e-7 if tau_rank is None else tau_rank
    a, da = h.alpha.eval_at(p), h.dalpha.eval_at(p)
    lead = np.shape(p)[:-1]
    norms = [np.broadcast_to(np.sqrt(sum(v * v for v in
                                         f.components(p).values())), lead)
             for f in h.wedge_powers()]
    if not lead:
        return _order([float(x) for x in norms], np.linalg.norm(a),
                      max(np.linalg.norm(da), 1.0), h.n_max(), tau)
    return [_order([float(x[i]) for x in norms], na, max(nda, 1.0),
                   h.n_max(), tau)
            for i, (na, nda) in enumerate(zip(_norms(a), _norms(da)))]


def _order(norms, na, nda, n, tau) -> OrderResult:
    """order_at's decision at one point from its norms."""
    k_star = -1
    for k in range(n + 1):
        scale = na * nda ** k
        if norms[k] > tau * scale:
            k_star = k
    if k_star < 0:
        return OrderResult(0, UNDETERMINED, norms, "alpha itself below scale")
    if k_star < n:
        nxt = norms[k_star + 1]
        scale = na * nda ** (k_star + 1)
        if nxt > 1e-2 * tau * scale:
            return OrderResult(k_star, UNDETERMINED, norms,
                               f"norm at k={k_star + 1} inside tolerance band")
    return OrderResult(k_star, PASS, norms)


def char_dist_at(h: HyperplaneField, p, tau_rank=None, xi=None):
    """(K_xi)_p = ker(dalpha restricted to ker alpha), in ambient coords.

    ``xi`` is ``h.xi_basis(p)`` when the caller already has it.
    """
    tau = 1e-7 if tau_rank is None else tau_rank
    xi = h.xi_basis(p) if xi is None else xi
    M = xi.restrict(h.dalpha.eval_at(p))
    res = kernel_with_tol(M, tau)
    if res.status != PASS:
        return res
    amb = xi.basis @ res.subspace.basis
    res.subspace = BasedSubspace(h.chart.dim, amb) if amb.shape[1] else \
        BasedSubspace(h.chart.dim, np.zeros((h.chart.dim, 0)))
    return res


def rank_stratify(h: HyperplaneField, samples, tau_rank=None):
    """Label samples by order; spot-check lower semicontinuity under jitter.

    Order can only jump up in a neighborhood; a drop under tiny jitter that
    is not explained by the tolerance band flags the label UNDETERMINED.
    """
    strata = {}
    labels = []
    jittered = np.clip(samples + h.chart.default_h() * 0.1,
                       [lo for lo, _ in h.chart.box],
                       [hi for _, hi in h.chart.box])
    for p, res, res_j in zip(samples, order_at(h, samples, tau_rank),
                             order_at(h, jittered, tau_rank)):
        if (res.status == PASS and res_j.status == PASS
                and res_j.k < res.k):
            res = OrderResult(res.k, UNDETERMINED, res.norms,
                              "order drops under jitter: band ambiguity")
        labels.append(res)
        strata.setdefault(res.k if res.status == PASS else None, []).append(p)
    return strata, labels


# ---------------------------------------------------------------------------
# confoliation and cone verdicts
# ---------------------------------------------------------------------------

@dataclass
class ConfoliationData:
    h: HyperplaneField
    mu: FormFieldNum
    tau_rank: float = 1e-7
    tau_pos: float = 1e-9


def confoliation_check(c: ConfoliationData, samples) -> Verdict:
    """mu symplectically compatible: mu + t*dalpha nondegenerate on xi for
    t > 0, and mu nondegenerate on K_xi, at every sample.

    alpha, dalpha and mu are evaluated once on all samples, and the frames
    of xi and the kernels of dalpha on xi are stacked SVDs; the pencil's
    exact Sturm decision and every verdict stay per sample, in order.
    """
    m = c.h.chart.dim
    A, DA, MU = (f.eval_at(samples) for f in (c.h.alpha, c.h.dalpha, c.mu))
    na = _norms(A)
    # the stacked frames and kernels need finite input: rows that FAIL
    # before they are read get placeholders
    ok = (na < np.inf) & (na >= 1e-12) & _finite_rows(DA, MU)
    B = _xi_frames(np.where(ok[:, None], A, np.eye(m)[0]))
    Bt = np.swapaxes(B, 1, 2)
    MU_xi, DA_xi = (Bt @ np.where(ok[:, None, None], T, 0.0) @ B
                    for T in (MU, DA))
    _, sig, Vt = np.linalg.svd(_skew_rows(DA_xi))
    worst = np.inf
    for i, p in enumerate(samples):
        if not ok[i]:
            if not na[i] < np.inf:      # a nan or infinite coefficient
                bad = "alpha"
            elif na[i] < 1e-12:
                return Verdict(FAIL, witness=p,
                               message="alpha vanishes at the witness")
            else:
                bad = _not_finite({"dalpha": DA[i], "mu": MU[i]})
            return Verdict(FAIL, witness=p,
                           message=f"{bad} is not finite at the witness")
        pv = pencil_positive(SkewPair(MU_xi[i], DA_xi[i], ("mu", "dalpha")))
        if pv.status == UNDETERMINED:
            # a root of Pf(mu + t dalpha) within RAY_TOL of the open ray
            return Verdict(UNDETERMINED,
                           {"tolerance": "ray_tol", "tau": RAY_TOL,
                            "margin": pv.roots_on_ray[0]},
                           p, f"pencil: {pv.message}")
        if pv.status != PASS:
            return Verdict(pv.status, witness=p,
                           message=f"pencil: {pv.message}")
        rank = skew_rank(sig[i], c.tau_rank)
        if rank % 2:
            return Verdict(UNDETERMINED,
                           {"tolerance": "tau_rank", "tau": c.tau_rank,
                            "margin": sigmas_at_cut(rank, sig[i]).tolist()},
                           p, odd_rank_message(rank, sig[i]))
        if rank < m - 1:                # K_xi = ker(dalpha|xi) is nonzero
            K = B[i] @ Vt[i][rank:].T
            mu_K = K.T @ MU[i] @ K
            pf = pfaffian(mu_K)
            scale = max(np.linalg.norm(mu_K), 1e-30) ** (K.shape[1] // 2)
            if abs(pf) <= c.tau_pos * scale:
                return Verdict(FAIL, witness=p,
                               message="mu degenerate on K_xi")
            worst = min(worst, abs(pf) / scale)
    return Verdict(PASS, margins={"min_K_pfaffian": worst})


def cone_membership(c: ConfoliationData, omega: FormFieldNum, samples,
                    tau=1e-6) -> Verdict:
    """Least-squares (f, g) with omega|_xi = f mu|_xi + g dalpha|_xi."""
    fs, gs = [], []
    for p in samples:
        xi = c.h.xi_basis(p)
        W = xi.restrict(omega.eval_at(p))
        A = xi.restrict(c.mu.eval_at(p))
        B = xi.restrict(c.h.dalpha.eval_at(p))
        iu = np.triu_indices(xi.dim, 1)
        M = np.column_stack([A[iu], B[iu]])
        if np.linalg.matrix_rank(M, tol=1e-10) < 2:
            return Verdict(UNDETERMINED, witness=p,
                           message="mu and dalpha proportional on xi: "
                                   "regression rank-deficient")
        sol, res, *_ = np.linalg.lstsq(M, W[iu], rcond=None)
        resid = np.linalg.norm(M @ sol - W[iu]) / max(np.linalg.norm(W[iu]), 1e-30)
        if resid > tau:
            return Verdict(FAIL, witness=p,
                           message=f"residual {resid:.2e} outside cone")
        f, g = sol
        if f <= c.tau_pos or g <= c.tau_pos:
            return Verdict(FAIL, witness=p, margins={"f": f, "g": g},
                           message=f"nonpositive cone coefficients f={f:.3g}, "
                                   f"g={g:.3g}")
        fs.append(f)
        gs.append(g)
    return Verdict(PASS, margins={"f": fs, "g": gs})


def filling_boundary_check(c: ConfoliationData, Omega: FormFieldNum, mode,
                           samples, mu0: FormFieldNum = None,
                           alpha_prim: FormFieldNum = None,
                           tau=1e-6, h=1e-4) -> Verdict:
    """Boundary compatibility in one of the three filling senses.

    The strong mode's finite-difference closedness test is the band
    ||d mu0|| <= 100 h; ``h`` scales that band only (d_fd takes the
    chart's step).
    """
    if mode == "weak":
        for p in samples:
            xi = c.h.xi_basis(p)
            K = char_dist_at(c.h, p, c.tau_rank, xi)
            if K.status != PASS:
                return Verdict(UNDETERMINED, witness=p, message=K.message)
            if K.subspace.dim:
                WK = K.subspace.restrict(Omega.eval_at(p))
                MK = K.subspace.restrict(c.mu.eval_at(p))
                iu = np.triu_indices(K.subspace.dim, 1)
                denom = float(MK[iu] @ MK[iu])
                if denom < 1e-24:
                    return Verdict(UNDETERMINED, witness=p,
                                   message="mu vanishes on K_xi")
                f = float(WK[iu] @ MK[iu]) / denom
                resid = np.linalg.norm(WK[iu] - f * MK[iu])
                if resid > tau * max(np.linalg.norm(WK[iu]), 1.0) or f <= 0:
                    return Verdict(FAIL, witness=p,
                                   message=f"Omega|_K != f mu|_K (f={f:.3g}, "
                                           f"residual {resid:.2e})")
            pv = pencil_positive(SkewPair(xi.restrict(Omega.eval_at(p)),
                                          xi.restrict(c.h.dalpha.eval_at(p))),
                                 closed=True)
            if pv.status != PASS:
                return Verdict(pv.status, witness=p,
                               message=f"joint cone pencil: {pv.message}")
        return Verdict(PASS)
    if mode == "quasi-strong":
        return cone_membership(c, Omega, samples, tau)
    if mode == "strong":
        if mu0 is None or alpha_prim is None:
            raise ValueError("strong mode needs mu0 and the primitive alpha")
        dmu0 = d_fd(mu0)
        dprim = d_fd(alpha_prim)
        for p in samples:
            resid = np.linalg.norm(
                Omega.eval_at(p) - mu0.eval_at(p) - dprim.eval_at(p))
            if resid > tau * max(np.linalg.norm(Omega.eval_at(p)), 1.0):
                return Verdict(FAIL, witness=p,
                               message=f"Omega != mu0 + d(alpha): {resid:.2e}")
            closed = np.linalg.norm(dmu0.eval_at(p))
            if closed > 100 * h:
                return Verdict(FAIL, witness=p,
                               message=f"mu0 not closed: ||d mu0|| = {closed:.2e}")
        return Verdict(PASS)
    raise ValueError(f"unknown filling mode {mode!r}")


# ---------------------------------------------------------------------------
# stable Hamiltonian pairs
# ---------------------------------------------------------------------------

@dataclass
class StableHamiltonianPair:
    lam: FormFieldNum
    omega: FormFieldNum
    chart: Chart

    def __post_init__(self):
        if self.chart.dim % 2 == 0:
            raise ValueError("stable Hamiltonian pairs live on odd dimension")


def shs_check(s: StableHamiltonianPair, samples, tau=1e-9,
              h=1e-4) -> Verdict:
    """lambda ^ omega^n > 0, d omega = 0, ker omega inside ker d lambda.

    The forms are evaluated once on all samples and the kernels of omega
    are one stacked SVD; the verdicts stay per sample, in order.  The
    finite-difference residuals are allowed the bands ||iota_R d lambda||
    <= max(tau, 100 h^2) and ||d omega|| <= 1000 h; ``h`` scales those
    bands only (d_fd takes the chart's step).
    """
    n = s.chart.dim // 2
    top = s.lam.wedge(s.omega.wedge_power(n))
    dlam = d_fd(s.lam)
    domega = d_fd(s.omega)
    forms = {name: f.eval_at(samples) for name, f in (
        ("lambda", s.lam), ("omega", s.omega), ("d lambda", dlam),
        ("d omega", domega))}
    lam, W, dl, dw = forms.values()
    vol = top.components(samples).get(tuple(range(s.chart.dim)),
                                      np.zeros(len(samples)))
    ok = _finite_rows(*forms.values())
    _, sig, Vt = np.linalg.svd(_skew_rows(np.where(ok[:, None, None], W, 0.0)))
    margins = []
    for i, p in enumerate(samples):
        if not ok[i]:
            bad = _not_finite({name: v[i] for name, v in forms.items()})
            return Verdict(FAIL, witness=p,
                           message=f"{bad} is not finite at the witness")
        if vol[i] <= tau:
            return Verdict(FAIL, witness=p,
                           message=f"lambda^omega^{n} = {vol[i]:.3e} "
                                   "not positive")
        rank = skew_rank(sig[i], 1e-7)
        if rank != s.chart.dim - 1:     # the kernel is not a line
            return Verdict(FAIL, witness=p,
                           message="ker omega is not one-dimensional")
        R = Vt[i][rank]
        lam_R = float(lam[i] @ R)
        if lam_R < 0:
            R, lam_R = -R, -lam_R
        if lam_R <= tau:
            return Verdict(FAIL, witness=p,
                           message="lambda(R) not positive")
        resid = np.linalg.norm(dl[i] @ R)
        if resid > max(tau, 100 * h ** 2):
            return Verdict(FAIL, witness=p,
                           message=f"iota_R d lambda = {resid:.2e}")
        dres = np.linalg.norm(dw[i])
        if dres > 1000 * h:
            return Verdict(FAIL, witness=p,
                           message=f"omega not closed: {dres:.2e}")
        margins.append((float(vol[i]), lam_R, resid))
    return Verdict(PASS, margins={"per_sample": margins})


# ---------------------------------------------------------------------------
# flow invariance / normal form / collars
# ---------------------------------------------------------------------------

def flow_invariance_test(h: HyperplaneField, p, t_flow=None, tau=None) -> Verdict:
    """Flow a K_xi-tangent field from p; (phi^* alpha) must stay parallel
    to alpha (constant rank assumed near p)."""
    p = np.asarray(p, dtype=float)
    K = char_dist_at(h, p)
    if K.status != PASS:
        return Verdict(UNDETERMINED, message=K.message)
    if K.subspace.dim == 0:
        return Verdict(PASS, message="K_xi = 0: vacuously invariant")
    step = h.chart.default_h()
    t_flow = 50 * step if t_flow is None else t_flow
    ref = [K.subspace.basis[:, 0]]

    def X(q):
        res = char_dist_at(h, q)
        if res.status != PASS or res.subspace.dim == 0:
            return np.zeros(len(q))
        B = res.subspace.basis
        v = B @ (B.T @ ref[0])
        nv = np.linalg.norm(v)
        if nv < 0.5:       # frame fell out of alignment; re-anchor
            ref[0] = B[:, 0]
            v, nv = ref[0], 1.0
        return v / nv

    phi = lambda q: flow_rk4(X, q, t_flow, step=step)
    pb = pullback(h.alpha, phi, h.chart)
    a0 = h.alpha_at(p)
    a1 = pb.eval_at(p)
    wedge = np.outer(a1, a0) - np.outer(a0, a1)
    resid = np.linalg.norm(wedge) / (np.linalg.norm(a0) * np.linalg.norm(a1))
    tol = 100 * step if tau is None else tau
    if resid > tol:
        return Verdict(FAIL, margins={"residual": resid}, witness=p,
                       message=f"pullback not parallel: {resid:.2e}")
    return Verdict(PASS, margins={"residual": resid})


def normal_form_verify(h: HyperplaneField, phi, k, model_chart, samples,
                       tau=1e-6) -> Verdict:
    """phi^* alpha must be a positive multiple of dz + sum_1^k x_i dy_i.

    ``model_chart`` names must contain z, x1..xk, y1..yk.
    """
    pb = pullback(h.alpha, phi, model_chart)
    target = {model_chart.index("z"): sp.Integer(1)}
    for i in range(1, k + 1):
        target[model_chart.index(f"y{i}")] = sp.Symbol(f"x{i}")
    tgt = FormFieldNum.from_symbolic(model_chart, 1,
                                     {(i,): e for i, e in target.items()})
    for p in samples:
        a = pb.eval_at(p)
        b = tgt.eval_at(p)
        f = float(a @ b) / float(b @ b)
        resid = np.linalg.norm(a - f * b) / max(np.linalg.norm(a), 1e-30)
        if f <= 0 or resid > tau:
            return Verdict(FAIL, witness=p,
                           margins={"f": f, "residual": resid},
                           message="not a positive multiple of the order-"
                                   f"{k} normal form")
    return Verdict(PASS)


def collar_chart(chart: Chart, T):
    return Chart(("t",) + tuple(chart.names), ((0.0, T),) + tuple(chart.box),
                 periodic=chart.periodic)


def _shift_field(field_M: FormFieldNum, product: Chart):
    """Reindex a field on M to the collar chart [0,T] x M (t has index 0)."""
    out = {tuple(i + 1 for i in key): (lambda f: lambda p: f(p[1:]))(fn)
           for key, fn in field_M.coeffs.items()}
    return FormFieldNum(product, field_M.degree, out)


def collar_extend(h: HyperplaneField, Omega_M: FormFieldNum, T, samples_M,
                  t_values=(0.0, 0.5, 1.0), tau=1e-9) -> tuple:
    """Omega = d(t alpha) + Omega_M on [0,T] x M; checks Omega^{n+1} > 0."""
    product = collar_chart(h.chart, T)
    alpha_c = _shift_field(h.alpha, product)
    dalpha_c = _shift_field(h.dalpha, product)
    omega_c = _shift_field(Omega_M, product)
    dt = FormFieldNum(product, 1, {(0,): lambda p: 1.0})
    t_coord = lambda p: p[0]

    Omega = dt.wedge(alpha_c) + dalpha_c.scale(t_coord) + omega_c
    n1 = (product.dim) // 2
    top = Omega.wedge_power(n1)
    key = tuple(range(product.dim))
    for tv in t_values:
        for p in samples_M:
            q = np.concatenate([[tv * T], p])
            vol = top.components(q).get(key, 0.0) / math.factorial(n1)
            if vol <= tau:
                return Omega, Verdict(FAIL, witness=q,
                                      message=f"Omega^{n1} = {vol:.3e} "
                                              "not positive on the collar")
    return Omega, Verdict(PASS)


def deformation_collar(h: HyperplaneField, Omega_M: FormFieldNum,
                       beta: FormFieldNum, T, rho=None, samples_M=(),
                       max_retries=4, tau=1e-9) -> tuple:
    """Omega = d(t alpha) + Omega_M + d(rho(t) beta) with rho(0)=0, rho(T)=1.

    Precondition: (Omega_M + s d beta)|_{K_xi} nondegenerate for s in [0,1].
    Retries with flatter rho (doubling T) before giving up UNDETERMINED.
    """
    dbeta = d_fd(beta)
    xis = []                # xi at each sample, for the retries below
    for p in samples_M:
        xis.append(h.xi_basis(p))
        K = char_dist_at(h, p, xi=xis[-1])
        if K.status != PASS:
            return None, Verdict(UNDETERMINED, message=K.message)
        if K.subspace.dim == 0:
            continue
        for sv in np.linspace(0, 1, 5):
            MK = K.subspace.restrict(Omega_M.eval_at(p)
                                     + sv * dbeta.eval_at(p))
            if abs(pfaffian(MK)) <= tau * max(np.linalg.norm(MK), 1e-30):
                return None, Verdict(
                    FAIL, witness=p,
                    message=f"(Omega_M + s d beta) degenerate on K_xi at "
                            f"s={sv:g}: precondition")
    T_cur = T
    for attempt in range(max_retries + 1):
        product = collar_chart(h.chart, T_cur)
        alpha_c = _shift_field(h.alpha, product)
        dalpha_c = _shift_field(h.dalpha, product)
        omega_c = _shift_field(Omega_M, product)
        beta_c = _shift_field(beta, product)
        dbeta_c = _shift_field(dbeta, product)
        Tc = T_cur
        rho_fn = rho if rho is not None else (
            lambda t, Tc=Tc: 3 * (t / Tc) ** 2 - 2 * (t / Tc) ** 3)
        eps = 1e-6 * Tc
        # np.minimum/np.maximum so the collar form also takes a batch
        drho = lambda t, Tc=Tc: (rho_fn(np.minimum(t + eps, Tc)) -
                                 rho_fn(np.maximum(t - eps, 0.0))) / (
            np.minimum(t + eps, Tc) - np.maximum(t - eps, 0.0))
        dt = FormFieldNum(product, 1, {(0,): lambda p: 1.0})
        Omega = (dt.wedge(alpha_c) + dalpha_c.scale(lambda p: p[0])
                 + omega_c + dt.wedge(beta_c).scale(lambda p: drho(p[0]))
                 + dbeta_c.scale(lambda p: rho_fn(p[0])))
        n1 = product.dim // 2
        top = Omega.wedge_power(n1)
        key = tuple(range(product.dim))
        ok = True
        for tv in np.linspace(0, 1, 5):
            for p, xi in zip(samples_M, xis):
                q = np.concatenate([[tv * T_cur], p])
                vol = top.components(q).get(key, 0.0) / math.factorial(n1)
                if vol <= tau:
                    ok = False
                    break
                slice_form = xi.restrict(Omega_M.eval_at(p)
                                         + rho_fn(tv * T_cur)
                                         * dbeta.eval_at(p))
                da_xi = xi.restrict(h.dalpha.eval_at(p))
                if pencil_positive(SkewPair(slice_form, da_xi),
                                   closed=True).status == FAIL:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Omega, Verdict(PASS, margins={"T": T_cur,
                                                 "retries": attempt})
        T_cur *= 2
        rho = None       # retry with the default, flatter profile
    return None, Verdict(UNDETERMINED,
                         message=f"no (T, rho) found up to T={T_cur / 2:g}")


# ---------------------------------------------------------------------------
# open-book collars
# ---------------------------------------------------------------------------

_r = sp.Symbol("r")


def hermite_segment(x0, x1, y0, m0, y1, m1, var=_r):
    """Cubic on [x0, x1] matching values and slopes at both ends (C^1 glue)."""
    t = (var - x0) / (x1 - x0)
    w = x1 - x0
    return (y0 * (2 * t**3 - 3 * t**2 + 1) + m0 * w * (t**3 - 2 * t**2 + t)
            + y1 * (-2 * t**3 + 3 * t**2) + m1 * w * (t**3 - t**2))


@dataclass(frozen=True)
class OpenBookProfiles:
    """Radial profiles (f, g, h, l) on [0, delta] as sympy expressions in r.

    f interpolates the page form down (1 near the binding, 0 at the outer
    rim), g = 1 - f brings in d(theta), h carries the rotational part of the
    ambient two-form (h = r near the binding so it closes up smoothly in
    Cartesian coordinates), l is the exact potential ramp.
    """

    f: sp.Expr
    g: sp.Expr
    h: sp.Expr
    l: sp.Expr
    delta: float
    stages: tuple      # (delta1, a, b, delta2)


def default_profiles(delta=1.0, stages=None) -> OpenBookProfiles:
    d1, a, b, d2 = stages if stages else (0.15 * delta, 0.3 * delta,
                                          0.6 * delta, 0.8 * delta)
    f = sp.Piecewise((1, _r <= a),
                     (hermite_segment(a, b, 1, 0, 0, 0), _r <= b),
                     (0, True))
    g = sp.Piecewise((0, _r <= a),
                     (hermite_segment(a, b, 0, 0, 1, 0), _r <= b),
                     (1, True))
    h = sp.Piecewise((_r, _r <= d1),
                     (hermite_segment(d1, a, d1, 1, sp.Rational(1, 2), 0),
                      _r <= a),
                     (sp.Rational(1, 2), _r <= b),
                     (hermite_segment(b, d2, sp.Rational(1, 2), 0, 0, 0),
                      _r <= d2),
                     (0, True))
    l = sp.Piecewise((0, _r <= d1),
                     (hermite_segment(d1, a, 0, 0, a / 2, sp.Rational(1, 2)),
                      _r <= a),
                     (_r / 2, _r <= b),
                     (hermite_segment(b, d2, b / 2, sp.Rational(1, 2), d2, 1),
                      _r <= d2),
                     (_r, True))
    return OpenBookProfiles(f, g, h, l, delta, (d1, a, b, d2))


def profile_constraints(pr: OpenBookProfiles, grid=400, tau=1e-9) -> Verdict:
    """Numeric audit of the collar profile conditions on (0, delta]."""
    fns = {}
    for name in ("f", "g", "h", "l"):
        e = getattr(pr, name)
        fns[name] = sp.lambdify(_r, e, "math")
        fns[name + "p"] = sp.lambdify(_r, sp.diff(e, _r), "math")
    rs = np.linspace(pr.delta / grid, pr.delta, grid)
    margins = {"shs_residual": 0.0}
    for r in rs:
        f, g, h, l = (fns[k](r) for k in "fghl")
        fp, gp, hp, lp = (fns[k + "p"](r) for k in ("f", "g", "h", "l"))
        if fp > tau or gp < -tau or lp < -tau or h < -tau:
            return Verdict(FAIL, witness=r,
                           message="monotonicity/sign constraint violated")
        if f * f + g * g <= tau:
            return Verdict(FAIL, witness=r, message="f and g both vanish")
        if abs(f * h) <= tau and abs(g * lp) <= tau:
            return Verdict(FAIL, witness=r,
                           message="degenerate slice: f*h = g*l' = 0")
        if abs(fp) > tau and abs(g) <= tau:
            return Verdict(FAIL, witness=r, message="g = 0 where f' != 0")
        if abs(gp) > tau and abs(f) <= tau:
            return Verdict(FAIL, witness=r, message="f = 0 where g' != 0")
        margins["shs_residual"] = max(margins["shs_residual"],
                                      abs(-h * fp - lp * gp))
    # binding end: the rotational profile must vanish linearly like r itself
    # so that h dr^dtheta closes up to dx^dy across r = 0.
    for r in (pr.delta * 1e-3, pr.delta * 1e-2):
        if abs(fns["h"](r) / r - 1.0) > 1e-6:
            return Verdict(FAIL, witness=r,
                           message="h(r)/r != 1 near the binding")
    if abs(fns["f"](pr.delta * 1e-3) - 1.0) > tau:
        return Verdict(FAIL, message="f != 1 near the binding")
    if abs(fns["g"](pr.delta * (1 - 1e-3)) - 1.0) > tau:
        return Verdict(FAIL, message="g != 1 at the outer rim")
    return Verdict(PASS, margins=margins)


@dataclass
class OpenBookPair:
    chart: Chart
    h: HyperplaneField
    Omega: FormFieldNum
    profiles: OpenBookProfiles
    profile_verdict: Verdict
    n: int
    r_index: int
    base_tables: dict


def open_book_confoliation(n, profiles: OpenBookProfiles = None,
                           delta=1.0) -> OpenBookPair:
    """Collar model near a solid-torus page region.

    The base contact block is a circle for n = 1 and a Hopf-coordinate
    three-sphere chart for n = 2; the collar coordinates (r, theta) are the
    last two.  alpha = f*alpha_B + g*dtheta and
    Omega = Omega_B + h dr^dtheta - l' dr^alpha_B - l dalpha_B.
    """
    pr = profiles if profiles is not None else default_profiles(delta)
    f, g, hh, ll = pr.f, pr.g, pr.h, pr.l
    lp = sp.diff(ll, _r)
    two_pi = 2 * math.pi
    if n == 1:
        chart = Chart(("b", "r", "theta"),
                      ((0.0, two_pi), (0.0, pr.delta), (0.0, two_pi)),
                      periodic=("b", "theta"))
        alpha_tab = {"b": f, "theta": g}
        # base block is one-dimensional: Omega_B = 0 and dalpha_B = 0
        omega_tab = {("r", "theta"): hh, ("b", "r"): lp}
    elif n == 2:
        chart = Chart(("eta", "phi1", "phi2", "r", "theta"),
                      ((0.25, 1.3), (0.0, two_pi), (0.0, two_pi),
                       (0.0, pr.delta), (0.0, two_pi)),
                      periodic=("phi1", "phi2", "theta"))
        eta = sp.Symbol("eta")
        cc, ss = sp.cos(eta) ** 2, sp.sin(eta) ** 2
        # alpha_B = sin^2 dphi1 + cos^2 dphi2 so alpha_B ^ dalpha_B is a
        # positive multiple of the chart volume in this coordinate order
        alpha_tab = {"phi1": f * ss, "phi2": f * cc, "theta": g}
        # Omega_B = 2 dalpha_B keeps (2 - l) positive out to the rim
        s2 = sp.sin(2 * eta)
        omega_tab = {
            ("eta", "phi1"): (2 - ll) * s2,
            ("eta", "phi2"): -(2 - ll) * s2,
            ("r", "theta"): hh,
            ("phi1", "r"): lp * ss,
            ("phi2", "r"): lp * cc,
        }
    else:
        raise ValueError("open-book collar models are built for n = 1 or 2")
    audit = profile_constraints(pr)
    if audit.status == FAIL:
        raise ValueError(f"profile constraint violated: {audit.message}")
    h_field = HyperplaneField.from_symbolic(
        chart, {k: v for k, v in alpha_tab.items()})
    Omega = FormFieldNum.from_symbolic(chart, 2, omega_tab)
    return OpenBookPair(chart, h_field, Omega, pr, audit,
                        n, chart.index("r"), {"alpha": alpha_tab,
                                              "omega": omega_tab})


def open_book_samples(pair: OpenBookPair, count=40, seed=0, r_min=None):
    """``count`` seeded points of the collar chart (rows of an array) with
    the radius in [r_min, 0.97 delta]."""
    lo = 0.02 * pair.profiles.delta if r_min is None else r_min
    hi = 0.97 * pair.profiles.delta
    rng = np.random.default_rng(seed)
    out = np.empty((count, pair.chart.dim))
    for p in out:
        p[:] = [rng.uniform(a + 1e-3 * (b - a), b - 1e-3 * (b - a))
                for a, b in pair.chart.box]
        p[pair.r_index] = rng.uniform(lo, hi)
    return out


def open_book_shs_residual(pair: OpenBookPair, grid=200):
    """max |-h f' - l' g'| over the radial grid: the stable Hamiltonian
    obstruction for the collar pair."""
    pr = pair.profiles
    e = (-pr.h * sp.diff(pr.f, _r) - sp.diff(pr.l, _r) * sp.diff(pr.g, _r))
    fn = sp.lambdify(_r, e, "math")
    rs = np.linspace(pr.delta / grid, pr.delta * (1 - 1e-9), grid)
    return max(abs(fn(r)) for r in rs)


# ---------------------------------------------------------------------------
# bLob pointwise checks
# ---------------------------------------------------------------------------

@dataclass
class BLobData:
    """Sampled description of a candidate bordered Lagrangian blob.

    ``psi`` embeds the N chart into the ambient chart; the binding sits at
    ``radial = 0`` and the boundary at the outer end of the radial interval.
    ``KN_basis(p)`` gives columns spanning K_N in N coordinates.  The optional
    splitting data (``FU_basis``, ``gamma``, ``tangent_families``) feed
    :func:`transversely_exact_check`.
    """

    N_chart: Chart
    psi: object                  # callable N point -> ambient point
    radial_index: int
    theta_index: int
    KN_basis: object             # callable N point -> (dim N, k) array
    binding_normal_indices: tuple  # N coords transverse to the binding
    FU_basis: object = None      # callable ambient point -> (dim M, f) columns
    gamma: FormFieldNum = None
    tangent_families: dict = None  # name -> callable N point -> ambient columns


def _psi_push(b: BLobData, pN, V, ambient_h):
    J = fd_jacobian(b.psi, pN, ambient_h)
    return J @ V


def blob_pointwise_check(c: ConfoliationData, b: BLobData, samples_N,
                         tau=1e-6) -> Verdict:
    """Pointwise items of the blob definition; global items are SKIPPED."""
    sub = {}
    hstep = c.h.chart.default_h()
    r_lo, r_hi = b.N_chart.box[b.radial_index]

    # item 1: constant nonzero corank along a tube around psi(N)
    ranks = set()
    for p in samples_N:
        K = char_dist_at(c.h, np.asarray(b.psi(p), dtype=float),
                         c.tau_rank)
        if K.status != PASS:
            sub["item1"] = Verdict(UNDETERMINED, witness=p,
                                   message=K.message)
            break
        ranks.add(K.subspace.dim)
    else:
        if ranks == {0} or len(ranks) != 1:
            sub["item1"] = Verdict(FAIL, margins={"ranks": sorted(ranks)},
                                   message="corank not constant and nonzero")
        else:
            sub["item1"] = Verdict(PASS, margins={"rank": ranks.pop()})
    rankK = sub["item1"].margins.get("rank", 0)

    # item 2: psi^* alpha = f dTheta, f positive inside, linear decay at the
    # boundary, elliptic model near the binding
    pb = pullback(c.h.alpha, b.psi, b.N_chart, h=hstep)
    ok = Verdict(PASS)
    for p in samples_N:
        comp = pb.components(p)
        fval = comp.get((b.theta_index,), 0.0)
        others = math.sqrt(sum(v * v for k, v in comp.items()
                               if k != (b.theta_index,)))
        scale = max(abs(fval), 1.0)
        if others > tau * scale:
            ok = Verdict(FAIL, witness=p,
                         message="psi^* alpha has components off dTheta")
            break
        if fval <= 0 and r_lo + 1e-6 < p[b.radial_index] < r_hi - 1e-6:
            ok = Verdict(FAIL, witness=p,
                         message="page coefficient not positive inside N")
            break
    if ok.status == PASS:
        mid = samples_N[0]

        def f_at(r):
            q = mid.copy()
            q[b.radial_index] = r
            return pb.components(q).get((b.theta_index,), 0.0)

        eps = (r_hi - r_lo) * 1e-3
        s1 = f_at(r_hi - eps) / eps
        s2 = f_at(r_hi - 2 * eps) / (2 * eps)
        if not (s1 > 0 and abs(s1 - s2) < 0.05 * abs(s1)):
            ok = Verdict(FAIL, margins={"slopes": (s1, s2)},
                         message="no linear decay of f at the boundary")
        else:
            c1 = f_at(r_lo + eps) / eps ** 2
            c2 = f_at(r_lo + 2 * eps) / (2 * eps) ** 2
            if not (c1 > 0 and abs(c1 - c2) < 0.05 * abs(c1)):
                ok = Verdict(FAIL, margins={"elliptic": (c1, c2)},
                             message="psi^* alpha is not an elliptic "
                                     "r^2 dTheta model near the binding")
            else:
                ok = Verdict(PASS, margins={"boundary_slope": s1,
                                            "elliptic_coeff": c1})
    sub["item2"] = ok

    # item 3a: K_N tangent to the binding, the boundary and the Theta-fibers
    ok = Verdict(PASS)
    for p in samples_N:
        V = np.asarray(b.KN_basis(p), dtype=float)
        r = p[b.radial_index]
        bad = abs(V[b.theta_index]).max() > tau
        bad = bad or abs(V[b.radial_index]).max() > tau
        if r < r_lo + 0.1 * (r_hi - r_lo):
            bad = bad or max(abs(V[i]).max()
                             for i in b.binding_normal_indices) > tau
        if bad:
            ok = Verdict(FAIL, witness=p,
                         message="K_N not tangent to binding/boundary/fibers")
            break
    sub["item3a"] = ok

    # item 3b: K_N is Lagrangian in (K_xi, mu)
    ok = Verdict(PASS)
    for p in samples_N:
        V = np.asarray(b.KN_basis(p), dtype=float)
        if rankK and V.shape[1] * 2 != rankK:
            ok = Verdict(FAIL, witness=p,
                         message=f"dim K_N = {V.shape[1]} != rank/2")
            break
        pM = np.asarray(b.psi(p), dtype=float)
        W = _psi_push(b, p, V, hstep)
        mu = c.mu.eval_at(pM)
        resid = np.linalg.norm(W.T @ mu @ W)
        if resid > tau * max(np.linalg.norm(mu), 1.0):
            ok = Verdict(FAIL, witness=p,
                         message=f"mu does not vanish on K_N: {resid:.2e}")
            break
    sub["item3b"] = ok

    sub["item3c"] = Verdict(SKIPPED, message="global condition "
                            "(fiber compactness) not certifiable from samples")
    sub["item3d"] = Verdict(SKIPPED, message="global condition "
                            "(monodromy triviality) not certifiable from samples")
    return Verdict(aggregate(sub), sub=sub)


def _subspace_intersection(A, B, tol=1e-9):
    """Orthonormal basis of span(A) `cap` span(B)."""
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    N = null_space(np.hstack([A, -B]), rcond=tol)
    if N.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    X = A @ N[:A.shape[1], :]
    Q, R = np.linalg.qr(X)
    keep = np.abs(np.diag(R)) > tol * max(1.0, np.abs(R).max())
    return Q[:, : int(keep.sum())]


def transversely_exact_check(c: ConfoliationData, b: BLobData,
                             Omega_M: FormFieldNum, samples_N,
                             tau=1e-6, h=1e-4) -> Verdict:
    """F_U complements K_xi inside the named tangent families, gamma kills
    K_xi, and Omega_M - d(gamma) vanishes on F_U.

    The last residual is allowed max(tau, 100 h) for the finite-difference
    d(gamma); ``h`` scales that band only (d_fd takes the chart's step).
    """
    if b.FU_basis is None or b.gamma is None:
        raise ValueError("transverse exactness needs FU_basis and gamma "
                         "in the blob data")
    gamma, FU_basis = b.gamma, b.FU_basis
    dgam = d_fd(gamma)
    sub = {}
    for name, fam in (b.tangent_families or {}).items():
        ok = Verdict(PASS)
        for p in samples_N:
            pM = np.asarray(b.psi(p), dtype=float)
            S = np.asarray(fam(p), dtype=float)
            F = np.asarray(FU_basis(pM), dtype=float)
            K = char_dist_at(c.h, pM, c.tau_rank)
            if K.status != PASS:
                ok = Verdict(UNDETERMINED, witness=p, message=K.message)
                break
            FS = _subspace_intersection(F, S)
            KS = _subspace_intersection(K.subspace.basis, S)
            joint = np.hstack([FS, KS])
            dim_span = np.linalg.matrix_rank(joint, tol=1e-8) if joint.size \
                else 0
            dim_S = np.linalg.matrix_rank(S, tol=1e-8)
            if FS.shape[1] + KS.shape[1] != dim_S or dim_span != dim_S:
                ok = Verdict(FAIL, witness=p,
                             margins={"dim_F_cap": FS.shape[1],
                                      "dim_K_cap": KS.shape[1],
                                      "dim_S": dim_S},
                             message=f"F_U cap {name} does not complement "
                                     f"K_xi cap {name}")
                break
        sub[f"complement_{name}"] = ok
    ok = Verdict(PASS)
    for p in samples_N:
        pM = np.asarray(b.psi(p), dtype=float)
        K = char_dist_at(c.h, pM, c.tau_rank)
        if K.status != PASS:
            ok = Verdict(UNDETERMINED, witness=p, message=K.message)
            break
        gK = np.linalg.norm(gamma.eval_at(pM) @ K.subspace.basis) \
            if K.subspace.dim else 0.0
        F = np.asarray(FU_basis(pM), dtype=float)
        W = Omega_M.eval_at(pM) - dgam.eval_at(pM)
        rF = np.linalg.norm(F.T @ W @ F)
        scale = max(np.linalg.norm(Omega_M.eval_at(pM)), 1.0)
        if gK > tau * scale or rF > max(tau, 100 * h) * scale:
            ok = Verdict(FAIL, witness=p,
                         margins={"gamma_on_K": gK, "residual_FU": rF},
                         message="transverse exactness residuals too large")
            break
    sub["exactness"] = ok
    return Verdict(aggregate(sub), sub=sub)
