"""Manifold-level verifiers: order fields, confoliation verdicts, stable
Hamiltonian pairs, the open-book constructor, and pointwise bLob checks.

All verifiers are pointwise at sampled points and return Verdict records.
Samples are an ``(N, dim)`` float array, one point per row, and a witness
is one of its rows.  Tolerances are keyword arguments, among them the
finite-difference step ``h`` that scales the bands of ``shs_check`` and
``transversely_exact_check``.
The sample loops of ``order_at``/``rank_stratify``, ``confoliation_check``
and ``shs_check`` evaluate their forms once on all samples (chartfield's
batched evaluation) and then decide sample by sample in sample order, so a
FAIL's witness is the first failing sample.  Status vocabulary: PASS / FAIL
(with witness sample) / UNDETERMINED (tolerance ambiguity) / SKIPPED
(declared-global conditions that samples cannot certify).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
    DEFAULT_TAU_RANK,
    FAIL,
    PASS,
    RAY_TOL,
    UNDETERMINED,
    BasedSubspace,
    SkewPair,
    _derivative,
    _qadd,
    _qcompose,
    _qeval,
    _qmul,
    _skew_rows,
    _trim,
    kernel_with_tol,
    null_space,
    odd_rank_message,
    pencil_certified,
    pencil_coeffs,
    pencil_positive,
    pfaffian,
    sigmas_at_cut,
    skew_rank,
    unit_common_root,
    unit_negative_point,
    unit_roots,
    unit_zero_not_shared,
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
    with a non-finite entry, else None."""
    return next((name for name, v in values.items()
                 if not np.isfinite(v).all()), None)


def _finite_rows(*arrays):
    """Per point (leading axis): are all the arrays' entries finite?"""
    ok = True
    for a in arrays:
        ok = ok & np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    return ok


def _norms(T):
    """np.linalg.norm of each T[i], computed as numpy computes it (the square
    root of the flattened dot product), so a row's norm is its single-point
    norm bit for bit; see _rescaled for a row whose squares overflow."""
    flat = T.reshape(len(T), math.prod(T.shape[1:]))
    with np.errstate(over="ignore"):
        return _rescaled(np.sqrt(np.array([r.dot(r) for r in flat])), flat)


def _field_norms(f: FormFieldNum, P):
    """Per row of P (N, dim), the norm of f's components there: squares
    summed in key order (see _rescaled for a row whose squares overflow)."""
    cols = list(f.components(P).values())
    with np.errstate(over="ignore"):
        norms = np.sqrt(sum((v * v for v in cols), np.zeros(len(P))))
    return _rescaled(norms, np.stack(cols, axis=1)) if cols else norms


def _rescaled(norms, flat):
    """``norms``, with big * norm(row / big) for each finite row of ``flat``
    whose norm overflowed (big: its largest entry); others keep their bits."""
    for i in np.flatnonzero(norms == np.inf):
        if np.isfinite(flat[i]).all():
            big = np.abs(flat[i]).max()
            row = flat[i] / big
            norms[i] = big * np.sqrt(row.dot(row))
    return norms


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


class HyperplaneField:
    """ker(alpha) on a chart, with its dalpha (exact when built from a
    coefficient table)."""

    def __init__(self, chart, alpha: FormFieldNum, dalpha: FormFieldNum,
                 symbolic_table: dict = None):
        self.chart = chart
        self.alpha = alpha
        self.symbolic_table = symbolic_table
        self.dalpha = dalpha
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


def order_at(h: HyperplaneField, p, tau_rank=DEFAULT_TAU_RANK):
    """Largest k with alpha ^ (dalpha)^k nonzero at p, by tensor norms.

    The scale for the k-th norm is ||alpha|| * max(||dalpha||, 1)^k; values
    inside the band (1e-2..1) * tau * scale are ambiguous -> UNDETERMINED.
    At N points ``(N, dim)`` the result is a list, one OrderResult each; at
    one point ``(dim,)``, its OrderResult.
    """
    P = np.atleast_2d(p)
    na, nda = _norms(h.alpha.eval_at(P)), _norms(h.dalpha.eval_at(P))
    norms = [_field_norms(f, P) for f in h.wedge_powers()]
    with np.errstate(over="ignore"):        # a scale may overflow to inf
        out = [_order([float(x[i]) for x in norms], na[i], max(nda[i], 1.0),
                      h.n_max(), tau_rank) for i in range(len(P))]
    return out if np.ndim(p) == 2 else out[0]


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


def char_dist_at(h: HyperplaneField, p, tau_rank=DEFAULT_TAU_RANK):
    """(K_xi)_p = ker(dalpha restricted to ker alpha), in ambient coords."""
    xi = h.xi_basis(p)
    M = xi.restrict(h.dalpha.eval_at(p))
    res = kernel_with_tol(M, tau_rank)
    if res.status != PASS:
        return res
    amb = xi.basis @ res.subspace.basis
    res.subspace = BasedSubspace(h.chart.dim, amb) if amb.shape[1] else \
        BasedSubspace(h.chart.dim, np.zeros((h.chart.dim, 0)))
    return res


def rank_stratify(h: HyperplaneField, samples, tau_rank=DEFAULT_TAU_RANK):
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


def _rank_band(tau_rank, rank, sigmas, witness) -> Verdict:
    """UNDETERMINED where the rank cut at ``tau_rank`` leaves an odd rank of
    dalpha on xi; the margin is the singular values on either side of it."""
    return Verdict(UNDETERMINED,
                   {"tolerance": "tau_rank", "tau": tau_rank,
                    "margin": sigmas_at_cut(rank, sigmas).tolist()},
                   witness, odd_rank_message(rank, sigmas))


@np.errstate(over="ignore")
def confoliation_check(c: ConfoliationData, samples) -> Verdict:
    """mu symplectically compatible: mu + t*dalpha nondegenerate on xi for
    t > 0, and mu nondegenerate on K_xi, at every sample.

    alpha, dalpha and mu are evaluated once on all samples, and the frames
    of xi, the kernels of dalpha on xi and the pencil coefficients are
    stacked.  A pencil with conetame.pencil_certified's exact sign
    certificate PASSes; the others take pencil_positive's exact Sturm path.
    Samples with anything left to decide are visited in order.  A value
    that overflows to inf reaches the verdict without a numpy warning.
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
    S_mu, S_da = _skew_rows(MU_xi), _skew_rows(DA_xi)
    _, sig, Vt = np.linalg.svd(S_da)
    certified = pencil_certified(pencil_coeffs(S_mu, S_da))
    # dalpha|xi of full rank m - 1 leaves K_xi = 0: nothing more to decide
    full = sig[:, -1] > c.tau_rank * np.maximum(sig[:, 0], 1.0)
    worst = np.inf
    for i in np.flatnonzero(~(ok & certified & full)):
        p = samples[i]
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
        if not certified[i]:
            pv = pencil_positive(SkewPair(MU_xi[i], DA_xi[i],
                                          ("mu", "dalpha")))
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
            return _rank_band(c.tau_rank, rank, sig[i], p)
        if rank < m - 1:                # K_xi = ker(dalpha|xi) is nonzero
            K = B[i] @ Vt[i][rank:].T
            mu_K = K.T @ MU[i] @ K
            pf = pfaffian(mu_K)
            scale = max(_norms(mu_K[None])[0], 1e-30) ** (K.shape[1] // 2)
            if abs(pf) <= c.tau_pos * scale:
                return Verdict(FAIL, witness=p,
                               message="mu degenerate on K_xi")
            worst = min(worst, abs(pf) / scale)
    return Verdict(PASS, margins={"min_K_pfaffian": worst})


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


@np.errstate(over="ignore")
def shs_check(s: StableHamiltonianPair, samples, tau=1e-9,
              h=1e-4) -> Verdict:
    """lambda ^ omega^n > 0, d omega = 0, ker omega inside ker d lambda.

    The forms are evaluated once on all samples and the kernels of omega
    are one stacked SVD; the verdicts stay per sample, in order.  The
    finite-difference residuals are allowed the bands ||iota_R d lambda||
    <= max(tau, 100 h^2) and ||d omega|| <= 1000 h; ``h`` scales those
    bands only (d_fd takes the chart's step).  A value that overflows to
    inf fails its band without a numpy warning.
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
        if resid > max(tau, 100 * (h * h)):   # h ** 2 raises on overflow
            return Verdict(FAIL, witness=p,
                           message=f"iota_R d lambda = {resid:.2e}")
        dres = np.linalg.norm(dw[i])
        if dres > 1000 * h:
            return Verdict(FAIL, witness=p,
                           message=f"omega not closed: {dres:.2e}")
        margins.append((float(vol[i]), lam_R, resid))
    return Verdict(PASS, margins={"per_sample": margins})


# ---------------------------------------------------------------------------
# flow invariance
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


# ---------------------------------------------------------------------------
# open-book collars
# ---------------------------------------------------------------------------

_r = sp.Symbol("r")


def hermite_segment(x0, x1, y0, m0, y1, m1):
    """Cubic in r on [x0, x1] matching values and slopes at both ends (C^1
    glue)."""
    t = (_r - x0) / (x1 - x0)
    w = x1 - x0
    return (y0 * (2 * t**3 - 3 * t**2 + 1) + m0 * w * (t**3 - 2 * t**2 + t)
            + y1 * (-2 * t**3 + 3 * t**2) + m1 * w * (t**3 - t**2))


class Hermite(NamedTuple):
    """A piece given by :func:`hermite_segment`'s data."""

    x0: object
    x1: object
    y0: object
    m0: object
    y1: object
    m1: object


@dataclass(frozen=True)
class Profile:
    """A radial profile in r, piece by piece.

    Piece k holds for ``breaks[k-1] < r <= breaks[k]`` and the last piece
    for every r above the last break.  A piece is :class:`Hermite` data or a
    tuple of polynomial coefficients in r, constant term first; numbers are
    ints, floats or sympy Rationals.  ``expr`` is the ``sp.Piecewise`` the
    chart tables compile.  ``exact`` is the same profile over Q (a float
    converts exactly, a Hermite width ``x1 - x0`` is taken in Q): the
    breakpoints and one coefficient list per piece.
    """

    breaks: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) != len(self.breaks) + 1:
            raise ValueError("a profile has one piece more than breakpoints")
        if not all(a < b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError("profile breakpoints must increase")

    @functools.cached_property
    def expr(self):
        conds = [_r <= x for x in self.breaks] + [True]
        return sp.Piecewise(*((_piece_expr(p), c)
                              for p, c in zip(self.pieces, conds)))

    @functools.cached_property
    def exact(self):
        return (tuple(map(Fraction, self.breaks)),
                tuple(_qcompose(p, -lo / w, 1 / w) for lo, w, p in self.local))

    @functools.cached_property
    def local(self):
        """Per piece ``(lo, w, p)`` over Q with the piece equal to
        p((r - lo) / w): a Hermite piece in its own variable on [x0, x1], a
        polynomial piece in r itself (lo = 0, w = 1)."""
        return tuple(map(_piece_local, self.pieces))

    def numeric(self, k=0):
        """The k-th derivative of the profile as a numeric callable of r (a
        float or an array), exactly 0.0 on the constant pieces.

        The piece is chosen by ``expr``'s ``r <= break`` rule; its value is
        p^(k)(t) / w^k by Horner's rule in t = (r - lo) / w, with float
        coefficients rounded once from Q, so extreme breakpoints neither
        underflow nor overflow the coefficients.  Every operation acts
        entry by entry, so a point gives the same float alone and in a batch.
        """
        breaks = [float(b) for b in self.exact[0]]
        pieces = []
        for lo, w, p in self.local:
            for _ in range(k):
                p = _derivative(p)
            pieces.append((float(lo), float(w), [float(c) for c in p]))

        def fn(r):
            r = np.asarray(r, dtype=float)
            at = np.searchsorted(breaks, r)
            out = np.zeros(r.shape)
            for j, (lo, w, cs) in enumerate(pieces):
                if not cs:
                    continue
                t = (r - lo) / w
                v = cs[-1]
                for c in reversed(cs[:-1]):
                    v = v * t + c
                for _ in range(k):
                    v = v / w
                out = np.where(at == j, v, out)
            return out
        return fn

    def piece_at(self, r):
        """The exact polynomial that holds at r."""
        breaks, polys = self.exact
        return polys[bisect.bisect_left(breaks, r)]

    def piece_above(self, r):
        """The exact polynomial that holds just above r."""
        breaks, polys = self.exact
        return polys[bisect.bisect_right(breaks, r)]


def _piece_expr(piece):
    if isinstance(piece, Hermite):
        return hermite_segment(*piece)
    return sum(sp.sympify(c) * _r**k for k, c in enumerate(piece))


def _piece_local(piece):
    if not isinstance(piece, Hermite):
        return Fraction(0), Fraction(1), _trim(map(Fraction, piece))
    x0, x1, y0, m0, y1, m1 = map(Fraction, piece)
    w = x1 - x0
    return x0, w, _trim([y0, m0 * w, -3 * y0 - 2 * m0 * w + 3 * y1 - m1 * w,
                         2 * y0 + m0 * w - 2 * y1 + m1 * w])


@dataclass(frozen=True)
class OpenBookProfiles:
    """Radial profiles (f, g, h, l) on [0, delta] as :class:`Profile` pieces.

    f interpolates the page form down (1 near the binding, 0 at the outer
    rim), g = 1 - f brings in d(theta), h carries the rotational part of the
    ambient two-form (h = r near the binding so it closes up smoothly in
    Cartesian coordinates), l is the exact potential ramp.
    """

    f: Profile
    g: Profile
    h: Profile
    l: Profile
    delta: float


def default_profiles(delta=1.0) -> OpenBookProfiles:
    d1, a, b, d2 = 0.15 * delta, 0.3 * delta, 0.6 * delta, 0.8 * delta
    half = sp.Rational(1, 2)
    f = Profile((a, b), ((1,), Hermite(a, b, 1, 0, 0, 0), (0,)))
    g = Profile((a, b), ((0,), Hermite(a, b, 0, 0, 1, 0), (1,)))
    h = Profile((d1, a, b, d2),
                ((0, 1), Hermite(d1, a, d1, 1, half, 0), (half,),
                 Hermite(b, d2, half, 0, 0, 0), (0,)))
    l = Profile((d1, a, b, d2),
                ((0,), Hermite(d1, a, 0, 0, a / 2, half), (0, half),
                 Hermite(b, d2, b / 2, half, d2, 1), (0, 1)))
    return OpenBookProfiles(f, g, h, l, delta)


def _collar_pieces(pr: OpenBookProfiles):
    """(lo, hi, f, g, h, l) over the intervals (lo, hi] between consecutive
    breakpoints of any profile in (0, delta]: one polynomial each."""
    delta = Fraction(pr.delta)
    profs = (pr.f, pr.g, pr.h, pr.l)
    cuts = sorted({x for p in profs for x in p.exact[0] if 0 < x < delta}
                  | {delta})
    for lo, hi in zip([Fraction(0)] + cuts, cuts):
        yield (lo, hi, *(p.piece_at(hi) for p in profs))


def _shs_residual(pr: OpenBookProfiles):
    """max |h f' + l' g'| over (0, delta] as a float: on each piece the
    largest of the exact values at its ends and at the roots of the
    derivative (their floats taken exactly)."""
    worst = 0.0
    for lo, hi, f, g, h, l in _collar_pieces(pr):
        res = _qadd(_qmul(h, _derivative(f)),
                    _qmul(_derivative(l), _derivative(g)))
        if res:
            crit = unit_roots(_qcompose(_derivative(res), lo, hi - lo))
            xs = [lo, hi] + [lo + (hi - lo) * Fraction(s) for s in crit]
            worst = max(worst, *(abs(float(_qeval(res, x))) for x in xs))
    return worst


def profile_constraints(pr: OpenBookProfiles) -> Verdict:
    """Exact audit of the collar profile conditions on (0, delta].

    Between consecutive breakpoints every profile is one polynomial over Q,
    so each condition is decided there with integer Sturm sequences, and a
    FAIL's witness is a point where it fails: f' <= 0, g' >= 0, l' >= 0 and
    h >= 0; f and g never vanish together, nor f h and g l'; g = 0 only
    where f' = 0 and f = 0 only where g' = 0.  At the binding h = r and
    f = 1, and g = 1 at the rim.  The margin ``shs_residual`` is
    max |-h f' - l' g'|, the stable Hamiltonian obstruction.
    """
    for lo, hi, f, g, h, l in _collar_pieces(pr):
        fp, gp, lp = _derivative(f), _derivative(g), _derivative(l)
        F, G, H, Fp, Gp, Lp = (_qcompose(p, lo, hi - lo)
                               for p in (f, g, h, fp, gp, lp))
        for sign_name, p in (("f' > 0", [-c for c in Fp]), ("g' < 0", Gp),
                             ("l' < 0", Lp), ("h < 0", H)):
            s = unit_negative_point(p)
            if s is not None:
                return Verdict(FAIL, witness=float(lo + (hi - lo) * s),
                               message="monotonicity/sign constraint "
                                       f"violated: {sign_name}")
        for message, find in (
                ("f and g both vanish", lambda: unit_common_root(F, G)),
                ("degenerate slice: f*h = g*l' = 0",
                 lambda: unit_common_root(_qmul(F, H), _qmul(G, Lp))),
                ("g = 0 where f' != 0", lambda: unit_zero_not_shared(G, Fp)),
                ("f = 0 where g' != 0", lambda: unit_zero_not_shared(F, Gp))):
            s = find()
            if s is not None:
                return Verdict(FAIL, witness=float(lo + (hi - lo) * s),
                               message=message)
    # binding end: the rotational profile is r itself there, so that
    # h dr^dtheta closes up to dx^dy across r = 0
    if pr.h.piece_above(0) != [0, 1]:
        return Verdict(FAIL, message="h(r) != r near the binding")
    if _qeval(pr.f.piece_above(0), 0) != 1:
        return Verdict(FAIL, message="f != 1 near the binding")
    if _qeval(pr.g.piece_at(Fraction(pr.delta)), Fraction(pr.delta)) != 1:
        return Verdict(FAIL, message="g != 1 at the outer rim")
    return Verdict(PASS, margins={"shs_residual": _shs_residual(pr)})


@dataclass
class OpenBookPair:
    chart: Chart
    h: HyperplaneField
    Omega: FormFieldNum
    profiles: OpenBookProfiles
    profile_verdict: Verdict
    n: int
    r_index: int


def open_book_confoliation(n, profiles: OpenBookProfiles = None,
                           delta=1.0) -> OpenBookPair:
    """Collar model near a solid-torus page region.

    The base contact block is a circle for n = 1 and a Hopf-coordinate
    three-sphere chart for n = 2; the collar coordinates (r, theta) are the
    last two.  alpha = f*alpha_B + g*dtheta and
    Omega = Omega_B + h dr^dtheta - l' dr^alpha_B - l dalpha_B.
    alpha and Omega are compiled from their sympy tables; dalpha is written
    out here with the profiles' exact pieces (``Profile.numeric``).
    """
    pr = profiles if profiles is not None else default_profiles(delta)
    audit = profile_constraints(pr)
    if audit.status == FAIL:
        raise ValueError(f"profile constraint violated: {audit.message}")
    f, g, hh, ll = pr.f.expr, pr.g.expr, pr.h.expr, pr.l.expr
    lp = sp.diff(ll, _r)
    f0, fp, gp = pr.f.numeric(), pr.f.numeric(1), pr.g.numeric(1)
    two_pi = 2 * math.pi
    if n == 1:
        chart = Chart(("b", "r", "theta"),
                      ((0.0, two_pi), (0.0, pr.delta), (0.0, two_pi)),
                      periodic=("b", "theta"))
        alpha_tab = {"b": f, "theta": g}
        # base block is one-dimensional: Omega_B = 0 and dalpha_B = 0
        omega_tab = {("r", "theta"): hh, ("b", "r"): lp}
        # d(f db + g dtheta) = -f' db^dr + g' dr^dtheta
        dalpha = {(0, 1): lambda p: -fp(p[1]), (1, 2): lambda p: gp(p[1])}
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
        # squares as products: numpy's power may round differently on an
        # array than on a scalar
        dalpha = {
            (0, 1): lambda p: 2 * f0(p[3]) * np.sin(p[0]) * np.cos(p[0]),
            (0, 2): lambda p: -2 * f0(p[3]) * np.sin(p[0]) * np.cos(p[0]),
            (1, 3): lambda p: -fp(p[3]) * (np.sin(p[0]) * np.sin(p[0])),
            (2, 3): lambda p: -fp(p[3]) * (np.cos(p[0]) * np.cos(p[0])),
            (3, 4): lambda p: gp(p[3]),
        }
    else:
        raise ValueError("open-book collar models are built for n = 1 or 2")
    tab = _canon_table(chart, alpha_tab)
    h_field = HyperplaneField(chart, FormFieldNum.from_symbolic(chart, 1, tab),
                              FormFieldNum(chart, 2, dalpha),
                              symbolic_table=tab)
    Omega = FormFieldNum.from_symbolic(chart, 2, omega_tab)
    return OpenBookPair(chart, h_field, Omega, pr, audit, n, chart.index("r"))


def open_book_samples(pair: OpenBookPair, count=40, seed=0):
    """``count`` seeded points of the collar chart (rows of an array) with
    the radius in [0.02 delta, 0.97 delta]."""
    lo = 0.02 * pair.profiles.delta
    hi = 0.97 * pair.profiles.delta
    rng = np.random.default_rng(seed)
    out = np.empty((count, pair.chart.dim))
    for p in out:
        p[:] = [rng.uniform(a + 1e-3 * (b - a), b - 1e-3 * (b - a))
                for a, b in pair.chart.box]
        p[pair.r_index] = rng.uniform(lo, hi)
    return out


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
            sub["item1"] = _rank_band(c.tau_rank, K.rank, K.sigmas, p)
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
        W = fd_jacobian(b.psi, p, hstep) @ V
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
    K_xi is found once per sample, the forms once on all samples' images.
    """
    if b.FU_basis is None or b.gamma is None:
        raise ValueError("transverse exactness needs FU_basis and gamma "
                         "in the blob data")
    gamma, FU_basis = b.gamma, b.FU_basis
    PM = np.array([b.psi(p) for p in samples_N], dtype=float).reshape(
        -1, c.h.chart.dim)
    K_at = functools.cache(lambda i: char_dist_at(c.h, PM[i], c.tau_rank))
    sub = {}
    for name, fam in (b.tangent_families or {}).items():
        ok = Verdict(PASS)
        for i, p in enumerate(samples_N):
            S = np.asarray(fam(p), dtype=float)
            F = np.asarray(FU_basis(PM[i]), dtype=float)
            K = K_at(i)
            if K.status != PASS:
                ok = _rank_band(c.tau_rank, K.rank, K.sigmas, p)
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
    G, OM, DG = (f.eval_at(PM) for f in (gamma, Omega_M, d_fd(gamma)))
    for i, p in enumerate(samples_N):
        K = K_at(i)
        if K.status != PASS:
            ok = _rank_band(c.tau_rank, K.rank, K.sigmas, p)
            break
        gK = np.linalg.norm(G[i] @ K.subspace.basis) \
            if K.subspace.dim else 0.0
        F = np.asarray(FU_basis(PM[i]), dtype=float)
        rF = np.linalg.norm(F.T @ (OM[i] - DG[i]) @ F)
        scale = max(np.linalg.norm(OM[i]), 1.0)
        if gK > tau * scale or rF > max(tau, 100 * h) * scale:
            ok = Verdict(FAIL, witness=p,
                         margins={"gamma_on_K": gK, "residual_FU": rF},
                         message="transverse exactness residuals too large")
            break
    sub["exactness"] = ok
    return Verdict(aggregate(sub), sub=sub)
