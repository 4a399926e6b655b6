"""Pointwise skew-symmetric linear algebra for taming questions.

Everything operates on plain numpy matrices expressed in the basis of a
:class:`BasedSubspace`.  Conventions:

* a two-form is the skew matrix ``M`` with ``omega(v, w) = v^T M w``;
* the Pfaffian is normalized so ``Pf([[0, 1], [-1, 0]]) = +1`` and is computed
  by Parlett-Reid skew tridiagonalization with explicit sign tracking (a
  determinant square root would lose the orientation sign);
* pencil positivity is decided exactly: the Pfaffian polynomial's float
  coefficients are rationalized once, and a Sturm sequence over the integers
  counts and isolates its real roots against the ray (no float root finder);
* strict inequalities are never certified through numerical noise: pencil
  roots within 1e-8 of the inspected ray and exhausted feasibility searches
  return UNDETERMINED rather than PASS/FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


PASS = "PASS"
FAIL = "FAIL"
UNDETERMINED = "UNDETERMINED"

DEFAULT_TAU_RANK = 1e-7
DEFAULT_TAU_POS = 1e-9
DEFAULT_TAU_ANGLE = 1e-6
_COEFF_TRUNC = 1e-12     # relative truncation of pencil polynomial coefficients
RAY_TOL = 1e-8           # roots closer than this to the ray: UNDETERMINED
_MAX_BISECT = 4000       # exact bisection steps refining one root's float


def _skew(m):
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


def _skew_rows(M):
    """_skew of each M[i]; entries near the float range may overflow to
    inf, which the callers' checks report."""
    with np.errstate(over="ignore"):
        return 0.5 * (M - np.swapaxes(M, 1, 2))


@dataclass
class BasedSubspace:
    """Columns of ``basis`` span the subspace inside R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray
    orientation: int = +1

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim == 1:
            self.basis = self.basis[:, None]
        if self.basis.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        if self.basis.size:
            self.cond = np.linalg.cond(self.basis)
            if self.cond > 1e12:
                raise ValueError(f"basis columns nearly dependent (cond={self.cond:.2e})")
        else:
            self.cond = 1.0

    @property
    def dim(self):
        return self.basis.shape[1]

    def restrict(self, M):
        """Two-form (or metric) matrix in this basis: B^T M B."""
        return self.basis.T @ np.asarray(M, dtype=float) @ self.basis


@dataclass
class SkewPair:
    """Two alternating forms in a common basis (mu0 + t*mu1 pencils)."""

    mu0: np.ndarray
    mu1: np.ndarray
    labels: tuple = ("mu0", "mu1")

    def __post_init__(self):
        self.mu0 = _skew(self.mu0)
        self.mu1 = _skew(self.mu1)
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("pencil forms must share a shape")


@dataclass
class ComplexStructureMatrix:
    J: np.ndarray
    tau_pos: float = DEFAULT_TAU_POS

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        dev = np.linalg.norm(self.J @ self.J + np.eye(len(self.J)))
        if dev > 1e3 * self.tau_pos:
            raise ValueError(f"not a complex structure: ||J^2+I|| = {dev:.2e}")


@dataclass
class TamingVerdict:
    status: str
    eigenvalues: np.ndarray = None
    null_basis: np.ndarray = None
    angles: np.ndarray = None
    witness: np.ndarray = None
    message: str = ""


@dataclass
class PencilVerdict:
    status: str
    coeffs: np.ndarray = None          # P(t) coefficients, ascending
    roots_on_ray: list = field(default_factory=list)
    message: str = ""


@dataclass
class KernelResult:
    status: str
    subspace: BasedSubspace = None
    rank: int = 0
    sigmas: np.ndarray = None
    message: str = ""


# ---------------------------------------------------------------------------
# kernels and Pfaffians
# ---------------------------------------------------------------------------

def kernel_with_tol(m, tau_rank=DEFAULT_TAU_RANK):
    """Orthonormal numerical kernel of a skew matrix; even rank enforced."""
    m = _skew(m)
    n = len(m)
    if n == 0:
        return KernelResult(PASS, BasedSubspace(0, np.zeros((0, 0))), 0,
                            np.zeros(0))
    U, s, Vt = np.linalg.svd(m)
    rank = skew_rank(s, tau_rank)
    if rank % 2:
        return KernelResult(UNDETERMINED, rank=rank, sigmas=s,
                            message=odd_rank_message(rank, s))
    null = Vt[rank:].T
    return KernelResult(PASS, BasedSubspace(n, null), rank, s)


def skew_rank(s, tau_rank):
    """Numerical rank from singular values s (descending): the number above
    tau_rank * max(s_max, 1)."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > tau_rank * max(smax, 1.0)))


def sigmas_at_cut(rank, s):
    """The singular values on either side of the rank cut."""
    return s[max(0, rank - 1):rank + 1]


def odd_rank_message(rank, s):
    return (f"odd numerical rank {rank}: tolerance ambiguity "
            f"(sigma around cut: {sigmas_at_cut(rank, s)})")


def _svd_rank(s, shape, rcond=None):
    """Number of singular values above ``max(s) * rcond``; ``rcond``
    defaults to ``eps * max(shape)``, the cut scipy.linalg makes."""
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(shape)
    return int(np.sum(s > np.amax(s, initial=0.) * rcond))


def null_space(A, rcond=None):
    """Orthonormal basis (columns) of the null space of A, from a full SVD,
    with scipy.linalg.null_space's rank cut."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s, A.shape, rcond):].T


def _orth(A):
    """Orthonormal basis (columns) of the column space of A."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, :_svd_rank(s, A.shape)]


def _subspace_angles(A, B):
    """Principal angles between the column spaces of A and B, largest first.

    Knyazev and Argentati's method as scipy.linalg.subspace_angles runs it:
    the cosines are the singular values of QA^T QB, and where a cosine has
    sigma^2 >= 1/2 (a small angle, where arccos loses digits) the angle is
    the arcsine of a singular value of the residual projection instead.
    """
    QA, QB = _orth(A), _orth(B)
    QA_H_QB = QA.T @ QB
    sigma = np.linalg.svd(QA_H_QB, compute_uv=False)
    if QA.shape[1] >= QB.shape[1]:
        R = QB - QA @ QA_H_QB
    else:
        R = QA - QB @ QA_H_QB.T
    mask = sigma ** 2 >= 0.5
    if mask.any():
        mu_arcsin = np.arcsin(np.clip(np.linalg.svd(R, compute_uv=False),
                                      -1., 1.))
    else:
        mu_arcsin = 0.
    return np.where(mask, mu_arcsin, np.arccos(np.clip(sigma[::-1], -1., 1.)))


def pfaffian(m):
    """Pfaffian by Parlett-Reid reduction with permutation sign tracking."""
    return pfaffians(np.asarray(m, dtype=float)[None])[0]


def pfaffians(M):
    """Pfaffian of each M[i] of an (N, n, n) stack, by the Parlett-Reid steps
    of a single matrix run on all rows at once (first-argmax pivot, row and
    column swap, outer-product update); a zero pivot gives 0.0."""
    A = _skew_rows(M)
    N, n = A.shape[:2]
    if n % 2:
        raise ValueError("Pfaffian needs even dimension")
    rows = np.arange(N)
    pf, zero = np.ones(N), np.zeros(N, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(0, n - 1, 2):
            # the largest entry of column k below the diagonal to (k+1, k)
            kp = k + 1 + np.argmax(np.abs(A[:, k + 1:, k]), axis=1)
            A[rows, k + 1], A[rows, kp] = A[rows, kp], A[rows, k + 1]
            A[rows, :, k + 1], A[rows, :, kp] = (A[rows, :, kp],
                                                 A[rows, :, k + 1])
            pf = np.where(kp != k + 1, -pf, pf)
            piv = A[:, k, k + 1]
            zero |= piv == 0.0
            pf = pf * piv
            if k + 2 < n:
                tau = A[:, k, k + 2:] / piv[:, None]
                col = A[:, k + 2:, k + 1]
                A[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                         - col[:, :, None] * tau[:, None, :])
    return np.where(zero, 0.0, pf)


# ---------------------------------------------------------------------------
# pencil positivity on rays
# ---------------------------------------------------------------------------

def _pencil_poly(pair: SkewPair):
    """Pf(mu0 + t*mu1) as exact-degree coefficients via interpolation."""
    return pencil_coeffs(pair.mu0[None], pair.mu1[None])[0]


def pencil_coeffs(MU0, MU1):
    """Ascending coefficients of Pf(MU0[i] + t*MU1[i]) for each pair of two
    (N, n, n) stacks: Pfaffians at t = 0..n/2, one stacked interpolation."""
    N, n = MU0.shape[:2]
    nodes = np.arange(n // 2 + 1, dtype=float)
    vals = pfaffians((MU0[:, None] + nodes[:, None, None] * MU1[:, None])
                     .reshape(-1, n, n)).reshape(N, len(nodes))
    V = np.vander(nodes, len(nodes), increasing=True)
    return np.linalg.solve(V, vals[:, :, None])[:, :, 0]


def pencil_certified(C):
    """Rows of an (N, d) coefficient stack that pencil_positive PASSes on
    the open ray (orientation +1), read from the signs of the floats.

    _ray_roots keeps c when |c| > 1e-12 max|c| and rationalizes it, scaled
    so that max|c| lies in [1, 2), within 1/(2 * 10**15), so every kept c
    keeps its sign.  With every coefficient finite, every kept one positive
    and P(1) > 0 as pencil_positive computes it, Descartes' rule of signs
    leaves the exact polynomial no positive root.  Other rows are not
    decided here.  A kept |c| < 1e-15 also leaves the row undecided: that
    floor is no longer needed for soundness and only makes the certificate
    conservative.
    """
    absC = np.abs(C)
    cmax = absC.max(axis=1)
    kept = absC > _COEFF_TRUNC * cmax[:, None]
    with np.errstate(invalid="ignore"):
        p1 = np.polyval(C[:, ::-1].T, 1.0)
    return (np.isfinite(C).all(axis=1) & (cmax > 0)
            & ~(kept & ((absC < 1e-15) | (C < 0))).any(axis=1) & (p1 > 0))


def _ray_roots(coeffs, closed):
    """Real roots of sum c_k t^k classified against the ray.

    Coefficients are scaled by a power of two so that the largest lies in
    [1, 2), truncated (relative 1e-12), rationalized and scaled to integers,
    so the decision is exact: each square-free factor gets a Sturm
    sequence over the integers, whose sign-variation counts at the exact
    dyadic points 0, +-1e-8 and a power-of-two root bound place every root,
    and bisection on those counts isolates them.  Each isolated root is then
    bisected on its sign until the interval's endpoints round to the same
    double, which is the root's float value.  No float root finder takes
    part.  Returns (poly, on, near), the roots ascending with multiplicity:
    ``on`` are certain failures inside the ray, ``near`` are roots too close
    to its edge to certify either way.  An exact root at t = 0 lies off the
    open ray (the compatible-pair pencils always vanish there) but on the
    closed one.
    """
    cmax = np.max(np.abs(coeffs)) if len(coeffs) else 0.0
    if cmax == 0.0:
        return None, [], []
    # scaling by a power of two is exact and puts max|c| in [1, 2), so the
    # roots do not depend on the pencil's scale
    shift = 1 - math.frexp(cmax)[1]
    coeffs, cmax = np.ldexp(coeffs, shift), math.ldexp(cmax, shift)
    rat = [Fraction(c).limit_denominator(10**15)
           if abs(c) > _COEFF_TRUNC * cmax else Fraction(0) for c in coeffs]
    lcm = math.lcm(*(c.denominator for c in rat))
    poly = _trim([c.numerator * (lcm // c.denominator) for c in rat])
    if not poly:
        return None, [], []
    zeros = next(k for k, c in enumerate(poly) if c)
    zero, tol = (0, 0), _dyadic(RAY_TOL)
    minus_tol = (-tol[0], tol[1])
    on = [0.0] * zeros if closed else []
    near = []
    for f, mult in _square_free(poly[zeros:]):
        sturm = _sturm(f)
        # above the Cauchy bound 1 + max|f_k / f_deg| on every |root|
        bound = (1 << (max(map(abs, f)) // abs(f[-1]) + 2).bit_length(), 0)
        v_inf = _variations([p[-1] for p in sturm])
        v_tol, v_zero = _count_at(sturm, tol), _count_at(sturm, zero)
        roots_on = _isolate(sturm, tol, v_tol, bound, v_inf)
        roots_near = _isolate(sturm, zero, v_zero, tol, v_tol)
        if closed:
            roots_near += _isolate(sturm, minus_tol,
                                   _count_at(sturm, minus_tol), zero, v_zero)
            if _sign_at(f, minus_tol) == 0:
                roots_near.append(-RAY_TOL)
        on += roots_on * mult
        near += roots_near * mult
    return poly, sorted(on), sorted(near)


# Exact polynomial arithmetic for _ray_roots.  Polynomials are lists of
# Python ints, constant term first, without zero leading coefficients; the
# algorithms only need them up to a positive constant factor.  Points are
# dyadic rationals (n, e) = n / 2**e.

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def _pdivmod(a, b):
    """Pseudo-division: (q, r) with m*a = q*b + r for some m > 0 and
    deg r < deg b, both reduced to primitive parts."""
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(q) - 1, -1, -1):
        t = sign * r[k + len(b) - 1]
        q = [lead * c for c in q]
        r = [lead * c for c in r]
        q[k] = t
        for j, c in enumerate(b):
            r[k + j] -= t * c
    return _primitive(_trim(q)), _primitive(_trim(r[:len(b) - 1]))


def _gcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _square_free(p):
    """Square-free factorization: pairwise coprime (factor, multiplicity)
    pairs whose product of factor**multiplicity is p up to a constant.
    Constant factors are omitted."""
    a = _gcd(p, _derivative(p))
    b = _pdivmod(p, a)[0]
    out, mult = [], 1
    while len(b) > 1:
        c = _gcd(a, b)
        a = _pdivmod(a, c)[0]
        factor = _pdivmod(b, c)[0]
        if len(factor) > 1:
            out.append((factor, mult))
        b, mult = c, mult + 1
    return out


def _sturm(f):
    """Sturm sequence f, f', -rem(...) of a square-free polynomial."""
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _pdivmod(seq[-2], seq[-1])[1]])
    return seq


def _dyadic(x):
    n, d = float(x).as_integer_ratio()
    return n, d.bit_length() - 1


def _midpoint(a, b):
    e = max(a[1], b[1])
    return (a[0] << (e - a[1])) + (b[0] << (e - b[1])), e + 1


def _to_float(x):
    return x[0] / (1 << x[1])


def _sign_at(p, x):
    """Sign of p at x = n / 2**e, by Horner on 2**(e*deg p) * p(x)."""
    n, e = x
    acc, shift = 0, 0
    for c in reversed(p):
        acc = acc * n + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def _variations(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _count_at(sturm, x):
    """Sign variations of the Sturm sequence at x; V(a) - V(b) is the
    number of distinct roots of sturm[0] in (a, b]."""
    return _variations([_sign_at(p, x) for p in sturm])


def _isolate(sturm, a, va, b, vb):
    """Float values of the roots of sturm[0] in (a, b], ascending."""
    if va == vb:
        return []
    if va - vb == 1:
        return [_refine(sturm[0], a, b)]
    m = _midpoint(a, b)
    vm = _count_at(sturm, m)
    return _isolate(sturm, a, va, m, vm) + _isolate(sturm, m, vm, b, vb)


def _refine(f, a, b):
    """Float value of the one simple root of f in (a, b].

    Bisection on the sign of f until both endpoints round to the same
    double.  f keeps the sign opposite to f(b) on (a, root), so f(a) is
    never needed.  The step cap only matters for a root exactly halfway
    between two doubles, which no interval around it rounds to one side.
    """
    sb = _sign_at(f, b)
    if sb == 0:
        return _to_float(b)
    for _ in range(_MAX_BISECT):
        if _to_float(a) == _to_float(b):
            break
        m = _midpoint(a, b)
        sm = _sign_at(f, m)
        if sm == 0:
            return _to_float(m)
        if sm == sb:
            b = m
        else:
            a = m
    return _to_float(b)


# Arithmetic in Q[x] on the same lists (Fractions allowed, [] is zero), for
# callers that build the polynomials the unit_* decisions below read.

def _qadd(a, b):
    n = max(len(a), len(b))
    return _trim((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                 for k in range(n))


def _qmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _qcompose(p, a, b):
    """p(a + b s) as a polynomial in s."""
    out = []
    for c in reversed(p):
        out = _qadd(_qmul(out, [a, b]), [c])
    return out


def _qeval(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


# Exact decisions on the unit interval (0, 1] for polynomials over Q (lists of
# ints or Fractions, constant term first).  Each scales its input to integers
# and answers from Sturm counts at dyadic points.

_S0, _S1 = (0, 0), (1, 0)


def _integer(p):
    """A positive multiple of p with coprime integer coefficients."""
    p = _trim(p)
    if not p:
        return []
    lcm = math.lcm(*(Fraction(c).denominator for c in p))
    return _primitive([int(c * lcm) for c in p])


def _dyadic_q(x):
    return Fraction(x[0], 1 << x[1])


def _nonzero_point(p, a, b):
    """A dyadic point of (a, b] where p (not zero) does not vanish: among
    deg p + 1 distinct points one is not a root."""
    x = b
    while not _sign_at(p, x):
        x = _midpoint(a, x)
    return x


def unit_roots(p):
    """The distinct roots of p in (0, 1] as ascending floats."""
    p = _integer(p)
    if len(p) < 2:
        return []
    sturm = _sturm(_pdivmod(p, _gcd(p, _derivative(p)))[0])
    return _isolate(sturm, _S0, _count_at(sturm, _S0),
                    _S1, _count_at(sturm, _S1))


def unit_negative_point(p):
    """A point of (0, 1] where p < 0 (a Fraction), or None if p >= 0 there.

    p changes sign only at its roots of odd multiplicity.  Off its other
    roots, p has the sign of ``sigma`` times the signs of its square-free
    factors of odd multiplicity, so the search bisects on their Sturm
    counts: an interval with none of their roots inside has one sign, read
    at its midpoint, and one with roots is split.  Such a root always has a
    side where p < 0, so the search ends.
    """
    p = _integer(p)
    if not p:
        return None
    odd = [f for f, mult in _square_free(p) if mult % 2]
    sturms = [_sturm(f) for f in odd]
    sigma = math.prod(1 if f[-1] > 0 else -1 for f in [p, *odd])

    def roots_inside(a, b):
        return sum(_count_at(st, a) - _count_at(st, b)
                   - (_sign_at(st[0], b) == 0) for st in sturms)

    queue = [(_S0, _S1)]
    while queue:
        a, b = queue.pop(0)
        m = _midpoint(a, b)
        if roots_inside(a, b):
            queue += [(a, m), (m, b)]
        elif sigma * math.prod(_sign_at(f, m) for f in odd) < 0:
            return _dyadic_q(_nonzero_point(p, a, b))
    return None


def unit_common_root(a, b):
    """The first common root of a and b in (0, 1] (a Fraction within a
    double of it), or None; 1 when both vanish identically."""
    g = _gcd(_integer(a), _integer(b))
    if not g:
        return Fraction(1)
    roots = unit_roots(g)
    return Fraction(roots[0]) if roots else None


def unit_zero_not_shared(z, a):
    """A point of (0, 1] where z = 0 but a != 0, or None."""
    z, a = _integer(z), _integer(a)
    if not z:
        return _dyadic_q(_nonzero_point(a, _S0, _S1)) if a else None
    if len(z) < 2:
        return None
    f = _pdivmod(z, _gcd(z, _derivative(z)))[0]
    roots = unit_roots(_pdivmod(f, _gcd(f, a))[0])
    return Fraction(roots[0]) if roots else None


def pencil_positive(pair: SkewPair, closed=False, orientation=+1):
    """Nondegeneracy of mu0 + t*mu1 on the ray t>0 (or t>=0 when closed).

    PASS means the Pfaffian polynomial has no roots meeting the ray and is
    positive there relative to ``orientation``.  Roots within 1e-8 of the
    ray's interior are reported UNDETERMINED, never silently passed.
    """
    coeffs = _pencil_poly(pair)
    if not np.isfinite(coeffs).all():
        return PencilVerdict(FAIL, coeffs, message="Pfaffian is not finite")
    poly, on, near = _ray_roots(coeffs, closed)
    if poly is None:
        return PencilVerdict(FAIL, coeffs, message="Pfaffian identically zero")
    if on:
        return PencilVerdict(FAIL, coeffs, roots_on_ray=on,
                             message=f"pencil degenerates at t={on[0]:.6g}")
    if near:
        return PencilVerdict(UNDETERMINED, coeffs, roots_on_ray=near,
                             message=f"root within {RAY_TOL:g} of the ray "
                                     f"(t={near[0]:.3g})")
    if closed and abs(np.polyval(coeffs[::-1], 0.0)) <= RAY_TOL * max(
            1.0, np.max(np.abs(coeffs))):
        return PencilVerdict(UNDETERMINED, coeffs,
                             message="value at t=0 below tolerance")
    val = orientation * np.polyval(coeffs[::-1], 1.0)
    if val <= 0:
        return PencilVerdict(FAIL, coeffs,
                             message=f"P(1) = {val:.3g} has the wrong sign "
                                     "for the orientation")
    return PencilVerdict(PASS, coeffs)


# ---------------------------------------------------------------------------
# taming
# ---------------------------------------------------------------------------

def taming_symmetrization(omega, J):
    """S(v, w) = (omega(v, Jw) + omega(w, Jv)) / 2 as a symmetric matrix."""
    omega = _skew(omega)
    J = J.J if isinstance(J, ComplexStructureMatrix) else np.asarray(J)
    OJ = omega @ J
    return 0.5 * (OJ + OJ.T)


def taming_check(omega, J, K_ref=None, tau_pos=DEFAULT_TAU_POS,
                 tau_angle=DEFAULT_TAU_ANGLE):
    """Is omega(v, Jv) >= 0 with equality exactly on K_ref?

    ``K_ref=None`` is the weak mode: only positive semidefiniteness of the
    symmetrized form is required.  With a reference subspace, the near-null
    eigenspace must match it (principal angles below tau_angle) and all other
    eigenvalues must clear tau_pos.
    """
    S = taming_symmetrization(omega, J)
    w, V = np.linalg.eigh(S)
    scale = max(np.max(np.abs(w)), 1.0)
    neg = w < -tau_pos * scale
    if np.any(neg):
        i = int(np.argmin(w))
        return TamingVerdict(FAIL, w, witness=V[:, i],
                             message=f"indefinite: eigenvalue {w[i]:.3e}")
    nullmask = np.abs(w) <= tau_pos * scale
    null = V[:, nullmask]
    if K_ref is None:
        return TamingVerdict(PASS, w, null_basis=null)
    K = K_ref.basis if isinstance(K_ref, BasedSubspace) else np.asarray(K_ref)
    if null.shape[1] != K.shape[1]:
        return TamingVerdict(FAIL, w, null_basis=null,
                             message=f"null dimension {null.shape[1]} != "
                                     f"reference {K.shape[1]}")
    if K.shape[1] == 0:
        return TamingVerdict(PASS, w, null_basis=null, angles=np.zeros(0))
    angles = _subspace_angles(null, K)
    if np.max(angles) > tau_angle:
        return TamingVerdict(FAIL, w, null_basis=null, angles=angles,
                             message=f"null space misses reference subspace "
                                     f"(max angle {np.max(angles):.2e})")
    return TamingVerdict(PASS, w, null_basis=null, angles=angles)


def compatible_J(omega, g=None, tau_pos=DEFAULT_TAU_POS):
    """Polar compatible complex structure of a nondegenerate two-form.

    With metric g = L L^T, set W = L^{-1} omega L^{-T} and take the unitary
    polar factor of W; conjugating back gives J with J^2 = -I, taming and
    omega-compatibility.  Scale invariant in omega.
    """
    omega = _skew(omega)
    n = len(omega)
    if n == 0:
        return ComplexStructureMatrix(np.zeros((0, 0)), tau_pos)
    g = np.eye(n) if g is None else np.asarray(g, dtype=float)
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    W = Linv @ omega @ Linv.T
    # (-W^2) = W^T W symmetric positive definite iff omega nondegenerate
    P = W.T @ W
    w, U = np.linalg.eigh(P)
    if w[0] <= tau_pos * max(w[-1], 1.0):
        raise np.linalg.LinAlgError("two-form is numerically degenerate")
    inv_sqrt = U @ np.diag(w ** -0.5) @ U.T
    # omega(v, Jv) = v^T L (W^T W)^{1/2} L^T v > 0 needs the minus sign,
    # since W^2 = -W^T W
    J_hat = -W @ inv_sqrt
    J = Linv.T @ J_hat @ L.T
    return ComplexStructureMatrix(J, tau_pos)


# ---------------------------------------------------------------------------
# split cotamed construction with Cayley feasibility fallback
# ---------------------------------------------------------------------------

def cayley_coordinate(J, J0):
    """C(J) = (J + J0)^{-1} (J - J0); singular J+J0 contradicts cotaming."""
    J = J.J if isinstance(J, ComplexStructureMatrix) else np.asarray(J)
    J0 = J0.J if isinstance(J0, ComplexStructureMatrix) else np.asarray(J0)
    A = J + J0
    if abs(np.linalg.det(A)) < 1e-300:
        raise ValueError("J + J0 singular: inputs are not cotamed by a "
                         "common pair (input inconsistency)")
    return np.linalg.solve(A, J - J0)


def cayley_inverse(W, J0):
    J0 = J0.J if isinstance(J0, ComplexStructureMatrix) else np.asarray(J0)
    n = len(J0)
    return ComplexStructureMatrix(
        J0 @ (np.eye(n) + W) @ np.linalg.inv(np.eye(n) - W))


def cayley_interpolate(J0, J1, tau):
    """Straight segment in Cayley coordinates between two complex structures."""
    W1 = cayley_coordinate(J1, J0)
    return cayley_inverse(tau * W1, J0)


def _anticommuting_projection(G, J0):
    return 0.5 * (G + J0 @ G @ J0)


def _min_taming_margin(J, forms, tau_pos):
    if len(J) == 0:
        return np.inf       # zero-dimensional block: vacuously tamed
    vals = []
    for om in forms:
        S = taming_symmetrization(om, J)
        w = np.linalg.eigvalsh(S)
        scale = max(np.max(np.abs(w)), 1.0)
        # ignore the structural near-null directions only when margin asked
        vals.append(np.min(w) / scale)
    return min(vals)


def cotaming_search(forms, J_init, seed=0, tau_pos=DEFAULT_TAU_POS):
    """Best-effort search for one J tamed by every form in ``forms``.

    Projected ascent in Cayley coordinates anchored at J_init (random
    directions in the J_init-anticommuting space, shrinking steps, ten
    seeded restarts within 10,000 steps).  Honest UNDETERMINED when the
    steps run out: existence may hold even when the search fails.
    """
    J0 = J_init.J if isinstance(J_init, ComplexStructureMatrix) else np.asarray(J_init)
    n = len(J0)
    rng = np.random.default_rng(seed)
    best_J, best_margin = J0, _min_taming_margin(J0, forms, tau_pos)
    if best_margin > tau_pos:
        return ComplexStructureMatrix(best_J), PASS
    spent = 0
    for _restart in range(10):
        W = np.zeros((n, n))
        step = 0.3
        cur = best_margin
        while spent < 1000 * (_restart + 1):
            spent += 1
            G = rng.standard_normal((n, n)) * step
            Wc = _anticommuting_projection(W + G, J0)
            if np.linalg.norm(Wc, 2) >= 0.98:
                step *= 0.5
                continue
            Jc = J0 @ (np.eye(n) + Wc) @ np.linalg.inv(np.eye(n) - Wc)
            m = _min_taming_margin(Jc, forms, tau_pos)
            if m > cur:
                W, cur = Wc, m
                if cur > best_margin:
                    best_J, best_margin = Jc, cur
                if cur > tau_pos:
                    return ComplexStructureMatrix(best_J), PASS
            else:
                step *= 0.95
                if step < 1e-6:
                    break
    return (ComplexStructureMatrix(best_J) if best_margin > -1e-6 else None,
            UNDETERMINED)


def mu_orthogonal_complement(mu, K: BasedSubspace):
    """Basis of {v : mu(v, k) = 0 for all k in K} inside the ambient space."""
    mu = _skew(mu)
    if K.dim == 0:
        return BasedSubspace(len(mu), np.eye(len(mu)))
    C = (mu @ K.basis).T        # constraints: rows are mu(., k)
    null = null_space(C)
    return BasedSubspace(len(mu), null)


def split_cotamed_J(pair: SkewPair, K: BasedSubspace,
                    tau_pos=DEFAULT_TAU_POS):
    """J = J_nu (+) J_K: J_K compatible with mu|_K, J_nu tamed by both
    dalpha|_nu and mu|_nu.

    ``pair.mu0`` is mu (nondegenerate on K), ``pair.mu1`` is dalpha (kernel
    K).  Returns (J, status); UNDETERMINED when the two-form feasibility
    search fails without witnessing impossibility.
    """
    mu, dalpha = pair.mu0, pair.mu1
    n = len(mu)
    nu = mu_orthogonal_complement(mu, K)
    if nu.dim + K.dim != n:
        # complement meets K; cannot split in this basis
        return None, UNDETERMINED
    mu_nu, da_nu = nu.restrict(mu), nu.restrict(dalpha)
    mu_K = K.restrict(mu)
    status = PASS
    try:
        J_nu = compatible_J(da_nu)
    except np.linalg.LinAlgError:
        return None, FAIL
    if _min_taming_margin(J_nu.J, [mu_nu], tau_pos) <= tau_pos:
        J_try = compatible_J(mu_nu)
        if _min_taming_margin(J_try.J, [da_nu], tau_pos) > tau_pos:
            J_nu = J_try
        else:
            J_nu, status = cotaming_search([da_nu, mu_nu], J_nu,
                                           tau_pos=tau_pos)
            if J_nu is None or status != PASS:
                return None, UNDETERMINED
    if K.dim:
        J_K = compatible_J(mu_K)
        a, b = len(J_nu.J), len(J_K.J)
        blocks = np.block([[J_nu.J, np.zeros((a, b))],
                           [np.zeros((b, a)), J_K.J]])
    else:
        blocks = J_nu.J
    B = np.hstack([nu.basis] + ([K.basis] if K.dim else []))
    Binv = np.linalg.inv(B)
    J = B @ blocks @ Binv
    return ComplexStructureMatrix(J), status
