"""Coordinate forms on boxed charts: coefficient tables and numeric fields.

A coefficient table maps strictly sorted coordinate-index tuples to sympy
expressions in the chart coordinates (and a family's parameter).
``_canon_table`` is the one place that reads other key spellings (name
tuples, a bare name for a one-form).  The exact algebra is grassmann's: a
symbolic field keeps its one-form as a ``FormExpr`` over a chart algebra
made by ``_forms`` (generator i is d(names[i])) and reads its exact d and
tops (``top_table``) off it; ``terms()`` gives coefficients as sp.expand
does.  ``table_d``, ``table_wedge``, ``table_wedge_power`` and
``table_contract`` do the same on tables and have no runtime caller: they
stay for the benchmark's layer tracer.  ``compile_table`` compiles a table
once (the source lambdify would generate, without lambdify), with any
parameters as trailing arguments, into numeric fields of callables.
The rest is pointwise plumbing for the verifiers: central-difference d (the
lane that cross-checks the exact d), finite-difference pullbacks,
short-time RK4 flows and seeded sample grids.
A sample set is an ``(N, dim)`` float array, one point per row;
``sample_prefix`` orders a grid so that every prefix covers the box.

Evaluation contract.  Every coefficient callable, a pullback's included,
takes the coordinates of N points with the chart coordinate on the first
axis, an array of shape ``(dim, N)``, and returns an ``(N,)`` array or a
scalar (a constant broadcasts).  ``lambda p: p[0]``, a constant and a
compiled table all satisfy it unchanged.  ``Chart.lift``,
``FormFieldNum.components`` and ``eval_at`` take a batch ``(N, dim)`` and put
the leading N axis first; a point ``(dim,)`` is a one-row batch whose row is
returned alone.  A verifier evaluates its forms once on all its samples this
way and decides sample by sample in order.  Sums, scalings, wedges,
``d_fd`` and ``pullback`` keep the contract.  Coefficients are evaluated
with numpy's invalid/divide/overflow warnings off: a nan or infinite value
is the verifier's to report.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import keyword
import math
import types
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .grassmann import FormAlgebra, FormExpr

H_FRACTION = 1e-4   # finite-difference step as a fraction of the box diameter


@dataclass(frozen=True)
class Chart:
    """Coordinate box, with optional periodic directions (circle factors)."""

    names: tuple
    box: tuple              # ((lo, hi), ...) per coordinate
    periodic: tuple = ()    # coordinate names evaluated via representative lifts

    def __post_init__(self):
        if len(self.names) != len(self.box) or not self.names:
            raise ValueError("need one (lo, hi) interval per coordinate")
        if not all(hi > lo for lo, hi in self.box):
            raise ValueError("empty box interval")
        # the sample grid adds two ends of an interval
        if not math.isfinite(self.diameter() + 2 * max(
                max(-lo, hi) for lo, hi in self.box)):
            raise ValueError("chart box is too wide for a float")
        unknown = set(self.periodic) - set(self.names)
        if unknown:
            raise ValueError(f"periodic flags for unknown coordinates {unknown}")

    @property
    def dim(self):
        return len(self.names)

    def diameter(self):
        return math.hypot(*(hi - lo for lo, hi in self.box))

    def default_h(self):
        return H_FRACTION * self.diameter()

    def index(self, name):
        return self.names.index(name)

    @functools.cached_property
    def _bounds(self):
        """Box ends widened by 1e-12; periodic indices, starts, periods."""
        lo, hi = np.array(self.box, dtype=float).T
        per = [i for i, n in enumerate(self.names) if n in self.periodic]
        return lo - 1e-12, hi + 1e-12, per, lo[per], (hi - lo)[per]

    def lift(self, p):
        """Wrap periodic coordinates into the box; error on out-of-box rest.

        ``p`` is N points ``(N, dim)``, or one point ``(dim,)``.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.dim:
            raise ValueError(f"point has shape {p.shape}, chart dim {self.dim}")
        lo, hi, per, start, period = self._bounds
        q = p.reshape(-1, self.dim).copy()
        if per:
            q[:, per] = start + (q[:, per] - start) % period
        ok = (lo <= q) & (q <= hi)
        ok[:, per] = True
        if not ok.all():
            i = int(np.argmin(ok.all(axis=0)))    # the first such coordinate
            raise ValueError(f"coordinate {self.names[i]}="
                             f"{q[np.argmin(ok[:, i]), i]} outside "
                             f"[{self.box[i][0]}, {self.box[i][1]}]")
        return q.reshape(p.shape)

    def symbols(self):
        return sp.symbols(self.names)


@functools.cache
def _alternations(key, dim):
    """The flat positions, in a (dim,) * len(key) array, of every
    permutation of the sorted key, and the permutations' signs."""
    perms = list(itertools.permutations(key))
    return ([np.ravel_multi_index(m, (dim,) * len(key)) for m in perms],
            np.array([_sort_sign(m)[1] for m in perms], dtype=float))


def _rows(v, n):
    """A coefficient value as an (n,) float array (a constant broadcasts)."""
    v = np.asarray(v, dtype=float)
    return v if v.shape == (n,) else np.broadcast_to(v, (n,)).copy()


def _sort_sign(idx):
    """Sort a coordinate-index tuple, tracking the permutation sign."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    for a, b in itertools.pairwise(idx):
        if a == b:
            return None, 0
    return tuple(idx), sign


class FormFieldNum:
    """Degree-p form with evaluable coefficients on a chart.

    ``coeffs`` maps strictly sorted index tuples to callables taking the
    coordinate array, coordinate axis first (the module's evaluation
    contract).  Use :meth:`from_symbolic` for sympy-backed fields.
    """

    def __init__(self, chart, degree, coeffs):
        self.chart = chart
        self.degree = degree
        for key in coeffs:
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"coefficient key {key} is not a sorted "
                                 f"{degree}-subset")
        self.coeffs = dict(coeffs)
        self.stats = {"one_sided": 0}

    @classmethod
    def from_symbolic(cls, chart, degree, table):
        """Compile a parameter-free coefficient table (any key spelling)."""
        return compile_table(chart, table, degree)()

    # -- evaluation --------------------------------------------------------
    def components(self, p):
        """Sorted-key coefficient dict at N points ``(N, dim)``: ``(N,)``
        arrays; at one point ``(dim,)``, floats."""
        q = self.chart.lift(p).reshape(-1, self.chart.dim)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            comps = {key: _rows(fn(q.T), len(q))
                     for key, fn in self.coeffs.items()}
        return comps if np.ndim(p) == 2 else {
            key: float(v[0]) for key, v in comps.items()}

    def eval_at(self, p):
        """Full alternating component array at N points ``(N, dim)``, with
        the leading N axis first; at one point ``(dim,)``, its one row."""
        P = np.atleast_2d(p)
        T = np.zeros((len(P), self.chart.dim ** self.degree))
        for key, v in self.components(P).items():
            # each permutation of the key, signed; + 0.0 turns -0.0 into 0.0
            pos, sign = _alternations(key, self.chart.dim)
            T[:, pos] = sign * v[:, None] + 0.0
        T = T.reshape((len(P),) + (self.chart.dim,) * self.degree)
        return T if np.ndim(p) == 2 else T[0]

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        if other.chart is not self.chart or other.degree != self.degree:
            raise ValueError("fields must share chart and degree")
        out = dict(self.coeffs)
        for k, fn in other.coeffs.items():
            if k in out:
                out[k] = (lambda f, g: lambda p: f(p) + g(p))(out[k], fn)
            else:
                out[k] = fn
        return FormFieldNum(self.chart, self.degree, out)

    def scale(self, c):
        cf = c if callable(c) else (lambda p: c)
        return FormFieldNum(self.chart, self.degree, {
            k: (lambda f: lambda p: cf(p) * f(p))(fn)
            for k, fn in self.coeffs.items()})

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def wedge(self, other):
        if other.chart is not self.chart:
            raise ValueError("fields live on different charts")
        out = {}
        for k1, f1 in self.coeffs.items():
            for k2, f2 in other.coeffs.items():
                key, s = _sort_sign(k1 + k2)
                if s == 0:
                    continue
                term = (lambda a, b, sg: lambda p: sg * a(p) * b(p))(f1, f2, s)
                if key in out:
                    out[key] = (lambda f, g: lambda p: f(p) + g(p))(out[key], term)
                else:
                    out[key] = term
        return FormFieldNum(self.chart, self.degree + other.degree, out)

    __xor__ = wedge

    def wedge_power(self, n):
        out = FormFieldNum(self.chart, 0, {(): lambda p: 1.0})
        for _ in range(n):
            out = out.wedge(self)
        return out


# ---------------------------------------------------------------------------
# symbolic coefficient tables
# ---------------------------------------------------------------------------

def _canon_table(chart, table):
    """Index-keyed copy of a coefficient table.

    Keys may be index tuples, name tuples, or a bare coordinate name (a
    one-form key); entries landing on the same key add up.
    """
    out = {}
    for key, e in table.items():
        if isinstance(key, str):
            key = (key,)
        key = tuple(chart.index(k) if isinstance(k, str) else int(k)
                    for k in key)
        if list(key) != sorted(set(key)):
            raise ValueError(f"table key {key} is not sorted distinct")
        out[key] = out.get(key, 0) + sp.sympify(e)
    return out


def _forms(chart, *tables):
    """Tables as FormExprs over one chart algebra made for this call, whose
    generator i is d(names[i]), so index keys carry over."""
    alg = FormAlgebra()
    for name in chart.names:
        alg.coordinate(name)
    return [FormExpr(alg, _canon_table(chart, t)) for t in tables]


def table_d(chart, table):
    """Exact exterior derivative of a coefficient table."""
    form, = _forms(chart, table)
    return dict(form.d().terms())


def table_wedge(chart, t1, t2):
    f1, f2 = _forms(chart, t1, t2)
    return dict(f1.wedge(f2).terms())


def table_wedge_power(chart, table, n):
    form, = _forms(chart, table)
    return dict(form.wedge_power(n).terms())


def top_table(form, k):
    """The table of alpha ^ dalpha^(k+1) for a one-form FormExpr: zero
    exactly where the order of ker(alpha) is at most k."""
    return dict(form.wedge(form.d().wedge_power(k + 1)).terms())


def table_contract(chart, table, v):
    """Interior product with a constant ambient vector v (array)."""
    form, = _forms(chart, table)
    return dict(form.contract({
        "d" + name: sp.Integer(int(c)) if float(c).is_integer()
        else sp.Float(c) for name, c in zip(chart.names, v) if c}).terms())


# numpy's power on arrays may round differently from its power on scalars
# (libm's pow) in the last bit, where + - * / and the elementary functions
# agree; so a compiled power runs the scalar power at each entry, and a point
# gives the same float in a batch as alone
_pow_each = np.frompyfunc(lambda b, e: np.float64(b) ** e, 2, 1)


def _pow(b, e):
    if getattr(b, "ndim", 0) == 0 and getattr(e, "ndim", 0) == 0:
        return b ** e
    return _pow_each(b, e).astype(float)


class _Printer(NumPyPrinter):
    """The numpy printer with base**exp printed as _pow(base, exp); its
    sqrt, 1/sqrt and 1/x forms stay."""

    def _hprint_Pow(self, expr, rational=False, sqrt="numpy.sqrt"):
        if not rational and (expr.exp == sp.S.Half or expr.is_commutative and (
                -expr.exp is sp.S.Half or expr.exp is sp.S.NegativeOne)):
            return super()._hprint_Pow(expr, rational, sqrt)
        return f"_pow({self._print(expr.base)}, {self._print(expr.exp)})"


# the globals the generated code reads: the printer spells every function
# numpy.<name>, so of the names ``sp.lambdify(..., [{"_pow": _pow},
# "numpy"])`` binds (numpy's star import among them) it needs only these
_NAMESPACE = {"numpy": np, "_pow": _pow, "I": 1j, "Heaviside": np.heaviside,
              "builtins": builtins, "range": range}


def _source(syms, e):
    """The text ``sp.lambdify(syms, e, [{"_pow": _pow}, "numpy"],
    printer=_Printer)`` generates for one entry.

    An argument whose name is no Python identifier (a keyword such as
    ``lambda``), or would hide ``numpy`` or ``_pow`` from the body, is
    renamed ``_arg<i>`` (underscores prepended until the name is free);
    lambdify renames the first kind to a Dummy and lets the second hide the
    module.  A free symbol of ``e`` outside ``syms`` is a ValueError, where
    lambdify would bind the sympy Symbol.
    """
    stray = e.free_symbols - set(syms)
    if stray:
        raise ValueError("table entry has free symbols outside the "
                         f"coordinates and parameters: "
                         f"{', '.join(sorted(map(str, stray)))}")
    names = [str(s) for s in syms]
    rename = {}
    for i, s in enumerate(syms):
        if (not names[i].isidentifier() or keyword.iskeyword(names[i])
                or names[i] in ("numpy", "_pow")):
            new = f"_arg{i}"
            while new in names:
                new = "_" + new
            names[i] = new
            rename[s] = sp.Symbol(new)
    body = _Printer().doprint(e.xreplace(rename) if rename else e)
    if "\n" in body:
        body = f"({body})"
    return f"def _lambdifygenerated({', '.join(names)}):\n    return {body}\n"


def compile_table(chart, table, degree=None, params=()):
    """Compile each coefficient over the chart coordinates followed by the
    symbols ``params``.

    Each entry becomes the function lambdify would generate (``_source``);
    a table's entries are compiled in one ``compile()`` and run in the one
    module namespace ``_NAMESPACE``.  Returns ``bind``: parameter values
    -> FormFieldNum.  Binding compiles nothing, so one compile serves every
    value of a family's parameter.
    """
    table = _canon_table(chart, table)
    deg = len(next(iter(table), ())) if degree is None else degree
    syms = (*chart.symbols(), *params)
    code = compile("".join(_source(syms, e) for e in table.values()),
                   "<compile_table>", "exec")
    fns = dict(zip(table, (types.FunctionType(c, _NAMESPACE)
                           for c in code.co_consts
                           if isinstance(c, types.CodeType))))

    def bind(*values):
        return FormFieldNum(chart, deg, {
            key: (lambda f: lambda p: f(*p, *values))(fn)
            for key, fn in fns.items()})
    return bind


def table_to_field(chart, table, degree=None):
    return compile_table(chart, table, degree)()


def _partial(fn, p, i, e, h, box, stats=None):
    """Central-difference partial along the step e = h times the i-th unit
    vector, one-sided (O(h)) against a box edge; the choice is made per
    point."""
    lo, hi = box[i]
    ok_plus = p[i] + h <= hi + 1e-15
    central = ok_plus & (p[i] - h >= lo - 1e-15)
    if np.all(central):
        return (fn(p + e) - fn(p - e)) / (2 * h)
    if stats is not None:
        stats["one_sided"] += int(np.size(central) - np.count_nonzero(central))
    up, mid, down = fn(p + e), fn(p), fn(p - e)
    return np.where(central, (up - down) / (2 * h),
                    np.where(ok_plus, (up - mid) / h, (mid - down) / h))


def d_fd(f: FormFieldNum, h=None):
    """Finite-difference exterior derivative (central, O(h^2) inside the box)."""
    chart = f.chart
    h = chart.default_h() if h is None else h
    periodic_idx = {chart.index(n) for n in chart.periodic}

    def make_coeff(key_new):
        def coeff(p):
            total = 0.0
            for j, i in enumerate(key_new):
                rest = key_new[:j] + key_new[j + 1:]
                fn = f.coeffs.get(rest)
                if fn is None:
                    continue
                e = np.zeros((len(p), 1))
                e[i] = h
                if i in periodic_idx:
                    # lift takes points as rows; p is coordinate-first
                    dpart = (fn(chart.lift((p + e).T).T)
                             - fn(chart.lift((p - e).T).T)) / (2 * h)
                else:
                    dpart = _partial(fn, p, i, e, h, chart.box, f.stats)
                total += (-1) ** j * dpart
            return total
        return coeff

    keys_new = {k2 for key in f.coeffs for i in range(chart.dim)
                for k2, s in [_sort_sign((i,) + key)] if s}
    return FormFieldNum(chart, f.degree + 1,
                        {k: make_coeff(k) for k in keys_new})


def fd_jacobian(phi, p, h):
    p = np.asarray(p, dtype=float)
    return np.stack([(np.asarray(phi(p + e)) - np.asarray(phi(p - e)))
                     / (2 * h) for e in h * np.eye(len(p))], axis=1)


def pullback(f: FormFieldNum, phi, source_chart, h=None):
    """(phi^* f) on source_chart for phi: source_chart -> f.chart.

    ``phi`` maps one point to one point.  The Jacobian is
    finite-differenced at each point; coefficients come out as sums of
    minor determinants against the target coefficients, which are evaluated
    once on the images of all the points.
    """
    h = source_chart.default_h() if h is None else h

    def make_coeff(key_src):
        def coeff(Q):
            # the images, lifted, coordinate first (one column for one point)
            X = f.chart.lift(np.array([phi(q) for q in Q.T], dtype=float)
                             .reshape(-1, f.chart.dim)).T
            J = np.array([fd_jacobian(phi, q, h) for q in Q.T]).reshape(
                -1, f.chart.dim, source_chart.dim)
            total = np.zeros(len(J))
            for key_tgt, fn in f.coeffs.items():
                # one stacked det: each minor's det is its det alone
                det = np.linalg.det(J[:, key_tgt][:, :, key_src])
                v = _rows(fn(X), len(J))
                total += np.where(v != 0.0, v * det, 0.0)
            return total
        return coeff

    return FormFieldNum(source_chart, f.degree, {
        key_src: make_coeff(key_src) for key_src in
        itertools.combinations(range(source_chart.dim), f.degree)})


def flow_rk4(X, p0, t, step):
    """Fixed-step RK4 flow of the vector field X from p0 for time t."""
    p = np.asarray(p0, dtype=float)
    n = max(1, math.ceil(abs(t) / step))
    dt = t / n
    for _ in range(n):
        k1 = np.asarray(X(p))
        k2 = np.asarray(X(p + 0.5 * dt * k1))
        k3 = np.asarray(X(p + 0.5 * dt * k2))
        k4 = np.asarray(X(p + dt * k3))
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def sample_grid(chart, density, seed, margin=0.0):
    """Deterministic jittered grid: density points per axis, seeded jitter;
    the density^dim points as the rows of an array, in grid-cell order.

    Periodic coordinates sample the half-open fundamental interval so 0 and
    the period never both appear.  ``margin`` shrinks non-periodic intervals
    from both ends (as a fraction) to stay away from chart boundaries.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    rng = np.random.default_rng(seed)
    axes = []
    for i, name in enumerate(chart.names):
        lo, hi = chart.box[i]
        if name in chart.periodic:
            edges = np.linspace(lo, hi, density + 1)
        else:
            w = (hi - lo) * margin
            edges = np.linspace(lo + w, hi - w, density + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        cell = edges[1] - edges[0]
        axes.append((centers, cell))
    # grid cells in itertools.product order, one jitter row per cell: the
    # same draws, in the same order, as one uniform call per coordinate
    cells = np.indices((density,) * chart.dim).reshape(chart.dim, -1).T
    jitter = rng.uniform(-1, 1, size=cells.shape)
    centers = np.stack([axes[i][0][cells[:, i]] for i in range(chart.dim)],
                       axis=1)
    widths = np.array([0.3 * cell for _, cell in axes])
    return chart.lift(centers + widths * jitter)


def sample_prefix(chart, density, seed, count, margin=0.0):
    """The first ``count`` points of ``sample_grid(chart, density, seed,
    margin)`` in an order that covers the box at every prefix.

    The grid cells split into density^(dim-1) wrapped diagonals
    {(t, t + b_1, ..., t + b_(dim-1)) mod density : t}, each meeting every
    slab of every coordinate once; the points go diagonal by diagonal, the
    diagonals in a seeded order.  So a prefix of k * density points meets
    each slab of each coordinate k times, and its range in a coordinate
    spans all but at most 1.6 cells (the jitter is 0.3 cell) of the
    sampled interval.
    """
    points = sample_grid(chart, density, seed, margin)
    cells = np.indices((density,) * chart.dim).reshape(chart.dim, -1).T
    offsets = (cells[:, 1:] - cells[:, :1]) % density
    diagonal = offsets @ density ** np.arange(chart.dim - 1)
    rank = np.random.default_rng(seed).permutation(density ** (chart.dim - 1))
    return points[np.lexsort((cells[:, 0], rank[diagonal]))[:count]]
