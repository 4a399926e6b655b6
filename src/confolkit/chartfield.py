"""Coordinate forms on boxed charts: coefficient tables and numeric fields.

A coefficient table maps strictly sorted coordinate-index tuples to sympy
expressions in the chart coordinates (and a family's parameter).
``_canon_table`` is the one place that reads other key spellings (name
tuples, a bare name for a one-form).  The exact algebra on tables stays
symbolic; ``compile_table`` compiles a table once (the source lambdify would
generate, without lambdify), with any parameters as trailing arguments, into
numeric fields whose coefficients are callables on the coordinate array.
The rest is pointwise plumbing for the verifiers: central-difference d (the
lane that cross-checks the exact ``table_d``), finite-difference pullbacks,
short-time RK4 flows and seeded sample grids.
A sample set is an ``(N, dim)`` float array, one point per row;
``sample_prefix`` orders a grid so that every prefix covers the box.

Evaluation contract.  A coefficient callable takes the coordinates with the
chart coordinate on the first axis: an array of shape ``(dim,)`` for one
point, ``(dim, N)`` for N points, and returns a scalar or an ``(N,)`` array.
``lambda p: p[0]``, a constant and a compiled table all satisfy it
unchanged.  ``FormFieldNum.eval_at`` and ``components`` take one point
``(dim,)`` or a batch ``(N, dim)`` (``Chart.lift`` too) and then put the
leading N axis first; a verifier evaluates its forms once on all its samples
this way and decides sample by sample in order, so a field handed to a
verifier needs coefficients that take a batch.  Sums, scalings, wedges and
``d_fd`` keep the contract; ``pullback`` coefficients take one point at a
time.  Coefficients are evaluated with numpy's invalid/divide/overflow
warnings off: a nan or infinite value is the verifier's to report.
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
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError("empty box interval")
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

    def lift(self, p):
        """Wrap periodic coordinates into the box; error on out-of-box rest.

        ``p`` is one point ``(dim,)`` or N points ``(N, dim)``.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.dim:
            raise ValueError(f"point has shape {p.shape}, chart dim {self.dim}")
        batch = p.ndim == 2
        q = p.copy()
        for i, name in enumerate(self.names):
            lo, hi = self.box[i]
            at = (slice(None), i) if batch else i  # coordinate i, each point
            x = p[at]
            if name in self.periodic:
                q[at] = lo + (x - lo) % (hi - lo)
                continue
            if batch:
                bad = x[~((lo - 1e-12 <= x) & (x <= hi + 1e-12))]
                bad = bad[0] if bad.size else None
            else:
                bad = None if lo - 1e-12 <= x <= hi + 1e-12 else x
            if bad is not None:
                raise ValueError(
                    f"coordinate {name}={bad} outside [{lo}, {hi}]")
        return q

    def symbols(self):
        return sp.symbols(self.names)


@functools.cache
def _alternations(key):
    """(permutation of the sorted key, its sign) for every permutation."""
    return tuple((perm, _sort_sign(perm)[1])
                 for perm in itertools.permutations(key))


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
        clean = {}
        for key, fn in coeffs.items():
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"coefficient key {key} is not a sorted "
                                 f"{degree}-subset")
            clean[key] = fn
        self.coeffs = clean
        self.stats = {"one_sided": 0}

    @classmethod
    def from_symbolic(cls, chart, degree, table):
        """Compile a parameter-free coefficient table (any key spelling)."""
        return compile_table(chart, table, degree)()

    # -- evaluation --------------------------------------------------------
    def components(self, p):
        """Sorted-key coefficient dict at p: floats at one point ``(dim,)``,
        ``(N,)`` arrays at N points ``(N, dim)``."""
        q = self.chart.lift(p)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if q.ndim == 1:
                return {key: float(fn(q)) for key, fn in self.coeffs.items()}
            qt = q.T
            return {key: _rows(fn(qt), len(q))
                    for key, fn in self.coeffs.items()}

    def eval_at(self, p):
        """Full alternating component array at p (scalar for degree 0); at N
        points ``(N, dim)`` the arrays gain a leading N axis."""
        comps = self.components(p)
        lead = np.shape(p)[:-1]
        if self.degree == 0:
            return comps.get((), np.zeros(lead) if lead else 0.0)
        T = np.zeros(lead + (self.chart.dim,) * self.degree)
        for key, v in comps.items():
            if not lead and v == 0.0:
                continue
            # each permutation of the sorted key, with its parity
            for perm, s in _alternations(key):
                T[(..., *perm)] += s * v
        return T

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
        if callable(c):
            return FormFieldNum(self.chart, self.degree, {
                k: (lambda f: lambda p: c(p) * f(p))(fn)
                for k, fn in self.coeffs.items()})
        return FormFieldNum(self.chart, self.degree, {
            k: (lambda f: lambda p: c * f(p))(fn)
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


def table_d(chart, table):
    """Exact exterior derivative of a coefficient table (sympy diff)."""
    table = _canon_table(chart, table)
    syms = chart.symbols()
    out = {}
    for key, e in table.items():
        for i, x in enumerate(syms):
            de = sp.diff(e, x)
            if de == 0:
                continue
            new, s = _sort_sign((i,) + key)
            if s == 0:
                continue
            out[new] = out.get(new, 0) + s * de
    return {k: sp.expand(v) for k, v in out.items() if sp.expand(v) != 0}


def table_wedge(chart, t1, t2):
    t1, t2 = _canon_table(chart, t1), _canon_table(chart, t2)
    out = {}
    for k1, e1 in t1.items():
        for k2, e2 in t2.items():
            key, s = _sort_sign(k1 + k2)
            if s == 0:
                continue
            out[key] = out.get(key, 0) + s * e1 * e2
    return {k: v for k, v in out.items() if sp.expand(v) != 0}


def table_wedge_power(chart, table, n):
    out = {(): sp.Integer(1)}
    for _ in range(n):
        out = table_wedge(chart, out, table)
    return out


def table_top(chart, table, k):
    """alpha ^ dalpha^(k+1) for a one-form table: zero exactly where the
    order of ker(alpha) is at most k."""
    return table_wedge(chart, table,
                       table_wedge_power(chart, table_d(chart, table), k + 1))


def table_contract(chart, table, v):
    """Interior product with a constant ambient vector v (array)."""
    table = _canon_table(chart, table)
    comps = [sp.Integer(int(c)) if float(c).is_integer() else sp.Float(c)
             for c in v]
    out = {}
    for key, e in table.items():
        for pos, idx in enumerate(key):
            if comps[idx] == 0:
                continue
            rest = key[:pos] + key[pos + 1:]
            sign = -1 if pos % 2 else 1
            out[rest] = out.get(rest, 0) + sign * comps[idx] * e
    return {k: v_ for k, v_ in out.items() if sp.expand(v_) != 0}


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


@functools.cache
def _namespace():
    """The globals ``sp.lambdify(..., [{"_pow": _pow}, "numpy"])`` gives its
    generated code, built once per process."""
    ns = {}
    exec("import numpy; from numpy import *; from numpy.linalg import *", ns)
    ns.update(I=1j, Heaviside=np.heaviside, _pow=_pow, builtins=builtins,
              range=range)
    return ns


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
    a table's entries are compiled in one ``compile()`` and run in one
    namespace built once per process.  Returns ``bind``: parameter values
    -> FormFieldNum.  Binding compiles nothing, so one compile serves every
    value of a family's parameter.
    """
    table = _canon_table(chart, table)
    deg = len(next(iter(table), ())) if degree is None else degree
    syms = (*chart.symbols(), *params)
    code = compile("".join(_source(syms, e) for e in table.values()),
                   "<compile_table>", "exec")
    ns = _namespace()
    fns = dict(zip(table, (types.FunctionType(c, ns) for c in code.co_consts
                           if isinstance(c, types.CodeType))))

    def bind(*values):
        return FormFieldNum(chart, deg, {
            key: (lambda f: lambda p: f(*p, *values))(fn)
            for key, fn in fns.items()})
    return bind


def table_to_field(chart, table, degree=None):
    return compile_table(chart, table, degree)()


def _step(p, i, h):
    """h times the i-th unit vector, shaped to add to p (one point or a
    coordinate-first batch)."""
    e = np.zeros((len(p),) + (1,) * (np.ndim(p) - 1))
    e[i] = h
    return e


def _partial(fn, p, i, h, box, stats=None):
    """Central-difference partial, one-sided (O(h)) against a box edge; the
    choice is made per point."""
    lo, hi = box[i]
    ok_plus = p[i] + h <= hi + 1e-15
    central = ok_plus & (p[i] - h >= lo - 1e-15)
    e = _step(p, i, h)
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
    out = {}
    box = chart.box

    def make_coeff(key_new):
        def coeff(p):
            total = 0.0
            for j, i in enumerate(key_new):
                rest = key_new[:j] + key_new[j + 1:]
                fn = f.coeffs.get(rest)
                if fn is None:
                    continue
                if i in periodic_idx:
                    e = _step(p, i, h)
                    # lift takes points as rows; p is coordinate-first
                    dpart = (fn(chart.lift((p + e).T).T)
                             - fn(chart.lift((p - e).T).T)) / (2 * h)
                else:
                    dpart = _partial(fn, p, i, h, box, f.stats)
                total += (-1) ** j * dpart
            return total
        return coeff

    keys_new = set()
    for key in f.coeffs:
        for i in range(chart.dim):
            k2, s = _sort_sign((i,) + key)
            if s:
                keys_new.add(k2)
    for key_new in keys_new:
        out[key_new] = make_coeff(key_new)
    return FormFieldNum(chart, f.degree + 1, out)


def fd_jacobian(phi, p, h):
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = h
        cols.append((np.asarray(phi(p + e)) - np.asarray(phi(p - e))) / (2 * h))
    return np.stack(cols, axis=1)


def pullback(f: FormFieldNum, phi, source_chart, h=None):
    """(phi^* f) on source_chart for phi: source_chart -> f.chart.

    The Jacobian is finite-differenced; coefficients come out as sums of
    minor determinants against the target coefficients.
    """
    h = source_chart.default_h() if h is None else h
    p_deg = f.degree

    def make_coeff(key_src):
        def coeff(q):
            J = fd_jacobian(phi, q, h)
            x = np.asarray(phi(q))
            total = 0.0
            for key_tgt, fn in f.coeffs.items():
                v = fn(f.chart.lift(x))
                if v == 0.0:
                    continue
                minor = J[np.ix_(key_tgt, key_src)]
                total += v * np.linalg.det(minor)
            return total
        return coeff

    if p_deg == 0:
        fn0 = f.coeffs.get((), lambda p: 0.0)
        return FormFieldNum(source_chart, 0,
                            {(): lambda q: fn0(f.chart.lift(np.asarray(phi(q))))})
    out = {}
    for key_src in itertools.combinations(range(source_chart.dim), p_deg):
        out[key_src] = make_coeff(key_src)
    return FormFieldNum(source_chart, p_deg, out)


def flow_rk4(X, p0, t, step=None, chart=None):
    """Fixed-step RK4 flow of the vector field X from p0 for time t."""
    p = np.asarray(p0, dtype=float)
    if step is None:
        step = chart.default_h() if chart is not None else 1e-4
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
