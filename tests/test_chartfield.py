"""Pointwise field plumbing: evaluation, FD derivative, pullbacks, grids."""

import dis
import inspect
import itertools
from pathlib import Path
from types import CodeType

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from confolkit import chartfield, cli, gallery
from confolkit.chartfield import (
    Chart,
    FormFieldNum,
    compile_table,
    d_fd,
    flow_rk4,
    pullback,
    sample_grid,
    sample_prefix,
)
from confolkit.grassmann import FormAlgebra

R5 = Chart(names=("x1", "y1", "x2", "y2", "z"),
           box=(((-2, 2),) * 5))


def std_contact(cubic=False):
    x1 = sp.Symbol("x1")
    x2 = sp.Symbol("x2")
    lead = x1**3 if cubic else x1
    return FormFieldNum.from_symbolic(
        R5, 1, {("z",): 1, ("y1",): lead, ("y2",): x2})


def test_eval_at_reads_coefficients():
    alpha = std_contact()
    v = alpha.eval_at([2, 0, 0, 0, 0])
    assert v[R5.index("z")] == pytest.approx(1.0)
    assert v[R5.index("y1")] == pytest.approx(2.0)
    assert np.count_nonzero(v) == 2
    with pytest.raises(ValueError):
        alpha.eval_at([5, 0, 0, 0, 0])


def test_eval_degree2_antisymmetric_matrix():
    alpha = std_contact(cubic=True)
    da = d_fd(alpha, h=1e-4)
    M = da.eval_at([1, 0, 0.5, 0, 0])
    assert M.shape == (5, 5)
    np.testing.assert_allclose(M, -M.T, atol=1e-12)
    i, j = R5.index("x1"), R5.index("y1")
    assert M[i, j] == pytest.approx(3.0, abs=1e-7)
    assert M[R5.index("x2"), R5.index("y2")] == pytest.approx(1.0, abs=1e-9)


def test_d_fd_constant_and_linear():
    f = FormFieldNum.from_symbolic(R5, 1, {("y1",): sp.Symbol("x1")})
    df = d_fd(f, h=1e-4)
    M = df.eval_at([0.3, -0.4, 0.1, 0.2, 0.0])
    assert M[R5.index("x1"), R5.index("y1")] == pytest.approx(1.0, abs=1e-8)
    z = FormFieldNum.from_symbolic(R5, 1, {("z",): 1})
    Mz = d_fd(z).eval_at([0.1] * 5)
    np.testing.assert_allclose(Mz, 0.0, atol=1e-10)


def test_d_fd_one_sided_at_edge():
    f = FormFieldNum.from_symbolic(R5, 1, {("y1",): sp.Symbol("x1") ** 2})
    df = d_fd(f, h=1e-3)
    M = df.eval_at([2.0, 0, 0, 0, 0])        # x1 at the box edge
    assert f.stats["one_sided"] > 0
    assert M[R5.index("x1"), R5.index("y1")] == pytest.approx(4.0, abs=1e-2)


def test_d_fd_squared_vanishes():
    rng = np.random.default_rng(3)
    x1, y1, x2 = sp.symbols("x1 y1 x2")
    f = FormFieldNum.from_symbolic(
        R5, 1, {("x1",): x1 * y1**2, ("y2",): x2**3 - y1, ("z",): x1 * x2})
    h = R5.default_h()
    dd = d_fd(d_fd(f, h=h), h=h)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=5)
        np.testing.assert_allclose(dd.eval_at(p), 0.0, atol=10 * h)


def test_d_fd_matches_symbolic_to_h2():
    # curved coefficients; C = sup |err| / h^2 reported
    x1, y1 = sp.symbols("x1 y1")
    expr = sp.sin(x1) * sp.exp(y1 / 2)
    f = FormFieldNum.from_symbolic(R5, 1, {("y1",): expr})
    alg = FormAlgebra()
    coords = [alg.coordinate(n) for n in R5.names]
    sym_d = (alg.scalar_form(expr) ^ coords[1][1]).d()
    errs = []
    for h in (1e-2, 5e-3):
        df = d_fd(f, h=h)
        p = np.array([0.7, -0.3, 0.2, 0.1, 0.5])
        M = df.eval_at(p)
        want = float(sp.diff(expr, x1).subs({x1: p[0], y1: p[1]}))
        errs.append((h, abs(M[R5.index("x1"), R5.index("y1")] - want)))
    C = max(e / h**2 for h, e in errs)
    print(f"FD-vs-symbolic constant C = {C:.3g}")
    for h, e in errs:
        assert e <= max(C, 1.0) * h**2 * 1.01
    # symbolic route agrees with the hand derivative used above
    assert sym_d.coefficient(
        (alg.gen_named("dx1").index, alg.gen_named("dy1").index)
    ) - sp.diff(expr, x1) == 0


def test_pullback_branched_cover_local_model():
    # phi: (z, r, theta) -> (z, r, k*theta); dz + r^2 dphi pulls back
    # to dz + k r^2 dtheta
    k = 3
    tgt = Chart(("z", "r", "phi"), ((-1, 1), (0.05, 1), (0, 2 * np.pi)),
                periodic=("phi",))
    src = Chart(("z", "r", "theta"), ((-1, 1), (0.05, 1), (0, 2 * np.pi)),
                periodic=("theta",))
    r = sp.Symbol("r")
    f = FormFieldNum.from_symbolic(tgt, 1, {("z",): 1, ("phi",): r**2})
    phi = lambda q: np.array([q[0], q[1], k * q[2]])
    pb = pullback(f, phi, src)
    for p in ([0.2, 0.5, 1.0], [0.0, 0.9, 4.0]):
        v = pb.eval_at(p)
        assert v[0] == pytest.approx(1.0, abs=1e-8)
        assert v[1] == pytest.approx(0.0, abs=1e-8)
        assert v[2] == pytest.approx(k * p[1] ** 2, abs=1e-7)


def test_pullback_identity_and_functorial():
    rng = np.random.default_rng(11)
    x1, y1 = sp.symbols("x1 y1")
    f = FormFieldNum.from_symbolic(R5, 2, {("x1", "y1"): x1 + y1,
                                           ("x2", "z"): y1**2})
    ident = pullback(f, lambda q: q, R5)
    p = rng.uniform(-0.5, 0.5, size=5)
    np.testing.assert_allclose(ident.eval_at(p), f.eval_at(p), atol=1e-7)
    # contravariance: (phi∘psi)^* = psi^* ∘ phi^*
    A = rng.uniform(-0.4, 0.4, size=(5, 5)) + np.eye(5)
    B = rng.uniform(-0.4, 0.4, size=(5, 5)) + np.eye(5)
    phi = lambda q: 0.5 * (A @ q)
    psi = lambda q: 0.5 * (B @ q)
    both = pullback(f, lambda q: phi(psi(q)), R5)
    nested = pullback(pullback(f, phi, R5), psi, R5)
    np.testing.assert_allclose(nested.eval_at(p), both.eval_at(p), atol=1e-5)


def test_flow_invariance_along_kernel_direction():
    # alpha = dz + x1 dy1: the two flat directions span the kernel of
    # d(alpha) on ker(alpha); translating them leaves alpha unchanged.
    alpha = FormFieldNum.from_symbolic(R5, 1, {("z",): 1,
                                               ("y1",): sp.Symbol("x1")})
    X = lambda p: np.array([0, 0, 1.0 + 0.2 * p[3], -0.5 * p[2], 0])
    t = 0.05
    phi = lambda q: flow_rk4(X, q, t, step=1e-3)
    pb = pullback(alpha, phi, R5)
    p = np.array([0.4, 0.1, -0.2, 0.3, 0.0])
    v0, v1 = alpha.eval_at(p), pb.eval_at(p)
    # proportional (here: equal) within FD tolerance
    np.testing.assert_allclose(v1, v0, atol=1e-6)


def test_flow_rk4_harmonic_oscillator():
    X = lambda p: np.array([p[1], -p[0]])
    p = flow_rk4(X, [1.0, 0.0], 2 * np.pi, step=1e-2)
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-6)


def test_sample_grid_reproducible_and_wrapping():
    ch = Chart(("theta", "x"), ((0, 2 * np.pi), (0, 1)), periodic=("theta",))
    a = sample_grid(ch, 2, seed=5)
    b = sample_grid(ch, 2, seed=5)
    assert a.shape == (4, 2)
    np.testing.assert_array_equal(a, b)
    thetas = sorted(a[:, 0])
    assert all(0 <= th < 2 * np.pi for th in thetas)
    assert len({round(th, 9) for th in thetas}) == len(thetas)
    c = sample_grid(ch, 2, seed=6)
    assert any(not np.allclose(p, q) for p, q in zip(a, c))


def test_mnw_like_exponential_coefficient():
    # e^{t1} dtheta1 component evaluates to 1 at t1 = 0
    ch = Chart(("t1", "theta0", "theta1"),
               ((-1, 1), (0, 2 * np.pi), (0, 2 * np.pi)),
               periodic=("theta0", "theta1"))
    t1 = sp.Symbol("t1")
    f = FormFieldNum.from_symbolic(ch, 1, {("theta0",): sp.exp(t1),
                                           ("theta1",): sp.exp(t1)})
    v = f.eval_at([0.0, 0.3, 0.3])
    assert v[ch.index("theta1")] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# batched evaluation: N points at once equal N single points
# ---------------------------------------------------------------------------

# x stays positive for sqrt; t is a circle coordinate
BOXED = Chart(("x", "y", "t"), ((0.5, 2.0), (-1.0, 1.0), (0.0, 2 * np.pi)),
              periodic=("t",))
_X, _Y, _T = sp.symbols("x y t")
_ATOMS = (_X**2, _X**3 * _Y, _Y**4, sp.sqrt(_X), _X**sp.Rational(3, 2),
          sp.sin(_T), sp.cos(_T) * _Y, sp.exp(_Y), sp.exp(_X) * sp.sin(_T),
          1 / _X, sp.Integer(3), sp.Rational(-2, 7))


def _random_table(rng, degree):
    table = {}
    for key in itertools.combinations(range(3), degree):
        if rng.random() < 0.3:
            continue            # leave some keys out
        terms = rng.choice(len(_ATOMS), size=rng.integers(1, 4))
        table[key] = sum(int(rng.integers(-3, 4)) * _ATOMS[i] for i in terms)
    return table or {tuple(range(degree)): sp.Integer(1)}


def _edge_points(rng, n, h):
    """Random points of BOXED; every third one lies within h of an x or y
    edge and the one after it within h of an end of the t period."""
    lo, hi = (np.array(b, dtype=float) for b in zip(*BOXED.box))
    P = lo + rng.random((n, 3)) * (hi - lo)
    for row in range(0, n - 1, 3):
        for r, i in ((row, rng.integers(0, 2)), (row + 1, 2)):
            P[r, i] = lo[i] + rng.random() * h if rng.random() < 0.5 \
                else hi[i] - rng.random() * h
    return P


def _squeeze(q):
    """A map of BOXED into itself that keeps a finite-difference step away
    from the x and y edges: one point to one point."""
    return np.array([1.25 + 0.5 * (q[0] - 1.25), 0.5 * q[1], q[2] + 0.5 * q[1]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_points(seed):
    # row i of an N-row batch against the one-row batch of point i
    rng = np.random.default_rng(seed)
    alpha = compile_table(BOXED, _random_table(rng, 1), 1)()
    beta = compile_table(BOXED, _random_table(rng, 2), 2)()
    P = _edge_points(rng, 12, BOXED.default_h())
    fields = {"alpha": alpha, "beta": beta, "alpha^beta": alpha.wedge(beta),
              "alpha^alpha": alpha.wedge(alpha),
              "beta + 2 alpha^alpha": beta + alpha.wedge(alpha).scale(2.0),
              "d alpha": d_fd(alpha), "d beta": d_fd(beta),
              "pullback beta": pullback(beta, _squeeze, BOXED),
              "pullback of pullback alpha": pullback(
                  pullback(alpha, _squeeze, BOXED), _squeeze, BOXED)}
    for name, f in fields.items():
        # a pullback finite-differences its map at every point: six of them
        Q = P[:6] if name.startswith("pullback") else P
        batch, comps = f.eval_at(Q), f.components(Q)
        assert batch.shape == (len(Q),) + (3,) * f.degree, name
        for i, p in enumerate(Q):
            one = f.eval_at(Q[i:i + 1])
            assert one.shape == (1,) + (3,) * f.degree, name
            np.testing.assert_allclose(batch[i], one[0], rtol=1e-12,
                                       atol=0, err_msg=name)
            point = f.components(p)     # a point is a one-row batch
            assert set(point) == set(comps), name
            for key, v in point.items():
                np.testing.assert_allclose(comps[key][i], v, rtol=1e-12,
                                           atol=0, err_msg=name)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_counts_one_sided_stencils_per_point(seed):
    rng = np.random.default_rng(seed)
    table = _random_table(rng, 1)
    table.setdefault((2,), sp.sin(_T))  # so d takes x and y partials
    P = _edge_points(rng, 12, BOXED.default_h())
    batched, single = (compile_table(BOXED, table, 1)() for _ in range(2))
    d_fd(batched).eval_at(P)
    d_single = d_fd(single)
    for p in P:
        d_single.eval_at(p)
    assert batched.stats["one_sided"] == single.stats["one_sided"] > 0


def test_lift_batch_equals_single_points():
    rng = np.random.default_rng(4)
    P = rng.uniform([0.5, -1.0, -20.0], [2.0, 1.0, 20.0], (200, 3))
    Q = BOXED.lift(P)
    for p, q in zip(P, Q):
        assert BOXED.lift(p).tobytes() == q.tobytes()
    with pytest.raises(ValueError, match="coordinate y=1.5 outside"):
        BOXED.lift(np.array([[1.0, 0.0, 0.0], [1.0, 1.5, 0.0]]))


@pytest.mark.parametrize("density", [1, 2, 3])
def test_sample_grid_draws_one_jitter_per_coordinate(density):
    # the grid as one rng.uniform call per coordinate, in product order
    ch = Chart(("theta", "x", "y"), ((0, 2 * np.pi), (0, 1), (-2, 3)),
               periodic=("theta",))
    rng = np.random.default_rng(9)
    axes = []
    for i, name in enumerate(ch.names):
        lo, hi = ch.box[i]
        w = 0.0 if name in ch.periodic else (hi - lo) * 0.05
        edges = np.linspace(lo + w, hi - w, density + 1)
        axes.append((0.5 * (edges[:-1] + edges[1:]), edges[1] - edges[0]))
    ref = [ch.lift(np.array([axes[i][0][c]
                             + 0.3 * axes[i][1] * rng.uniform(-1, 1)
                             for i, c in enumerate(combo)]))
           for combo in itertools.product(range(density), repeat=3)]
    got = sample_grid(ch, density, 9, margin=0.05)
    assert len(got) == len(ref)
    for s, p in zip(got, ref):
        assert s.tobytes() == p.tobytes()


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 4), density=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1), periodic=st.booleans())
def test_every_sample_prefix_covers_the_box(dim, density, seed, periodic):
    names = tuple(f"u{i}" for i in range(dim))
    box = tuple((-1.0 - i, 2.0 + 3 * i) for i in range(dim))
    ch = Chart(names, box, periodic=names[:1] if periodic else ())
    margin = 0.05
    cells = density ** dim
    P = sample_prefix(ch, density, seed, cells, margin)
    # a reordering of the whole grid, and every count is a prefix of it
    grid = sample_grid(ch, density, seed, margin)
    assert sorted(map(tuple, P)) == sorted(map(tuple, grid))
    count = cells // 2 + 1
    np.testing.assert_array_equal(
        sample_prefix(ch, density, seed, count, margin), P[:count])
    lo = np.array([a + (0 if n in ch.periodic else margin * (b - a))
                   for n, (a, b) in zip(names, box)])
    width = np.array([b - a for a, b in box]) - 2 * (lo - [a for a, _ in box])
    slab = np.minimum((P - lo) // (width / density), density - 1)
    for n in range(density, cells + 1):
        # each coordinate meets all of its slabs, so its range spans all
        # but at most 1.6 of the density cells (the jitter is 0.3 cell)
        for i in range(dim):
            assert len(set(slab[:n, i])) == density
        span = P[:n].max(axis=0) - P[:n].min(axis=0)
        assert np.all(span >= (density - 1.6) / density * width - 1e-12)


@pytest.fixture(scope="module")
def compiled():
    """Every table compiled while the gallery and the demos run: each
    entry's (symbols, expression, source), and the code objects."""
    entries, codes = [], []
    source = chartfield._source

    def record(syms, e):
        text = source(syms, e)
        entries.append((syms, e, text))
        return text

    def record_code(*args):
        codes.append(compile(*args))
        return codes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chartfield, "_source", record)
        mp.setattr(chartfield, "compile", record_code, raising=False)
        for name in gallery.names():
            gallery.build(name).run_verdicts()
        demos = Path(__file__).resolve().parents[1] / "demos"
        for doc in ("cubic_family", "flat_family", "solid_torus"):
            cli.run(cli.parse((demos / f"{doc}.cfl").read_text()))
    return entries, codes


def test_compiled_source_is_lambdify_source(compiled):
    # each entry's source is the text lambdify generates for it, so the
    # compiled code is the same by construction
    entries, _ = compiled
    assert len(entries) > 100
    for syms, e, text in entries:
        fn = sp.lambdify(syms, e, [{"_pow": chartfield._pow}, "numpy"],
                         printer=chartfield._Printer)
        assert text == inspect.getsource(fn)


def test_compiled_globals_are_lambdify_globals(compiled):
    # every global the compiled code loads is bound, in the compile
    # namespace, to the object lambdify's namespace binds it to
    _, codes = compiled
    lam = sp.lambdify((), 0, [{"_pow": chartfield._pow}, "numpy"],
                      printer=chartfield._Printer).__globals__
    names, stack = set(), list(codes)
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
        names |= {i.argval for i in dis.get_instructions(code)
                  if i.opname == "LOAD_GLOBAL"}
    assert {"numpy", "_pow"} <= names
    for name in names:
        assert name in lam and chartfield._NAMESPACE.get(name) is lam[name]


def test_keyword_coordinate_compiles_and_stray_symbols_are_named():
    lam, x = sp.Symbol("lambda"), sp.Symbol("x")
    chart = Chart(("x", "lambda", "_arg1"), ((0, 3),) * 3)
    field = compile_table(chart, {(0,): x * lam, (1,): lam ** 2,
                                  (2,): sp.Symbol("_arg1")}, 1)()
    assert field.components(np.array([2.0, 3.0, 1.0])) == {
        (0,): 6.0, (1,): 9.0, (2,): 1.0}
    with pytest.raises(ValueError, match="free symbols outside the "
                       "coordinates and parameters: a, b"):
        compile_table(chart, {(0,): x * sp.Symbol("b") + sp.Symbol("a")}, 1)


# the table helpers against the sympy bodies they replaced: sp.diff and the
# wedge and contraction sums written out, then sp.expand
_CX, _CY, _CZ, _CS = sp.symbols("x y z s")
_XYZ = Chart(("x", "y", "z"), ((-1, 1),) * 3)
_PIECE = sp.Piecewise((_CX * _CY, _CZ > 0), (_CY ** 2, True))


@st.composite
def _coefficient(draw):
    # polynomial in x, y, z and s, with rational powers of the coordinates;
    # a Piecewise or a Float factor makes the ring take its opaque path
    e = 0
    for _ in range(draw(st.integers(1, 3))):
        term = sp.Rational(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        for v in (_CX, _CY, _CZ, _CS):
            term *= v ** draw(st.sampled_from(
                [0, 0, 1, 2, sp.Rational(1, 2), sp.Rational(-1, 3)]))
        e += term
    opaque = draw(st.sampled_from([None, None, "piecewise", "float"]))
    if opaque == "piecewise":
        e += draw(st.sampled_from([1, _CS, _CZ ** 2])) * _PIECE
    elif opaque == "float":
        e *= sp.Float(draw(st.sampled_from([0.5, 1.25, -2.75, 0.1])))
    return e


@st.composite
def _table(draw, degree):
    keys = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(3), degree))),
        min_size=1, max_size=3, unique=True))
    return {k: draw(_coefficient()) for k in keys}


def _nonzero_expanded(out):
    return {k: sp.expand(v) for k, v in out.items() if sp.expand(v) != 0}


def _sympy_d(table):
    out = {}
    for key, e in table.items():
        for i, x in enumerate(_XYZ.symbols()):
            new, s = chartfield._sort_sign((i,) + key)
            if s:
                out[new] = out.get(new, 0) + s * sp.diff(e, x)
    return _nonzero_expanded(out)


def _sympy_wedge(t1, t2):
    out = {}
    for k1, e1 in t1.items():
        for k2, e2 in t2.items():
            key, s = chartfield._sort_sign(k1 + k2)
            if s:
                out[key] = out.get(key, 0) + s * e1 * e2
    return _nonzero_expanded(out)


def _sympy_contract(table, v):
    comps = [sp.Integer(int(c)) if float(c).is_integer() else sp.Float(c)
             for c in v]
    out = {}
    for key, e in table.items():
        for pos, idx in enumerate(key):
            if comps[idx] != 0:
                rest = key[:pos] + key[pos + 1:]
                out[rest] = out.get(rest, 0) + (-1) ** pos * comps[idx] * e
    return _nonzero_expanded(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=_table(1), gamma=_table(1), beta=_table(2),
       k=st.integers(0, 1), v=st.lists(st.sampled_from(
           [0.0, 1.0, -2.0, 0.5]), min_size=3, max_size=3))
def test_table_helpers_match_the_sympy_oracle(alpha, gamma, beta, k, v):
    # table_d and table_contract entries are structurally sp.expand of the
    # sympy sums; table_wedge's and top_table's entries expand to the naive
    # products'
    assert _nonzero_expanded(chartfield.table_wedge(_XYZ, alpha, gamma)) \
        == _sympy_wedge(alpha, gamma)
    for t in (alpha, beta):
        assert chartfield.table_d(_XYZ, t) == _sympy_d(t)
        assert chartfield.table_contract(_XYZ, t, v) == _sympy_contract(t, v)
        assert chartfield.table_d(_XYZ, chartfield.table_d(_XYZ, t)) == {}
    top = _sympy_wedge(alpha, {(): 1})
    for _ in range(k + 1):
        top = _sympy_wedge(top, _sympy_d(alpha))
    form, = chartfield._forms(_XYZ, alpha)
    assert _nonzero_expanded(chartfield.top_table(form, k)) == top
