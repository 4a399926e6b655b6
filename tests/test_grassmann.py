"""Exterior-algebra engine tests.

The sign/structure oracle is numeric: each generator of degree k is realized
as a random antisymmetric k-tensor on R^N and wedge products are compared
against a permutation-sum antisymmetrization, which shares no code with the
engine's sorted-merge sign bookkeeping.  A second, dict-based symbolic
expander cross-checks d in coordinate algebras.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from confolkit.grassmann import (
    UNDECIDED,
    FormAlgebra,
    FormExpr,
    UnsupportedScalar,
    scalar_is_zero,
)

RNG = np.random.default_rng(20240817)
N = 6  # ambient dimension for the tensor realization


# ---------------------------------------------------------------------------
# numeric tensor oracle
# ---------------------------------------------------------------------------

def _parity(perm):
    inv = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def antisymmetrize(T):
    k = T.ndim
    out = np.zeros_like(T)
    for sigma in itertools.permutations(range(k)):
        out += _parity(sigma) * np.transpose(T, sigma)
    return out / math.factorial(k)


def oracle_wedge(A, B):
    """(a wedge b) with the determinant normalization, via permutation sum."""
    p, q = A.ndim if A.shape else 0, B.ndim if B.shape else 0
    if p == 0 or q == 0:
        return A * B
    T = np.multiply.outer(A, B)
    out = np.zeros_like(T)
    for sigma in itertools.permutations(range(p + q)):
        out += _parity(sigma) * np.transpose(T, sigma)
    return out / (math.factorial(p) * math.factorial(q))


class TensorRealization:
    """Assign random antisymmetric tensors to generators, numbers to symbols."""

    def __init__(self, alg, rng):
        self.tensors = {}
        for g in alg.gens:
            T = rng.standard_normal((N,) * g.degree) if g.degree else rng.standard_normal(())
            self.tensors[g.index] = antisymmetrize(T) if g.degree > 1 else T
        self.alg = alg
        self.rng = rng

    def _coeff_value(self, c, values):
        f = sp.lambdify(sorted(c.free_symbols, key=str), c, "math")
        return f(*[values[s] for s in sorted(c.free_symbols, key=str)])

    def evaluate(self, form, values):
        acc = None
        for key, c in form.terms():
            T = np.array(1.0)
            for gi in key:
                T = oracle_wedge(T, self.tensors[gi])
            cv = self._coeff_value(sp.sympify(c), values)
            acc = cv * T if acc is None else acc + cv * T
        return np.array(0.0) if acc is None else acc


def _rand_values(symbols, rng):
    return {s: float(rng.uniform(0.3, 1.7)) for s in symbols}


# ---------------------------------------------------------------------------
# fixed algebras
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coord4():
    alg = FormAlgebra()
    syms = [alg.coordinate(n) for n in "xyzw"]
    return alg, syms


@pytest.fixture(scope="module")
def mixed():
    alg = FormAlgebra()
    r, dr = alg.coordinate("r")
    lam = alg.generator("lam", 1)               # d lam becomes a fresh generator
    om = alg.generator("om", 2, d=None)
    eta = alg.generator("eta", 1, d=om)
    return alg, (r, dr, lam, om, eta)


# ---------------------------------------------------------------------------
# hand values
# ---------------------------------------------------------------------------

def test_contact_r3_volume(coord4):
    alg, ((x, dx), (y, dy), (z, dz), _) = coord4
    alpha = dz + x * dy
    da = alpha.d()
    assert str(da) == "(1)·dx∧dy"
    vol = alpha ^ da
    assert vol.equals(dx ^ dy ^ dz) is True
    assert vol.degree() == 3


def test_d_squared_and_validate(mixed):
    alg, (r, dr, lam, om, eta) = mixed
    f = sp.Function("f")(r)
    w = alg.scalar_form(f) ^ lam ^ eta
    assert w.d().d().is_zero() is True


def test_even_generator_repeats_odd_squares_vanish(mixed):
    alg, (r, dr, lam, om, eta) = mixed
    assert (lam ^ lam).is_zero() is True
    assert (om ^ om).is_zero() is False
    assert str(om ^ om) == "(1)·om∧om"


def test_declared_chain_rule(mixed):
    alg, (r, dr, lam, om, eta) = mixed
    f = sp.Function("f")(r)
    w = alg.scalar_form(f * r**2)
    dw = w.d()
    expect = dr * sp.diff(f * r**2, r)
    assert dw.equals(expect) is True
    # symbols with no declared differential are constants
    c = sp.Symbol("c")
    assert (alg.scalar_form(c).d()).is_zero() is True


def test_contraction_reeb_field(coord4):
    alg, ((x, dx), (y, dy), (z, dz), _) = coord4
    alpha = dz + x * dy
    vol = alpha ^ alpha.d()
    # iota_{d/dz}(alpha ^ dalpha) = dalpha
    got = vol.contract({"dz": 1})
    assert got.equals(alpha.d()) is True
    # pairing a degree-2 generator needs a FormExpr value
    algb = FormAlgebra()
    om = algb.generator("om", 2, d=None)
    with pytest.raises(TypeError):
        om.contract({"om": 3})
    r, dr = algb.coordinate("r")
    assert om.contract({"om": 2 * dr}).equals(2 * dr) is True


def test_block_caps_truncate():
    alg = FormAlgebra(block_caps={"B": 3})
    lam = alg.generator("lam", 1, block="B")
    dlam = lam.d()
    assert (dlam ^ dlam).is_zero() is True          # degree 4 from a 3-block
    assert (lam ^ dlam).is_zero() is False


def test_top_degree_truncation():
    alg = FormAlgebra(top_degree=2)
    x, dx = alg.coordinate("x")
    y, dy = alg.coordinate("y")
    z, dz = alg.coordinate("z")
    assert (dx ^ dy ^ dz).is_zero() is True
    assert (dx ^ dy).is_zero() is False


def test_param_expansion_ordering(coord4):
    alg, ((x, dx), (y, dy), (z, dz), _) = coord4
    s = sp.Symbol("s")
    w = s**2 * (dx ^ dy) + dz * (3 + s)
    e = w.expand_in_param(s)
    assert e.powers() == [0, 1, 2]
    # reconstruction
    back = alg.zero()
    for k in e.powers():
        back = back + e.coefficient(k) * s**k
    assert back.equals(w) is True


def test_param_expansion_rejects_nonpolynomial(coord4):
    alg, ((x, dx), *_ ) = coord4
    s = sp.Symbol("s")
    w = dx * sp.sin(s)
    with pytest.raises(ValueError, match="not.*polynomial"):
        w.expand_in_param(s)
    with pytest.raises(ValueError):
        (dx * (1 / s)).expand_in_param(s)


def test_scalar_fragment_decisions():
    u, v = sp.symbols("u v")
    assert scalar_is_zero(sp.sin(u)**2 + sp.cos(u)**2 - 1)
    assert scalar_is_zero((sp.sin(u)**2 + sp.cos(u)**2)**3 - 1)
    assert scalar_is_zero(sp.sin(u)**4 - (1 - sp.cos(u)**2)**2)
    assert not scalar_is_zero(sp.sin(u) * sp.cos(v) - 1)
    # true identity outside the declared rewrite: inconclusive, never False
    with pytest.raises(UnsupportedScalar):
        scalar_is_zero(sp.sin(2 * u) - 2 * sp.sin(u) * sp.cos(u))
    with pytest.raises(UnsupportedScalar):
        scalar_is_zero(sp.log(u))
    with pytest.raises(UnsupportedScalar):
        scalar_is_zero(sp.Float(0.5) * u)


def test_undecided_is_not_boolean(coord4):
    alg, ((x, dx), *_ ) = coord4
    w = dx * sp.log(x)
    v = w.is_zero()
    assert v is UNDECIDED
    with pytest.raises(TypeError):
        bool(v)


# ---------------------------------------------------------------------------
# property tests against the tensor oracle
# ---------------------------------------------------------------------------

def _small_poly(symbols, rng):
    terms = rng.integers(1, 3)
    e = sp.Integer(0)
    for _ in range(terms):
        c = int(rng.integers(-3, 4))
        mono = sp.Integer(1)
        for s in symbols:
            mono *= s ** int(rng.integers(0, 2))
        e += c * mono
    return e


def _random_form(alg, degree_pool, rng, symbols):
    keys = []
    gens_by_deg = {}
    for g in alg.gens:
        gens_by_deg.setdefault(g.degree, []).append(g.index)
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        total = int(rng.choice(degree_pool))
        key, deg = [], 0
        while deg < total:
            d = int(rng.choice([d for d in gens_by_deg if 0 < d <= total - deg]))
            key.append(int(rng.choice(gens_by_deg[d])))
            deg += d
        key = tuple(sorted(key))
        terms[key] = terms.get(key, 0) + _small_poly(symbols, rng)
    return FormExpr(alg, terms)


@pytest.fixture(scope="module")
def tensor_setup():
    alg = FormAlgebra()
    syms = []
    for n in "xyz":
        s, _ = alg.coordinate(n)
        syms.append(s)
    alg.generator("om", 2, d=None)
    return alg, syms, TensorRealization(alg, np.random.default_rng(7))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_wedge_matches_tensor_oracle(tensor_setup, seed):
    alg, syms, real = tensor_setup
    rng = np.random.default_rng(seed)
    a = _random_form(alg, [int(rng.choice([1, 2]))], rng, syms)
    b = _random_form(alg, [int(rng.choice([1, 2]))], rng, syms)
    w = a ^ b
    vals = _rand_values(syms, rng)
    lhs = real.evaluate(w, vals)
    rhs = oracle_wedge(real.evaluate(a, vals), real.evaluate(b, vals))
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graded_commutativity(tensor_setup, seed):
    alg, syms, _ = tensor_setup
    rng = np.random.default_rng(seed)
    p = int(rng.choice([1, 2]))
    q = int(rng.choice([1, 2]))
    a = _random_form(alg, [p], rng, syms)
    b = _random_form(alg, [q], rng, syms)
    sign = (-1) ** (p * q)
    assert (a ^ b).equals((b ^ a) * sign) is True


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_wedge_associative(tensor_setup, seed):
    alg, syms, _ = tensor_setup
    rng = np.random.default_rng(seed)
    a, b, c = (_random_form(alg, [1, 2], rng, syms) for _ in range(3))
    assert ((a ^ b) ^ c).equals(a ^ (b ^ c)) is True


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_d_leibniz_and_nilpotent(coord4, seed):
    alg, syms = coord4
    symbols = [s for s, _ in syms]
    rng = np.random.default_rng(seed)
    a = _random_form(alg, [1], rng, symbols)
    b = _random_form(alg, [1, 2], rng, symbols)
    lhs = (a ^ b).d()
    rhs = (a.d() ^ b) + (a ^ b.d()) * (-1)
    assert lhs.equals(rhs) is True
    assert a.d().d().is_zero() is True
    assert b.d().d().is_zero() is True


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contraction_antiderivation(coord4, seed):
    alg, syms = coord4
    symbols = [s for s, _ in syms]
    rng = np.random.default_rng(seed)
    a = _random_form(alg, [1], rng, symbols)
    b = _random_form(alg, [1, 2], rng, symbols)
    X = {f"d{n}": _small_poly(symbols, rng) for n in "xyz"}
    lhs = (a ^ b).contract(X)
    rhs = (a.contract(X) ^ b) + (a ^ b.contract(X)) * (-1)
    assert lhs.equals(rhs) is True
    # twice along the same vector kills any form built from one-forms
    w = _random_form(alg, [2, 3], rng, symbols)
    assert w.contract(X).contract(X).is_zero() is True


# ---------------------------------------------------------------------------
# independent symbolic d (dict expander, unsorted keys + parity sort)
# ---------------------------------------------------------------------------

def _parity_sort(key):
    key = list(key)
    sign, n = 1, len(key)
    for i in range(n):
        for j in range(n - 1 - i):
            if key[j] > key[j + 1]:
                key[j], key[j + 1] = key[j + 1], key[j]
                sign = -sign
    for i in range(n - 1):
        if key[i] == key[i + 1]:
            return None, 0
    return tuple(key), sign


def _oracle_d(form, coords, dnames, alg):
    out = {}
    for key, c in form.terms():
        for i, x in enumerate(coords):
            dc = sp.diff(c, x)
            if dc == 0:
                continue
            k2, s = _parity_sort((alg.gen_named(dnames[i]).index,) + key)
            if s:
                out[k2] = out.get(k2, 0) + s * dc
    return FormExpr(alg, out)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_d_matches_dict_expander(coord4, seed):
    alg, syms = coord4
    symbols = [s for s, _ in syms]
    rng = np.random.default_rng(seed)
    w = _random_form(alg, [1, 2], rng, symbols)
    got = w.d()
    want = _oracle_d(w, symbols, ["dx", "dy", "dz", "dw"], alg)
    assert got.equals(want) is True


# ---------------------------------------------------------------------------
# differential test: ring coefficients against plain sympy + sp.expand
# ---------------------------------------------------------------------------

def _ref_clean(terms):
    out = {}
    for k, c in terms.items():
        c = sp.expand(c)
        if c != 0:
            out[k] = c
    return out


def _ref_add(A, B):
    out = dict(A)
    for k, c in B.items():
        out[k] = out.get(k, 0) + c
    return _ref_clean(out)


def _ref_wedge(A, B):
    """Wedge of one-form monomials by parity sort (no sorted merge)."""
    out = {}
    for k1, c1 in A.items():
        for k2, c2 in B.items():
            k, s = _parity_sort(k1 + k2)
            if s:
                out[k] = out.get(k, 0) + s * c1 * c2
    return _ref_clean(out)


def _ref_d(A, coords):
    out = {}
    for key, c in A.items():
        for x, gi in coords:
            k, s = _parity_sort((gi,) + key)
            if s:
                out[k] = out.get(k, 0) + s * sp.diff(c, x)
    return _ref_clean(out)


def _ref_contract(A, X):
    out = {}
    for key, c in A.items():
        for pos, gi in enumerate(key):
            if gi in X:
                k = key[:pos] + key[pos + 1:]
                out[k] = out.get(k, 0) + (-1) ** pos * X[gi] * c
    return _ref_clean(out)


def _ref_is_zero(A):
    verdict = True
    for c in A.values():
        try:
            if not scalar_is_zero(c):
                return False
        except UnsupportedScalar:
            verdict = UNDECIDED
    return verdict


def _ring_scalar(rng, syms, f):
    """Random sum of products of ring atoms with rational coefficients."""
    x, y, z, a = syms

    def poly():
        pool = [x, y, z, a, x * y, y * z, sp.Integer(1)]
        pick = rng.choice(len(pool), size=int(rng.integers(1, 3)),
                          replace=False)
        e = sum(int(rng.integers(1, 3)) * (-1) ** int(rng.integers(0, 2))
                * pool[i] for i in pick)
        return e if e.free_symbols else x

    atoms = [
        lambda: syms[int(rng.integers(0, 4))],
        lambda: f,
        lambda: sp.diff(f, x),
        lambda: sp.sin(poly()),
        lambda: sp.cos(poly()),
        lambda: sp.exp(poly()),
        lambda: syms[int(rng.integers(0, 3))] ** -int(rng.integers(1, 3)),
        lambda: poly() ** 2,
    ]
    e = sp.Integer(0)
    for _ in range(int(rng.integers(1, 3))):
        term = sp.Rational(int(rng.integers(1, 4)) * (-1) ** int(rng.integers(0, 2)),
                           int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(1, 3))):
            term *= atoms[int(rng.integers(0, len(atoms)))]()
        e += term
    return e


@pytest.fixture(scope="module")
def ring_setup():
    alg = FormAlgebra()
    coords = [alg.coordinate(n) for n in "xyz"]
    syms = [c for c, _ in coords] + [sp.Symbol("a")]
    f = sp.Function("f")(syms[0])
    return alg, syms, f


def _ring_form(alg, rng, degree, syms, f):
    keys = list(itertools.combinations(range(3), degree))
    pick = rng.choice(len(keys), size=int(rng.integers(1, len(keys) + 1)),
                      replace=False)
    return {keys[i]: _ring_scalar(rng, syms, f) for i in pick}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ring_matches_sympy_expand(ring_setup, seed):
    alg, syms, f = ring_setup
    rng = np.random.default_rng(seed)
    raw_a = _ring_form(alg, rng, 1, syms, f)
    raw_b = _ring_form(alg, rng, int(rng.integers(1, 3)), syms, f)
    A, B = FormExpr(alg, raw_a), FormExpr(alg, raw_b)
    ra, rb = _ref_clean(raw_a), _ref_clean(raw_b)
    coords = [(s, i) for i, s in enumerate(syms[:3])]
    X = {i: _ring_scalar(rng, syms, f) for i in range(3)
         if rng.integers(0, 2)}
    k = _ring_scalar(rng, syms, f)
    cases = [
        (A, ra), (B, rb),
        (A + B, _ref_add(ra, rb)),
        (A - A, {}),
        (A * k, _ref_clean({key: k * c for key, c in ra.items()})),
        (A ^ B, _ref_wedge(ra, rb)),
        (A.d(), _ref_d(ra, coords)),
        ((A ^ B).d(), _ref_d(_ref_wedge(ra, rb), coords)),
        ((A ^ B).contract({f"d{'xyz'[i]}": v for i, v in X.items()}),
         _ref_contract(_ref_wedge(ra, rb), X)),
    ]
    for got, want in cases:
        assert dict(got.terms()) == want
    for got, want in cases[4:6]:
        assert got.is_zero() is _ref_is_zero(want)
    # the one trig rewrite: a multiple of sin^2 u + cos^2 u - 1 is zero
    u = syms[int(rng.integers(0, 4))]
    c = _ring_scalar(rng, syms, f) * (sp.sin(u) ** 2 + sp.cos(u) ** 2 - 1)
    assert alg.scalar_form(c).is_zero() is _ref_is_zero(_ref_clean({(): c}))


def test_ring_named_coefficients():
    alg = FormAlgebra()
    x, dx = alg.coordinate("x")
    y, dy = alg.coordinate("y")
    u = sp.Symbol("u")
    # products formed inside the ring, compared with sp.expand
    assert ((dx * sp.exp(x)) * sp.exp(-x)).coefficient(dx) == 1
    assert (alg.scalar_form(sp.exp(x)) ^ (dx * sp.exp(x))).coefficient(dx) \
        == sp.exp(2 * x)
    w = (dx * (x + 1)) * (1 / y)
    assert w.coefficient(dx) == sp.expand((x + 1) / y) == x / y + 1 / y
    trig = alg.scalar_form(sp.sin(u) ** 2) + alg.scalar_form(sp.cos(u) ** 2)
    assert trig.coefficient(()) == sp.sin(u) ** 2 + sp.cos(u) ** 2
    assert (trig - alg.scalar_form(1)).is_zero() is True
    assert trig.equals(alg.scalar_form(1)) is True
    inv = sp.sin(u) ** -2 - 1 - sp.cos(u) ** 2 * sp.sin(u) ** -2
    assert alg.scalar_form(inv).is_zero() is True
    # outside the fragment: exact coefficients, undecided zero tests
    lg = dy * sp.log(x)
    assert lg.is_zero() is UNDECIDED
    assert lg.d().coefficient(dx ^ dy) == 1 / x
    fl = dx * (sp.Float(0.5) * x) + dx * (sp.Float(0.25) * x)
    assert fl.coefficient(dx) == sp.expand(sp.Float(0.75) * x)
    assert fl.is_zero() is UNDECIDED
    two = alg.scalar_form(2)
    assert ((two ^ (dx * (sp.Float(0.25) * x))) - dx * (sp.Float(0.5) * x)) \
        .terms() == []
    for w in (dx * sp.sin(1 / x), dx * sp.Function("g")(x + y)):
        assert w.is_zero() is UNDECIDED
    # sympy cancels (x+1) * 1/(x+1) before expanding; so does the ring
    for w in ((dx * (x + 1)) * (1 / (x + 1)),
              alg.scalar_form(1 / (x + 1)) ^ (dx * (x + 1))):
        assert w.coefficient(dx) == 1
    # a scalar factor cancels as written, before it is expanded
    assert ((dx * (1 / (x + 1))) * (x + 1) ** 2).coefficient(dx) == x + 1


def test_forms_of_two_algebras_never_mix():
    # each algebra's coefficients index its own atoms: a form of another
    # algebra is refused wherever it can enter, not read with the wrong atoms
    alg, other = FormAlgebra(), FormAlgebra()
    x, dx = alg.coordinate("x")
    y, dy = other.coordinate("y")
    w = dy * sp.exp(y)
    for use in (lambda: dx + w, lambda: dx ^ w, lambda: dx.equals(w),
                lambda: dx.contract({"dx": w}),
                lambda: alg.generator("g", 0, d=w),
                lambda: alg.scalar_differential(sp.Symbol("t"), w)):
        with pytest.raises(ValueError, match="different algebras"):
            use()
    assert dx.contract({"dx": 1}).coefficient(()) == 1


def test_ring_parameter_in_a_denominator_through_the_parser():
    from confolkit import cli
    doc = cli.parse("chart x y z\nparam s\nform alpha = dz + x/s * dy\n")
    alpha = doc.forms["alpha"]
    s, x = sp.Symbol("s"), sp.Symbol("x")
    assert dict(alpha.terms())[(doc.algebra.gen_named("dy").index,)] \
        == sp.expand(x / s) == x / s
    assert str(alpha) == "(x/s)·dy + (1)·dz"


@pytest.mark.parametrize("name", ["cubic_family", "flat_family",
                                  "solid_torus"])
def test_demo_tables_are_expanded(name):
    from pathlib import Path

    from confolkit import cli
    root = Path(__file__).resolve().parents[1]
    doc = cli.parse((root / "demos" / f"{name}.cfl").read_text())
    tables = [t for *_, t in doc.extends]
    tables += [t for entry in doc.checks for t in entry
               if isinstance(t, dict)]
    assert tables
    for table in tables:
        for e in table.values():
            assert e == sp.expand(e)
