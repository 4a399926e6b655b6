"""Graded-commutative exterior algebra over an exact scalar ring.

The scalar ring is the fraction field of multivariate polynomials over Q in
declared symbols, undetermined functions of a single declared variable
(``f(r)`` with formal derivatives ``f'``, ``f''`` tied to ``d`` only through
the declared dependence), and atomic transcendental factors ``sin u``,
``cos u``, ``exp u`` of polynomial arguments.  The only trigonometric rewrite
the normalizer applies is ``sin^2 u + cos^2 u = 1`` (as a sin-power
reduction); everything else is plain polynomial normalization, so equality of
scalars inside this fragment is decidable.  Expressions that leave the
fragment (other special functions, floats, ...) make equality queries return
:data:`UNDECIDED` instead of guessing.

Forms are finite sums ``coeff * g_1 ^ ... ^ g_k`` over declared generators.
Monomials are kept strictly sorted in declaration order with exact sign
bookkeeping; odd-degree generators square to zero, even-degree generators may
repeat.  A relation set (the :class:`FormAlgebra`) fixes the generators, the
declared differentials, optional top-degree truncation and optional per-block
degree caps (forms pulled back from a factor of bounded dimension).

A :class:`FormExpr` stores each coefficient as an element of its algebra's
coefficient ring: a dict from exponent tuples to rationals over the atoms
the algebra has met (symbols with rational exponents, ``f(r)`` and its
derivatives, ``sin u``, ``cos u``, and ``exp m`` to rational powers, so
``x * x**-1``, ``exp(x) * exp(-x)`` and ``exp(x)**2`` simplify as in sympy).
Sums, wedges, ``d`` (the chain rule through a d(atom) table built once per
atom) and contractions run in that ring; ``is_zero`` and ``equals`` decide
there after ``sin^2 u -> 1 - cos^2 u``.  Coefficients become sympy
expressions only at the edges, by ``as_expr``: ``terms``, ``coefficient``,
``__str__``, ``subs``, ``map_coeffs`` and ``expand_in_param``; each is
structurally equal to ``sp.expand`` of the coefficient.  ``laurent`` is
the one split of a scalar by powers of a parameter: ``expand_in_param``
and the approx module's exact conformal limits both read it.  A coefficient
that uses an atom outside the fragment (a ``Float``, ``log x``,
``1/(x+1)``) is stored as that ``sp.expand`` sympy expression instead, and
its arithmetic, ``d`` and zero tests are sympy's, as before the ring; its
equality queries stay :data:`UNDECIDED`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp
from sympy.core.function import AppliedUndef


class UnsupportedScalar(Exception):
    """Scalar expression falls outside the decidable fragment."""


class _Undecided:
    """Three-valued verdict for equality queries outside the fragment."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDECIDED"

    def __bool__(self):
        raise TypeError("UNDECIDED verdict is neither True nor False; "
                        "compare with `is UNDECIDED` explicitly")


UNDECIDED = _Undecided()

_UNDECLARED = object()   # sentinel for generators with auto-created differential


# --------------------------------------------------------------------------
# scalar fragment
# --------------------------------------------------------------------------

_TRIG = (sp.sin, sp.cos)


def _check_fragment(expr):
    """Raise UnsupportedScalar if expr uses atoms outside the scalar ring."""
    for node in sp.preorder_traversal(expr):
        if isinstance(node, sp.Float):
            raise UnsupportedScalar(f"float literal {node} (ring is exact, over Q)")
        if isinstance(node, AppliedUndef):
            if len(node.args) != 1 or not node.args[0].is_Symbol:
                raise UnsupportedScalar(
                    f"undetermined function {node} must have a single symbol argument")
        elif isinstance(node, sp.Derivative):
            if not isinstance(node.expr, AppliedUndef):
                raise UnsupportedScalar(f"derivative of non-declared function: {node}")
        elif isinstance(node, sp.Function) and not isinstance(node, AppliedUndef):
            if node.func not in (sp.sin, sp.cos, sp.exp):
                raise UnsupportedScalar(f"function {node.func} outside sin/cos/exp fragment")
            arg = node.args[0]
            if not arg.free_symbols or not arg.is_polynomial(*arg.free_symbols):
                raise UnsupportedScalar(f"transcendental argument {arg} is not polynomial")
    return expr


def _reduce_sin_powers(e):
    # sin(u)**k -> (1-cos(u)**2)**(k//2) * sin(u)**(k%2); the single trig rewrite
    def bad(x):
        return (x.is_Pow and x.exp.is_Integer and x.exp >= 2
                and isinstance(x.base, sp.sin))

    while True:
        hits = [x for x in e.atoms(sp.Pow) if bad(x)]
        if not hits:
            return e
        sub = {}
        for x in hits:
            u = x.base.args[0]
            k = int(x.exp)
            sub[x] = (1 - sp.cos(u) ** 2) ** (k // 2) * sp.sin(u) ** (k % 2)
        e = sp.expand(e.subs(sub))


def _canon_num_den(expr):
    """Canonical (numerator, denominator) pair of a fragment scalar."""
    _check_fragment(expr)
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    num = _reduce_sin_powers(sp.expand(sp.powsimp(sp.expand(num), combine="exp")))
    den = _reduce_sin_powers(sp.expand(sp.powsimp(sp.expand(den), combine="exp")))
    return num, den


def _args_entangled(e):
    """True when two distinct transcendental arguments share a symbol.

    ``sin(2u) - 2 sin(u) cos(u)`` is zero by an identity the normalizer does
    not apply; a nonzero canonical form is then inconclusive.  Arguments with
    disjoint symbols (or equal arguments) are algebraically independent over
    the polynomial ring, so False verdicts stay sound there.
    """
    return _shares_symbol(sp.expand(f.args[0]) for f in e.atoms(sp.Function)
                          if not isinstance(f, AppliedUndef))


def _shares_symbol(args):
    """True when two distinct arguments share a free symbol."""
    args = [a for a in set(args) if a.free_symbols]
    return any(a.free_symbols & b.free_symbols
               for a, b in itertools.combinations(args, 2))


def scalar_is_zero(expr):
    """Decide expr == 0 inside the fragment (raises UnsupportedScalar outside)."""
    num, _ = _canon_num_den(sp.sympify(expr))
    if num == 0:
        return True
    if _args_entangled(num):
        raise UnsupportedScalar(
            f"nonzero canonical form with related transcendental arguments: {num}")
    return False


def laurent(expr, p):
    """Map power -> nonzero coefficient of a scalar that is a polynomial in
    the parameter ``p`` over a power of ``p``.

    Factors free of ``p`` (a ``Piecewise`` in the coordinates, ``exp t``)
    are coefficients, also in a denominator.  Anything else (``p`` under a
    function or a fractional power, a denominator not a power of ``p``)
    raises ValueError.
    """
    num, den = sp.fraction(sp.together(sp.expand(expr)))
    try:
        shift = sp.degree(sp.Poly(den, p)) if den.has(p) else 0
        rem = sp.cancel(den / p ** shift)
        if rem.has(p):
            raise ValueError(f"denominator {den} is not a pure power of {p}")
        if rem != 1:
            # together() may park parameter-free factors (e.g. exp(t)) in
            # the denominator; fold them back before reading off coefficients
            num = num / rem
        poly = sp.Poly(sp.expand(num), p)
    except sp.PolynomialError as exc:
        raise ValueError(f"not polynomial in {p}: {expr}") from exc
    return {k - shift: c for (k,), c in zip(poly.monoms(), poly.coeffs())
            if c != 0}


# --------------------------------------------------------------------------
# the coefficient ring under FormExpr
# --------------------------------------------------------------------------

def _qq(q):
    """A sympy Rational as an int or a Fraction."""
    return q.p if q.q == 1 else Fraction(q.p, q.q)


def _to_sympy(q):
    return sp.Rational(q.numerator, q.denominator)


def _mono_mul(a, b):
    """Product of two monomials: exponent tuples without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    m = tuple(map(operator.add, a, b))
    if len(b) < len(a):
        return m + a[len(b):]
    while m and not m[-1]:
        m = m[:-1]
    return m


def _mono_set(m, i, k):
    """``m`` with exponent ``k`` at generator ``i``."""
    if i >= len(m):
        m = m + (0,) * (i + 1 - len(m))
    m = m[:i] + (k,) + m[i + 1:]
    while m and not m[-1]:
        m = m[:-1]
    return m


def _exp_of(m, i):
    return m[i] if i < len(m) else 0


class _Opaque(Exception):
    """A sympy node outside the ring's atoms."""


@dataclass(frozen=True)
class _Atom:
    """One generator of the coefficient ring."""

    expr: sp.Basic            # the atom itself; exp(unit) for exponentials
    unit: sp.Basic | None     # m for the exponential atoms exp(k*m), k in Q
    trig: str | None          # "sin" / "cos"

    def power(self, k):
        k = _to_sympy(k)
        return sp.exp(k * self.unit) if self.unit is not None \
            else sp.Pow(self.expr, k)


def _in_fragment(expr):
    try:
        _check_fragment(expr)
    except UnsupportedScalar:
        return False
    return True


class _CoeffRing:
    """Polynomial ring over Q in the atoms an algebra has met so far.

    An element is a dict {exponent tuple: int or Fraction} (zeros only while
    an accumulator is being filled).  Atoms are declared and undeclared
    symbols (with rational, possibly negative, exponents), formal functions
    ``f(r)`` and their derivatives, ``sin u`` and ``cos u``, and the
    exponentials: ``exp(k*m)`` is the atom ``exp(m)`` to the rational power
    ``k``, so ``exp(x)*exp(-x) = 1`` and ``exp(x)**2 = exp(2x)`` hold as they
    do in sympy.  Anything else (a ``Float``, ``log x``, ``1/(x+1)``,
    ``sqrt(x+1)``, ``pi``) is opaque: a coefficient that uses it is stored as
    the sympy expression ``sp.expand`` gives, and its sums, products,
    derivatives and zero tests are sympy's, as before the ring.  (A ring
    generator ``1/(x+1)`` would not cancel ``(x + 1) * 1/(x + 1)``, which
    sympy's product does before expanding.)  ``as_expr`` of every stored
    coefficient is structurally equal to ``sp.expand`` of the sympy
    coefficient it replaces.
    """

    def __init__(self, alg):
        self.alg = alg
        self.atoms: list[_Atom] = []
        self._index = {}      # symbol, atom or ("exp", m) -> generator
        self._seen = {}       # sympy node met as an atom -> element, or None
        self._d_atoms = {}    # generator -> {one-form key: coefficient}

    # -- conversion from sympy ----------------------------------------------
    def _gen(self, key, make):
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.atoms)
            self.atoms.append(make())
        return i

    @staticmethod
    def _power(i, k=1):
        return {(0,) * i + (k,): 1}

    def _symbol(self, x):
        return self._gen(x, lambda: _Atom(x, None, None))

    def _walk(self, e):
        """e as a ring element; raises _Opaque on an atom outside the ring."""
        if e.is_Rational:
            return {(): _qq(e)} if e else {}
        if e.is_Symbol:
            return self._power(self._symbol(e))
        if e.is_Add:
            acc = {}
            for a in e.args:
                for m, v in self._walk(a).items():
                    acc[m] = acc.get(m, 0) + v
            return {m: v for m, v in acc.items() if v}
        if e.is_Mul:
            args = iter(e.args)
            c = self._walk(next(args))
            for a in args:
                c = _product(c, self._walk(a))
            return c
        if e.is_Pow:
            b, n = e.args
            if n.is_Integer:
                c, n = self._walk(b), int(n)
                if len(c) == 1:
                    (m, v), = c.items()
                    v = Fraction(v) ** n if n < 0 else v ** n
                    if v.denominator == 1:
                        v = v.numerator
                    return {tuple(k * n for k in m): v}
                if n > 0:
                    out = c
                    for _ in range(n - 1):
                        out = _product(out, c)
                    return out
            elif n.is_Rational and b.is_Symbol:
                return self._power(self._symbol(b), _qq(n))
        return self._atom(e)

    def _atom(self, e):
        if e not in self._seen:
            self._seen[e] = self._new_atom(e)
        c = self._seen[e]
        if c is None:
            raise _Opaque(e)
        return c

    def _new_atom(self, e):
        """The element of a node ``_walk`` does not take apart (None when
        it is opaque)."""
        x = sp.expand(e)
        if x != e:
            try:
                return self._walk(x)
            except _Opaque:
                return None
        if not _in_fragment(x):
            return None
        if isinstance(x, sp.exp) or x is sp.E:
            k, m = (x.args[0] if x is not sp.E else sp.S.One).as_coeff_Mul()
            if k.is_Rational and m.free_symbols:
                return self._power(
                    self._gen(("exp", m), lambda: _Atom(sp.exp(m), m, None)),
                    _qq(k))
        trig = {sp.sin: "sin", sp.cos: "cos"}.get(x.func)
        if trig is None and not isinstance(x, (AppliedUndef, sp.Derivative)):
            return None
        return self._power(self._gen(x, lambda: _Atom(x, None, trig)))

    def from_expr(self, e):
        """A sympy scalar as a ring element, or as ``sp.expand(e)`` when it
        uses an opaque atom."""
        e = sp.sympify(e)
        try:
            return self._walk(e)
        except _Opaque:
            return sp.expand(e)

    def normal(self, c):
        """Stored form of a FormExpr coefficient (sympy scalar or element)."""
        if not isinstance(c, dict):
            return self.from_expr(c)
        if all(c.values()):
            return c
        return {m: v for m, v in c.items() if v}

    # -- conversion to sympy (the edges) -------------------------------------
    def as_expr(self, c):
        if not isinstance(c, dict):
            return c
        atoms = self.atoms
        return sp.Add(*[
            sp.Mul(_to_sympy(v),
                   *[atoms[i].power(k) for i, k in enumerate(m) if k])
            for m, v in c.items()])

    # -- arithmetic ------------------------------------------------------------
    def plus(self, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            acc = dict(a)
            for m, v in b.items():
                acc[m] = acc.get(m, 0) + v
            return acc
        return self.as_expr(a) + self.as_expr(b)

    def add_into(self, acc, key, c, sign):
        """acc[key] += sign * c, in place (zeros are dropped by normal)."""
        t = acc.get(key)
        if isinstance(c, dict) and not isinstance(t, sp.Basic):
            if t is None:
                t = acc[key] = {}
            for m, v in c.items():
                t[m] = t.get(m, 0) + sign * v
        else:
            acc[key] = (0 if t is None else self.as_expr(t)) \
                + sign * self.as_expr(c)

    def addmul(self, acc, key, a, b, sign):
        """acc[key] += sign * a * b, in place."""
        if not (a and b):
            return
        t = acc.get(key)
        if not (isinstance(a, dict) and isinstance(b, dict)) \
                or isinstance(t, sp.Basic):
            self.add_into(acc, key, self.as_expr(a) * self.as_expr(b), sign)
            return
        if t is None:
            t = acc[key] = {}
        bt = b.items()
        for m1, v1 in a.items():
            v1 = sign * v1
            for m2, v2 in bt:
                m = _mono_mul(m1, m2)
                t[m] = t.get(m, 0) + v1 * v2

    # -- exterior derivative of a coefficient ---------------------------------
    def forget_differentials(self):
        """Drop the d(atom) table after a new scalar differential."""
        self._d_atoms.clear()

    def _sympy_d(self, e):
        """d of a sympy scalar by ``sp.diff``: {one-form key: coefficient}."""
        acc = {}
        for sym, df in self.alg.scalar_diffs:
            part = sp.diff(e, sym)
            if part != 0:
                p = self.from_expr(part)
                for k, v in df._terms.items():
                    self.addmul(acc, k, p, v, 1)
        return acc

    def _d_atom(self, i):
        """d(atom i) as {one-form key: coefficient}, once per atom."""
        d = self._d_atoms.get(i)
        if d is None:
            d = {k: c for k, c in (
                (k, self.normal(c))
                for k, c in self._sympy_d(self.atoms[i].power(1)).items())
                if c}
            self._d_atoms[i] = d
        return d

    def differential(self, c):
        """d(c) as {one-form key: coefficient}: the chain rule over the
        atoms, or sympy's derivative for an opaque coefficient."""
        if not isinstance(c, dict):
            return self._sympy_d(c)
        out = {}
        partials = {}
        for m, v in c.items():
            for i, k in enumerate(m):
                if k and self._d_atom(i):
                    d = partials.setdefault(i, {})
                    m2 = _mono_set(m, i, k - 1)
                    d[m2] = d.get(m2, 0) + v * k
        for i, p in partials.items():
            for key, v in self._d_atom(i).items():
                self.addmul(out, key, p, v, 1)
        return out

    # -- zero test ---------------------------------------------------------
    def is_zero(self, c):
        """True / False / UNDECIDED, as ``scalar_is_zero`` of ``as_expr(c)``.

        A ring element whose transcendental arguments are pairwise unrelated
        is tested exactly in the ring after ``sin^2 u -> 1 - cos^2 u``;
        everything else takes ``scalar_is_zero``.
        """
        if not isinstance(c, dict):
            return self._sympy_is_zero(c)
        if not c:
            return True
        used = {}
        for m in c:
            for i, k in enumerate(m):
                if k:
                    used.setdefault(i, set()).add(k)
        args = []
        for i, ks in used.items():
            a = self.atoms[i]
            if a.trig:
                args.append(a.expr.args[0])
            elif a.unit is not None:
                args.extend(_to_sympy(k) * a.unit for k in ks)
        if _shares_symbol(args):
            return self._sympy_is_zero(c)
        terms = c
        for i in used:
            if terms and self.atoms[i].trig == "sin":
                terms = self._reduce_sin(terms, i)
        return not terms

    def _sympy_is_zero(self, c):
        try:
            return scalar_is_zero(self.as_expr(c))
        except UnsupportedScalar:
            return UNDECIDED

    def _reduce_sin(self, terms, i):
        """Clear negative powers of atom i = sin u, then sin^2 -> 1 - cos^2."""
        low = min(_exp_of(m, i) for m in terms)
        if low < 0:
            terms = {_mono_set(m, i, _exp_of(m, i) - low): v
                     for m, v in terms.items()}
        (jm, _), = self._atom(sp.cos(self.atoms[i].expr.args[0])).items()
        j = len(jm) - 1
        while any(_exp_of(m, i) >= 2 for m in terms):
            out = {}
            for m, v in terms.items():
                k = _exp_of(m, i)
                if k >= 2:
                    m = _mono_set(m, i, k - 2)
                    mc = _mono_set(m, j, _exp_of(m, j) + 2)
                    out[mc] = out.get(mc, 0) - v
                out[m] = out.get(m, 0) + v
            terms = {m: v for m, v in out.items() if v}
        return terms


def _neg(a):
    return {m: -v for m, v in a.items()} if isinstance(a, dict) else -a


def _product(a, b):
    """Ring product of two elements (no sympy)."""
    acc = {}
    bt = b.items()
    for m1, v1 in a.items():
        for m2, v2 in bt:
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + v1 * v2
    return {m: v for m, v in acc.items() if v}


# --------------------------------------------------------------------------
# generators and the relation set
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FormGenerator:
    name: str
    degree: int
    index: int
    block: str | None = None

    def __repr__(self):
        return self.name


class FormAlgebra:
    """Ordered generators, declared differentials, and truncation rules.

    Generator order is declaration order; the canonical monomial order and all
    printed output follow it.  ``top_degree`` truncation is opt-in; block caps
    model forms pulled back from a bounded-dimension factor and always apply.
    """

    def __init__(self, top_degree=None, block_caps=None):
        self.top_degree = top_degree
        self.block_caps = dict(block_caps or {})
        self.gens: list[FormGenerator] = []
        self._diffs: dict[int, "FormExpr | None"] = {}
        self.scalar_diffs: list[tuple[sp.Symbol, "FormExpr"]] = []
        self.ring = _CoeffRing(self)

    # -- declarations ------------------------------------------------------
    def generator(self, name, degree, d=_UNDECLARED, block=None):
        """Declare a generator, returning it as a one-term FormExpr.

        ``d`` may be a FormExpr (declared differential), 0/None (closed), or
        left out, in which case a fresh closed generator ``d<name>`` of degree
        ``degree+1`` is created to stand for the differential.
        """
        if any(g.name == name for g in self.gens):
            raise ValueError(f"duplicate generator name {name!r}")
        g = FormGenerator(name, degree, len(self.gens), block)
        self.gens.append(g)
        if d is _UNDECLARED:
            dg = FormGenerator("d" + name, degree + 1, len(self.gens), block)
            self.gens.append(dg)
            self._diffs[dg.index] = None
            self._diffs[g.index] = FormExpr(self, {(dg.index,): sp.Integer(1)})
        elif d is None or d == 0:
            self._diffs[g.index] = None
        else:
            if not isinstance(d, FormExpr):
                raise TypeError("declared differential must be a FormExpr")
            self.own(d)
            if d.degree() not in (degree + 1, None):
                raise ValueError(f"d({name}) must have degree {degree + 1}")
            self._diffs[g.index] = d
        return FormExpr(self, {(g.index,): sp.Integer(1)})

    def coordinate(self, name, block=None, **assumptions):
        """Declare a scalar coordinate with its differential one-form.

        Returns ``(symbol, d_symbol)`` where the second item is the FormExpr
        for the fresh closed generator ``d<name>``.
        """
        x = sp.Symbol(name, **assumptions)
        if any(s == x for s, _ in self.scalar_diffs):
            raise ValueError(f"duplicate coordinate {name}")
        dx = self.generator("d" + name, 1, d=None, block=block)
        self.scalar_diffs.append((x, dx))
        self.ring.forget_differentials()
        return x, dx

    def scalar_differential(self, sym, form):
        """Declare d(sym) = form for an already-built one-form (e.g. d(phi1)
        equal to an abstract closed generator)."""
        self.scalar_diffs.append((sp.sympify(sym), self.own(form)))
        self.ring.forget_differentials()

    def own(self, form):
        """``form``, checked to be a FormExpr of this algebra: a coefficient
        indexes its own algebra's atoms, so forms of two algebras never mix."""
        if not isinstance(form, FormExpr):
            raise TypeError("expected FormExpr")
        if form.alg is not self:
            raise ValueError("forms live in different algebras")
        return form

    # -- lookups -----------------------------------------------------------
    def form(self, name):
        for g in self.gens:
            if g.name == name:
                return FormExpr(self, {(g.index,): sp.Integer(1)})
        raise KeyError(name)

    def gen_named(self, name):
        for g in self.gens:
            if g.name == name:
                return g
        raise KeyError(name)

    def zero(self):
        return FormExpr(self, {})

    def scalar_form(self, c):
        c = sp.sympify(c)
        return FormExpr(self, {(): c})

    def d_of_gen(self, idx):
        return self._diffs.get(idx)

    def _monomial_ok(self, key):
        if self.top_degree is not None:
            if sum(self.gens[i].degree for i in key) > self.top_degree:
                return False
        if self.block_caps:
            per = {}
            for i in key:
                b = self.gens[i].block
                if b is not None:
                    per[b] = per.get(b, 0) + self.gens[i].degree
            for b, total in per.items():
                cap = self.block_caps.get(b)
                if cap is not None and total > cap:
                    return False
        return True

    def monomial_str(self, key):
        if not key:
            return "1"
        return "∧".join(self.gens[i].name for i in key)


# --------------------------------------------------------------------------
# form expressions
# --------------------------------------------------------------------------

class FormExpr:
    """Immutable sum of scalar-coefficient wedge monomials."""

    __slots__ = ("alg", "_terms")

    def __init__(self, alg, terms):
        ring = alg.ring
        clean = {}
        for key, c in terms.items():
            if not alg._monomial_ok(key):
                continue
            c = ring.normal(c)
            if c:
                clean[key] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("FormExpr is immutable")

    # -- structure ---------------------------------------------------------
    def terms(self):
        """Sorted (monomial-key, coefficient) pairs."""
        as_expr = self.alg.ring.as_expr
        return sorted(((k, as_expr(c)) for k, c in self._terms.items()),
                      key=lambda kv: (len(kv[0]), kv[0]))

    def degree(self):
        """Common degree of all monomials, or None if mixed/zero."""
        degs = {sum(self.alg.gens[i].degree for i in k) for k in self._terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, key):
        if isinstance(key, FormExpr):
            (key, c), = key._terms.items()
            if c != {(): 1}:
                raise ValueError("coefficient() expects a bare monomial")
        c = self._terms.get(tuple(key))
        return sp.Integer(0) if c is None else self.alg.ring.as_expr(c)

    # -- linear operations -------------------------------------------------
    def __add__(self, other):
        ring = self.alg.ring
        self.alg.own(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = ring.plus(out[k], c) if k in out else c
        return FormExpr(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormExpr(self.alg, {k: _neg(c) for k, c in self._terms.items()})

    def __mul__(self, c):
        c = sp.sympify(c)
        ring = self.alg.ring
        s = ring.from_expr(c)
        # an opaque side takes sympy's product with c as written, which may
        # cancel before expanding: (x + 1) * 1/(x + 1) is 1
        return FormExpr(self.alg, {
            k: _product(s, v) if isinstance(s, dict) and isinstance(v, dict)
            else c * ring.as_expr(v)
            for k, v in self._terms.items()})

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        as_expr = self.alg.ring.as_expr
        return FormExpr(self.alg, {k: fn(as_expr(c))
                                   for k, c in self._terms.items()})

    def subs(self, mapping):
        """Substitute into every coefficient (stratum restriction, profile
        specialization, parameter pinning)."""
        return self.map_coeffs(lambda c: c.subs(mapping).doit())

    # -- graded multiplication ---------------------------------------------
    def _merge_keys(self, k1, k2):
        """Merge two sorted monomials; return (key, sign) or (None, 0)."""
        degs = self.alg.gens
        out = []
        sign = 1
        i = j = 0
        # degree sum of the tail of k1 from position i onward
        tail = [0] * (len(k1) + 1)
        for t in range(len(k1) - 1, -1, -1):
            tail[t] = tail[t + 1] + degs[k1[t]].degree
        while i < len(k1) and j < len(k2):
            if k1[i] <= k2[j]:
                out.append(k1[i])
                i += 1
            else:
                g = k2[j]
                # g jumps over the remaining tail of k1
                if degs[g].degree % 2 and tail[i] % 2:
                    sign = -sign
                out.append(g)
                j += 1
        out.extend(k1[i:])
        out.extend(k2[j:])
        # odd generators may not repeat
        for a, b in itertools.pairwise(out):
            if a == b and degs[a].degree % 2:
                return None, 0
        return tuple(out), sign

    def wedge(self, other):
        alg = self.alg
        alg.own(other)
        acc = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key, s = self._merge_keys(k1, k2)
                if s and alg._monomial_ok(key):
                    alg.ring.addmul(acc, key, c1, c2, s)
        return FormExpr(alg, acc)

    __xor__ = wedge

    def wedge_power(self, n):
        if n < 0:
            raise ValueError("negative wedge power")
        r = self.alg.scalar_form(1)
        for _ in range(n):
            r = r.wedge(self)
        return r

    def _insert(self, acc, key, pos, terms, c, sign):
        """acc += sign * c * (key[:pos] ^ terms ^ key[pos+1:])."""
        left, right = key[:pos], key[pos + 1:]
        for k, v in terms.items():
            k2, s1 = self._merge_keys(left, k)
            if not s1:
                continue
            k3, s2 = self._merge_keys(k2, right)
            if s2 and self.alg._monomial_ok(k3):
                self.alg.ring.addmul(acc, k3, v, c, sign * s1 * s2)

    # -- exterior derivative -----------------------------------------------
    def d(self):
        alg = self.alg
        ring = alg.ring
        acc = {}
        for key, c in self._terms.items():
            # d(coeff) ∧ mono
            for k1, dc in ring.differential(c).items():
                merged, s = self._merge_keys(k1, key)
                if s and alg._monomial_ok(merged):
                    ring.add_into(acc, merged, dc, s)
            # Leibniz over the generators of the monomial
            prefix_deg = 0
            for pos, gi in enumerate(key):
                dgi = alg.d_of_gen(gi)
                if dgi is not None:
                    sign = -1 if prefix_deg % 2 else 1
                    self._insert(acc, key, pos, dgi._terms, c, sign)
                prefix_deg += alg.gens[gi].degree
        return FormExpr(alg, acc)

    # -- contraction --------------------------------------------------------
    def contract(self, pairing):
        """Interior product with a vector described by a pairing table.

        ``pairing`` maps generator names to the value of the generator on the
        vector: a scalar for one-form generators, a FormExpr of degree k-1 for
        a degree-k generator.  Generators not listed pair to zero.
        """
        alg = self.alg
        table = {}
        for name, val in pairing.items():
            g = alg.gen_named(name)
            if isinstance(val, FormExpr):
                table[g.index] = alg.own(val)._terms
            else:
                v = sp.sympify(val)
                if g.degree == 1:
                    table[g.index] = {(): alg.ring.from_expr(v)}
                else:
                    raise TypeError(
                        f"pairing for degree-{g.degree} generator {name} "
                        "must be a FormExpr")
        acc = {}
        for key, c in self._terms.items():
            prefix_deg = 0
            for pos, gi in enumerate(key):
                val = table.get(gi)
                if val is not None:
                    sign = -1 if prefix_deg % 2 else 1
                    self._insert(acc, key, pos, val, c, sign)
                prefix_deg += alg.gens[gi].degree
        return FormExpr(alg, acc)

    # -- parameter expansion -------------------------------------------------
    def expand_in_param(self, p):
        """Group terms by powers of the parameter ``p`` (must enter every
        coefficient polynomially); returns ParamExpansion, lowest power first.
        """
        p = sp.sympify(p)
        buckets: dict[int, dict] = {}
        for key, c in self._terms.items():
            e = self.alg.ring.as_expr(c)
            try:
                split = laurent(e, p)
                if min(split, default=0) < 0:
                    raise ValueError(f"negative power of {p}")
            except ValueError as exc:
                raise ValueError(
                    f"coefficient of {self.alg.monomial_str(key)} is not "
                    f"polynomial in {p}: {e}") from exc
            for k, coeff in split.items():
                bucket = buckets.setdefault(k, {})
                bucket[key] = bucket.get(key, 0) + coeff
        return ParamExpansion(p, {k: FormExpr(self.alg, t) for k, t in sorted(buckets.items())})

    # -- equality -----------------------------------------------------------
    def is_zero(self):
        verdict = True
        for c in self._terms.values():
            z = self.alg.ring.is_zero(c)
            if z is False:
                return False
            if z is UNDECIDED:
                verdict = UNDECIDED
        return verdict

    def equals(self, other):
        """Sound canonical equality: True/False inside the scalar fragment,
        UNDECIDED if any coefficient leaves it."""
        return (self - other).is_zero()

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for key, cs in self.terms():
            mono = self.alg.monomial_str(key)
            if mono == "1":
                parts.append(f"({cs})")
            else:
                parts.append(f"({cs})·{mono}")
        return " + ".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class ParamExpansion:
    """Finite expansion of a form in powers of one parameter."""

    param: sp.Symbol
    by_power: dict = field(default_factory=dict)   # power -> FormExpr

    def powers(self):
        return sorted(self.by_power)

    def coefficient(self, k):
        for p, f in self.by_power.items():
            if p == k:
                return f
        raise KeyError(k)


def wedge_all(*forms):
    it = iter(forms)
    out = next(it)
    for f in it:
        out = out.wedge(f)
    return out
