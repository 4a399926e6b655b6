"""Command-line surface and the ``.cfl`` declaration language.

A document declares a chart, scalar symbols, parameters, formal generators,
differential forms, stratum extensions, and check directives; ``parse`` turns
text into a fully resolved :class:`CflDocument` (or raises the first
diagnostic, with line and column), ``run`` executes the directives and
returns a :class:`Report`, and ``main`` wires both to flags and exit codes.

Grammar (EBNF; ``#`` starts a comment, whitespace is free):

    document   = { statement } ;
    statement  = chart | symbol | param | gen | form | extend
               | check | gallery ;
    chart      = "chart" coordspec { coordspec } ;
    coordspec  = NAME [ "[" signed "," signed "]" ] [ "*" ] ;
    symbol     = "symbol" NAME "(" NAME ")" ;
    param      = "param" NAME ;
    gen        = "gen" NAME "deg" NUMBER [ "d" "=" expr ] ;
    form       = "form" NAME "=" expr ;
    extend     = "extend" NAME "on" "stratum" NUMBER "=" expr ;
    check      = "check" ( "approx" | "confoliation" | "shs" ) NAME NAME ;
    gallery    = "gallery" dashname { NAME "=" value } ;
    dashname   = NAME { "-" NAME } ;
    expr       = term { ("+" | "-") term } ;
    term       = unary { ("*" | "/") unary } ;
    unary      = "-" unary | power ;
    power      = atom [ "^" unary ] ;
    atom       = NUMBER | NAME | NAME "(" NAME ")" | "(" expr ")" ;
    value      = signed | NAME ;   signed = [ "-" ] NUMBER ;

``*`` after a coordinate marks it periodic; boxes default to [-1, 1].
Number literals are exact rationals (0.25 means 1/4).  ``^`` wedges two
forms, raises a scalar to a scalar power, and takes a wedge power when a
form meets a literal nonnegative integer.
"""

import argparse
import concurrent.futures
import hashlib
import inspect
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from . import __version__
from . import gallery as _gallery
from .chartfield import (Chart, _canon_table, sample_prefix, table_to_field,
                         table_top)
from .conetame import FAIL, PASS, UNDETERMINED
from .confolcheck import (ConfoliationData, HyperplaneField,
                          StableHamiltonianPair, Verdict, confoliation_check,
                          order_at, shs_check)
from .approx import (ConformalLimitReport, DeformationFamily, PartitionedForm,
                     StratumData, StratumLimit, approx_verdict, base_table)
from .grassmann import FormAlgebra


class CflError(Exception):
    """Diagnostic with a source position; the only parse-time exception."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()=,\[\]])")


@dataclass
class _Tok:
    kind: str          # "name" | "number" | "op" | "eof"
    text: str
    line: int
    col: int


def _lex(text):
    toks, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise CflError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        frag = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(frag)
        else:
            toks.append(_Tok(kind, frag, line, col))
            col += len(frag)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Num:
    text: str
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class Ref:
    name: str
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class Call:
    fn: str
    arg: str
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class Neg:
    operand: object
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class Bin:
    op: str
    lhs: object
    rhs: object
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class CoordSpec:
    name: str
    box: tuple = None          # (lo_text, hi_text) or None
    periodic: bool = False
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class ChartStmt:
    coords: tuple
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class SymbolStmt:
    name: str
    arg: str
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class ParamStmt:
    name: str
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class GenStmt:
    name: str
    degree: int
    dexpr: object = None
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class FormStmt:
    name: str
    expr: object = None
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class ExtendStmt:
    name: str
    order: int = 0
    expr: object = None
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class CheckStmt:
    kind: str
    a: str = ""
    b: str = ""
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class GalleryStmt:
    name: str
    params: tuple = ()         # ((key, value_text), ...)
    span: tuple = dc_field(default=(0, 0), compare=False)


@dataclass
class CflDocument:
    """Parsed and fully resolved document.

    ``statements`` is the printable AST; the remaining fields hold the
    elaborated context the runner consumes (charts, form tables, directives).
    They are derived data and excluded from AST equality.
    """

    statements: tuple
    chart: Chart = dc_field(default=None, compare=False)
    algebra: FormAlgebra = dc_field(default=None, compare=False)
    params: tuple = dc_field(default=(), compare=False)
    forms: dict = dc_field(default_factory=dict, compare=False)
    extends: tuple = dc_field(default=(), compare=False)
    checks: tuple = dc_field(default=(), compare=False)


_KEYWORDS = ("chart", "symbol", "param", "gen", "form", "extend", "check",
             "gallery")
_MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# parser + elaborator
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.pos = 0
        self.depth = 0
        # elaboration context
        self.chart = None
        self.alg = None
        self.coords = {}       # name -> sympy symbol
        self.params = []
        self.symbols = {}      # name -> dependence coordinate name
        self.forms = {}        # name -> FormExpr
        self.names = set(_KEYWORDS)
        self.extends = []
        self.checks = []

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind, text=None, what=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = what or (text if text is not None else kind)
            got = t.text if t.kind != "eof" else "end of input"
            raise CflError(f"expected {want}, got {got!r}", t.line, t.col)
        return self.next()

    def fail(self, message, tok=None):
        t = tok or self.peek()
        raise CflError(message, t.line, t.col)

    def declare(self, name, tok, kind="name"):
        if name in self.names:
            self.fail(f"duplicate or reserved {kind} '{name}'", tok)
        self.names.add(name)

    # -- document ----------------------------------------------------------
    def document(self):
        stmts = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name" or t.text not in _KEYWORDS:
                self.fail(f"expected a statement keyword "
                          f"({', '.join(_KEYWORDS)}), got {t.text!r}")
            stmts.append(getattr(self, "stmt_" + t.text)())
        return CflDocument(tuple(stmts), chart=self.chart, algebra=self.alg,
                          params=tuple(self.params), forms=self.forms,
                          extends=tuple(self.extends),
                          checks=tuple(self.checks))

    # -- statements --------------------------------------------------------
    def stmt_chart(self):
        kw = self.expect("name", "chart")
        if self.chart is not None:
            self.fail("only one chart per document", kw)
        specs = []
        while self.peek().kind == "name" and self.peek().text not in _KEYWORDS:
            nt = self.next()
            self.declare(nt.text, nt, "coordinate")
            box = None
            periodic = False
            if self.peek().text == "[":
                self.next()
                lo = self.signed_number()
                self.expect("op", ",")
                hi = self.signed_number()
                self.expect("op", "]")
                box = (lo, hi)
            if self.peek().text == "*":
                self.next()
                periodic = True
            specs.append(CoordSpec(nt.text, box, periodic,
                                   span=(nt.line, nt.col)))
        if not specs:
            self.fail("chart needs at least one coordinate")
        boxes = []
        for cs in specs:
            if cs.box is None:
                boxes.append((-1.0, 1.0))
            else:
                lo, hi = float(cs.box[0]), float(cs.box[1])
                if not lo < hi:
                    self.fail(f"empty box for coordinate '{cs.name}'", kw)
                boxes.append((lo, hi))
        self.chart = Chart(tuple(s.name for s in specs), tuple(boxes),
                          periodic=tuple(s.name for s in specs if s.periodic))
        self.alg = FormAlgebra(top_degree=self.chart.dim)
        for cs in specs:
            try:
                sym, _ = self.alg.coordinate(cs.name)
            except ValueError as e:
                self.fail(str(e), kw)
            self.coords[cs.name] = sym
            self.names.add("d" + cs.name)
        return ChartStmt(tuple(specs), span=(kw.line, kw.col))

    def signed_number(self):
        sign = ""
        if self.peek().text == "-":
            self.next()
            sign = "-"
        t = self.expect("number", what="a number")
        return sign + t.text

    def stmt_symbol(self):
        kw = self.expect("name", "symbol")
        nt = self.expect("name", what="a symbol name")
        self.declare(nt.text, nt, "symbol")
        self.expect("op", "(")
        at = self.expect("name", what="a coordinate name")
        if at.text not in self.coords:
            self.fail(f"'{at.text}' is not a chart coordinate", at)
        self.expect("op", ")")
        self.symbols[nt.text] = at.text
        return SymbolStmt(nt.text, at.text, span=(kw.line, kw.col))

    def stmt_param(self):
        kw = self.expect("name", "param")
        nt = self.expect("name", what="a parameter name")
        self.declare(nt.text, nt, "parameter")
        self.params.append(nt.text)
        return ParamStmt(nt.text, span=(kw.line, kw.col))

    def stmt_gen(self):
        kw = self.expect("name", "gen")
        nt = self.expect("name", what="a generator name")
        self.expect("name", "deg")
        dt = self.expect("number", what="a degree")
        try:
            degree = int(dt.text)
        except ValueError:
            degree = -1
        if degree < 1:
            self.fail("generator degree must be a positive integer", dt)
        dexpr = None
        dval = object()        # sentinel: auto-create the closed d-generator
        if self.peek().text == "d" and self.peek(1).text == "=":
            self.next()
            self.next()
            dexpr = self.expr()
            kind, v = self.eval_expr(dexpr)
            if kind == "scalar" and v == 0:
                dval = None
            elif kind != "form":
                self.fail("differential must be a form (or 0)", nt)
            else:
                dval = v
        if self.alg is None:
            self.alg = FormAlgebra()
        self.declare(nt.text, nt, "generator")
        try:
            if dexpr is None:
                self.alg.generator(nt.text, degree)
            else:
                self.alg.generator(nt.text, degree, d=dval)
        except (ValueError, TypeError) as e:
            self.fail(str(e), nt)
        self.names.add("d" + nt.text)
        return GenStmt(nt.text, degree, dexpr, span=(kw.line, kw.col))

    def stmt_form(self):
        kw = self.expect("name", "form")
        nt = self.expect("name", what="a form name")
        self.expect("op", "=")
        e = self.expr()
        kind, v = self.eval_expr(e)
        if kind != "form":
            if v == 0:
                v = self._algebra().zero()
            else:
                self.fail("right-hand side must be a differential form "
                          "(scalars are not forms)", nt)
        self.declare(nt.text, nt, "form")
        self.forms[nt.text] = v
        return FormStmt(nt.text, e, span=(kw.line, kw.col))

    def stmt_extend(self):
        kw = self.expect("name", "extend")
        nt = self.expect("name", what="an extension name")
        self.expect("name", "on")
        self.expect("name", "stratum")
        ot = self.expect("number", what="a stratum order")
        try:
            order = int(ot.text)
        except ValueError:
            order = -1
        if order < 0:
            self.fail("stratum order must be a nonnegative integer", ot)
        self.expect("op", "=")
        e = self.expr()
        kind, v = self.eval_expr(e)
        if kind != "form" or (v.degree() not in (2, None)):
            self.fail("stratum extension must be a two-form", nt)
        table = self.lower_numeric(v, 2, nt, allow_param=False)
        self.extends.append((nt.text, order, table))
        return ExtendStmt(nt.text, order, e, span=(kw.line, kw.col))

    def stmt_check(self):
        kw = self.expect("name", "check")
        kt = self.expect("name", what="a check kind")
        if kt.text not in ("approx", "confoliation", "shs"):
            self.fail("check kind must be approx, confoliation, or shs", kt)
        at = self.expect("name", what="a form name")
        bt = self.expect("name", what="a form name")
        stmt = CheckStmt(kt.text, at.text, bt.text, span=(kw.line, kw.col))
        self.checks.append(self.elaborate_check(stmt, at, bt))
        return stmt

    def stmt_gallery(self):
        kw = self.expect("name", "gallery")
        parts = [self.expect("name", what="a gallery entry name").text]
        while self.peek().text == "-":
            self.next()
            t = self.peek()
            if t.kind not in ("name", "number"):
                self.fail("dangling '-' in gallery entry name", t)
            parts.append(self.next().text)
        name = "-".join(parts)
        if name not in _gallery.names():
            self.fail(f"unknown gallery entry '{name}'", kw)
        allowed = inspect.signature(_gallery._BUILDERS[name]).parameters
        params = []
        while (self.peek().kind == "name"
               and self.peek().text not in _KEYWORDS
               and self.peek(1).text == "="):
            key = self.next().text
            self.next()
            t = self.peek()
            if t.kind == "name":
                val = self.next().text
            else:
                val = self.signed_number()
            params.append((key, val))
            if key not in allowed:
                self.fail(f"entry '{name}' has no parameter '{key}'", kw)
            # the builder's default fixes the type: int or float
            if isinstance(allowed[key].default, int):
                if not re.fullmatch(r"-?\d+", val):
                    self.fail(f"parameter '{key}' takes an integer, "
                              f"got {val!r}", t)
            elif t.kind == "name":
                self.fail(f"parameter '{key}' takes a number, got {val!r}",
                          t)
            if key == "seed" and float(val) < 0:
                self.fail(f"seed must be an integer >= 0, got {val}", t)
        stmt = GalleryStmt(name, tuple(params), span=(kw.line, kw.col))
        self.checks.append(("gallery", stmt))
        return stmt

    # -- expressions -------------------------------------------------------
    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            node = Bin(op.text, node, self.term(), span=(op.line, op.col))
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            node = Bin(op.text, node, self.unary(), span=(op.line, op.col))
        return node

    def unary(self):
        if self.peek().text == "-":
            op = self.next()
            return Neg(self.unary(), span=(op.line, op.col))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().text == "^":
            op = self.next()
            node = Bin("^", node, self.unary(), span=(op.line, op.col))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Num(t.text, span=(t.line, t.col))
        if t.kind == "name":
            self.next()
            if self.peek().text == "(":
                self.next()
                at = self.expect("name", what="a coordinate name")
                self.expect("op", ")")
                return Call(t.text, at.text, span=(t.line, t.col))
            return Ref(t.text, span=(t.line, t.col))
        if t.text == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                self.fail("expression nesting too deep")
            self.next()
            node = self.expr()
            self.expect("op", ")")
            self.depth -= 1
            return node
        got = t.text if t.kind != "eof" else "end of input"
        self.fail(f"expected an expression, got {got!r}")

    # -- evaluation --------------------------------------------------------
    def _algebra(self):
        if self.alg is None:
            self.alg = FormAlgebra()
        return self.alg

    def eval_expr(self, node):
        """-> ("scalar", sympy) or ("form", FormExpr)."""
        if isinstance(node, Num):
            fr = Fraction(node.text)
            return "scalar", sp.Rational(fr.numerator, fr.denominator)
        if isinstance(node, Ref):
            nm = node.name
            if nm in self.params:
                return "scalar", sp.Symbol(nm)
            if nm in self.coords:
                return "scalar", self.coords[nm]
            if nm in self.forms:
                return "form", self.forms[nm]
            if self.alg is not None:
                try:
                    return "form", self.alg.form(nm)
                except (KeyError, ValueError):
                    pass
            self.fail(f"undeclared identifier '{nm}'",
                      _Tok("name", nm, *node.span))
        if isinstance(node, Call):
            if node.fn not in self.symbols:
                self.fail(f"undeclared symbol '{node.fn}'",
                          _Tok("name", node.fn, *node.span))
            if node.arg != self.symbols[node.fn]:
                self.fail(f"symbol '{node.fn}' depends on "
                          f"'{self.symbols[node.fn]}', not '{node.arg}'",
                          _Tok("name", node.arg, *node.span))
            return "scalar", sp.Function(node.fn)(self.coords[node.arg])
        if isinstance(node, Neg):
            kind, v = self.eval_expr(node.operand)
            return kind, -v
        return self.eval_bin(node)

    def eval_bin(self, node):
        tok = _Tok("op", node.op, *node.span)
        lk, lv = self.eval_expr(node.lhs)
        rk, rv = self.eval_expr(node.rhs)
        op = node.op
        if op in ("+", "-"):
            if lk == rk == "scalar":
                return "scalar", lv + rv if op == "+" else lv - rv
            if lk == rk == "form":
                dl, dr = lv.degree(), rv.degree()
                if dl is not None and dr is not None and dl != dr:
                    self.fail(f"cannot add a {dl}-form and a {dr}-form", tok)
                return "form", lv + rv if op == "+" else lv - rv
            self.fail("cannot mix scalars and forms in a sum", tok)
        if op == "*":
            if lk == rk == "scalar":
                return "scalar", lv * rv
            if lk == rk == "form":
                self.fail("use ^ to wedge forms, * is scalar "
                          "multiplication", tok)
            form, scal = (lv, rv) if lk == "form" else (rv, lv)
            return "form", form * scal
        if op == "/":
            if rk != "scalar":
                self.fail("cannot divide by a form", tok)
            if rv == 0:
                self.fail("division by zero", tok)
            if lk == "scalar":
                return "scalar", lv / rv
            return "form", lv * (sp.Integer(1) / rv)
        # op == "^"
        if lk == rk == "scalar":
            return "scalar", lv ** rv
        if lk == rk == "form":
            return "form", lv.wedge(rv)
        if lk == "form":
            if getattr(rv, "is_Integer", False) and rv >= 0:
                return "form", lv.wedge_power(int(rv))
            self.fail("a form can only be raised to a literal nonnegative "
                      "integer wedge power", tok)
        self.fail("cannot raise a scalar to a form power", tok)

    # -- numeric lowering --------------------------------------------------
    def lower_numeric(self, fe, degree, tok, allow_param=True):
        """FormExpr built from coordinate differentials -> index-keyed table.

        Rejects formal generators and abstract scalar symbols so every check
        directive evaluates numerically.
        """
        if self.chart is None:
            self.fail("no chart declared", tok)
        allowed = set(self.coords.values())
        if allow_param:
            allowed |= {sp.Symbol(p) for p in self.params}
        table = {}
        for key, coeff in fe.terms():
            if len(key) != degree:
                self.fail(f"expected a {degree}-form", tok)
            idx = []
            for gi in key:
                gname = self.alg.gens[gi].name
                cname = gname[1:] if gname.startswith("d") else None
                if cname not in self.coords:
                    self.fail(f"'{gname}' is a formal generator; checks "
                              "need coordinate differentials only", tok)
                idx.append(self.chart.index(cname))
            bad = set(coeff.free_symbols) - allowed
            if bad or coeff.atoms(AppliedUndef):
                what = ", ".join(sorted(str(b) for b in bad)
                                 or sorted(str(f) for f in
                                           coeff.atoms(AppliedUndef)))
                self.fail(f"coefficient depends on abstract quantities "
                          f"({what}); checks need closed-form coordinates",
                          tok)
            table[tuple(idx)] = coeff
        return _canon_table(self.chart, table)

    def elaborate_check(self, stmt, at, bt):
        for nm, t in ((stmt.a, at), (stmt.b, bt)):
            if nm not in self.forms:
                self.fail(f"undeclared form '{nm}'", t)
        A, B = self.forms[stmt.a], self.forms[stmt.b]
        if A.degree() not in (1, None):
            self.fail(f"'{stmt.a}' must be a 1-form", at)
        if B.degree() not in (2, None):
            self.fail(f"'{stmt.b}' must be a 2-form", bt)
        tab_b = self.lower_numeric(B, 2, bt, allow_param=False)
        tab_a = self.lower_numeric(A, 1, at,
                                   allow_param=stmt.kind == "approx")
        dim = self.chart.dim
        if dim < 3 or dim % 2 == 0:
            raise CflError(f"check {stmt.kind} needs an odd-dimensional "
                           f"chart of dimension >= 3, not {dim}", *stmt.span)
        if stmt.kind == "approx":
            used = set().union(*(e.free_symbols for e in tab_a.values())) \
                if tab_a else set()
            pars = [p for p in self.params if sp.Symbol(p) in used]
            if len(pars) != 1:
                self.fail("an approx family needs exactly one declared "
                          "parameter in its coefficients", at)
            try:
                base_table(self.chart, tab_a, sp.Symbol(pars[0]))
            except ValueError as exc:
                self.fail(str(exc), at)
            return ("approx", stmt, tab_a, tab_b, pars[0])
        return (stmt.kind, stmt, tab_a, tab_b)


def parse(text) -> CflDocument:
    """Parse and resolve a ``.cfl`` document; raise CflError on the first
    lexical, syntactic, or semantic problem."""
    doc = _Parser(text).document()
    doc._digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return doc


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1.0, "-": 1.0, "*": 2.0, "/": 2.0, "^": 3.0}


def _node_prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 2.5
    return 4.0


def _print_expr(node, require=0.0):
    """Parenthesize whenever the node binds looser than its context allows;
    extra parentheses cost nothing for round-trip identity, missing ones
    change the tree."""
    if isinstance(node, Num):
        return node.text
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({node.arg})"
    if isinstance(node, Neg):
        out = "-" + _print_expr(node.operand, require=3.0)
    else:
        p = _PREC[node.op]
        if node.op == "^":
            lhs = _print_expr(node.lhs, require=4.0)
            rhs = _print_expr(node.rhs, require=2.5)
        else:
            lhs = _print_expr(node.lhs, require=p)
            rhs = _print_expr(node.rhs, require=2.5 if p == 2.0 else p + 0.5)
        out = f"{lhs} {node.op} {rhs}"
    if _node_prec(node) < require:
        return f"({out})"
    return out


def _print_stmt(s):
    if isinstance(s, ChartStmt):
        parts = []
        for c in s.coords:
            t = c.name
            if c.box is not None:
                t += f"[{c.box[0]}, {c.box[1]}]"
            if c.periodic:
                t += "*"
            parts.append(t)
        return "chart " + " ".join(parts)
    if isinstance(s, SymbolStmt):
        return f"symbol {s.name}({s.arg})"
    if isinstance(s, ParamStmt):
        return f"param {s.name}"
    if isinstance(s, GenStmt):
        out = f"gen {s.name} deg {s.degree}"
        if s.dexpr is not None:
            out += " d = " + _print_expr(s.dexpr)
        return out
    if isinstance(s, FormStmt):
        return f"form {s.name} = " + _print_expr(s.expr)
    if isinstance(s, ExtendStmt):
        return (f"extend {s.name} on stratum {s.order} = "
                + _print_expr(s.expr))
    if isinstance(s, CheckStmt):
        return f"check {s.kind} {s.a} {s.b}"
    if isinstance(s, GalleryStmt):
        out = "gallery " + s.name
        for k, v in s.params:
            out += f" {k}={v}"
        return out
    raise TypeError(f"unknown statement {s!r}")


def print_document(doc: CflDocument) -> str:
    """Canonical text form; parse(print_document(parse(t))) == parse(t)."""
    return "\n".join(_print_stmt(s) for s in doc.statements) + "\n"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def default_flags(**over):
    base = dict(tol_rank=1e-7, tol_pos=1e-9, fd_step=1e-4, samples=24,
                seed=0, format="text", out=None, selftest=False, file=None)
    base.update(over)
    return argparse.Namespace(**base)


def _chart_samples(chart, flags):
    density = max(2, math.ceil(flags.samples ** (1.0 / chart.dim)))
    return sample_prefix(chart, density, flags.seed, flags.samples, margin=0.05)


def _nelder_mead(F, X0, xatol, fatol, maxiter):
    """Minimize by the downhill simplex from each row of X0 at once; F maps
    a ``(K, n)`` stack of points to the ``(K,)`` float array of their
    values.  Returns (the best point of each start as rows, their values).

    Every row is a step-for-step port of
    scipy.optimize.minimize(method="Nelder-Mead") with its defaults
    otherwise (no bounds, the non-adaptive coefficients reflection 1,
    expansion 2, contraction and shrink 1/2, no cap on evaluations), so
    from the same start it returns the same point.  The simplices advance
    in lockstep, with one call of F per phase of an iteration: the
    reflections, then the expansions and contractions, then the shrinks.
    """
    X0 = np.asarray(X0, dtype=float)
    K, n = X0.shape
    sim = np.repeat(X0[:, None, :], n + 1, axis=1)
    for k in range(n):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, 1.05 * y, 0.00025)
    fsim = F(sim.reshape(-1, n)).reshape(K, n + 1)

    def sort(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        rows = np.arange(len(ind))[:, None]
        return sim[rows, ind], fsim[rows, ind]

    # sorted twice as scipy does: argsort's default kind is not stable, so
    # the second pass may reorder tied values
    sim, fsim = sort(*sort(sim, fsim))
    best, fbest = sim[:, 0].copy(), fsim[:, 0].copy()
    live = np.arange(K)          # the start of each row of sim still going
    for _ in range(1, maxiter):
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if done.any():
            best[live[done]], fbest[live[done]] = sim[done, 0], fsim[done, 0]
            live, sim, fsim = live[~done], sim[~done], fsim[~done]
            if not len(live):
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = 2 * xbar - worst                                  # reflection
        fxr = F(xr)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        inside = ~(expand | accept | outside)
        # a * xbar + b * worst is each row's second point: the expansion
        # 3 xbar - 2 worst, the outside contraction 1.5 xbar - 0.5 worst or
        # the inside one 0.5 xbar + 0.5 worst, with the same roundings
        a = np.where(expand, 3.0, np.where(outside, 1.5, 0.5))
        b = np.where(expand, -2.0, np.where(outside, -0.5, 0.5))
        x2 = a[:, None] * xbar + b[:, None] * worst
        f2 = np.full(len(live), np.nan)
        if not accept.all():
            f2[~accept] = F(x2[~accept])
        take2 = ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                 | (inside & (f2 < fsim[:, -1])))
        shrink = (outside | inside) & ~take2
        step = ~shrink
        sim[step, -1] = np.where(take2[:, None], x2, xr)[step]
        fsim[step, -1] = np.where(take2, f2, fxr)[step]
        if shrink.any():
            sh = sim[shrink]
            sh[:, 1:] = sh[:, :1] + 0.5 * (sh[:, 1:] - sh[:, :1])
            sim[shrink] = sh
            fsim[shrink, 1:] = F(sh[:, 1:].reshape(-1, n)).reshape(-1, n)
        sim, fsim = sort(sim, fsim)
    best[live], fbest[live] = sim[:, 0], fsim[:, 0]
    return best, fbest


def _locate_stratum(chart, base_h, order, flags, limit=6):
    """Points where the base degenerates to the given order, found by
    driving |beta ^ dbeta^(order+1)|^2 to zero from seeded starts.

    The starts run in order, ``limit`` minus the points found so far at a
    time, so no start runs that a one-by-one search would skip.  Returns
    (the points as the rows of an array, the smallest value of that square
    reached)."""
    top = table_top(chart, base_h.symbolic_table, order)
    fld = table_to_field(chart, top)
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    pad = 0.02 * (hi - lo)
    inner_lo, inner_hi = lo + pad, hi - pad

    def F(X):
        # np.clip's result, without its per-call dispatch
        X = np.minimum(np.maximum(X, inner_lo), inner_hi)
        return sum((v * v for v in fld.components(X).values()),
                   np.zeros(len(X)))

    starts = sample_prefix(chart, 3, flags.seed + 17 * order, 20, margin=0.1)
    found, reached, done = [], math.inf, 0
    while done < len(starts) and len(found) < limit:
        batch = starts[done:done + limit - len(found)]
        done += len(batch)
        xs, fxs = _nelder_mead(F, batch, xatol=1e-12, fatol=1e-24,
                               maxiter=4000)
        for x, fx in zip(xs, fxs):
            reached = min(reached, float(fx))
            q = np.clip(x, inner_lo, inner_hi)
            if order_at(base_h, q, flags.tol_rank).k != order:
                continue
            if any(np.linalg.norm(q - f) < 1e-3 for f in found):
                continue
            found.append(q)
    return np.array(found).reshape(-1, chart.dim), reached


def _run_approx(doc, entry, flags):
    _, stmt, tab_a, tab_b, par = entry
    fam = DeformationFamily.from_table(
        doc.chart, tab_a, tab_b, param=par,
        tau_rank=flags.tol_rank, tau_pos=flags.tol_pos)
    strata, missing, reached = {}, [], {}
    for _, order, table in doc.extends:
        pts, reached[order] = _locate_stratum(doc.chart, fam.base.h, order,
                                              flags)
        if not len(pts):
            missing.append(order)
            continue
        strata[order] = StratumData(order=order, samples=pts,
                                    mu_table=table)
    if missing:
        # the band: how close the search came to beta ^ dbeta^(k+1) = 0
        # against the rank tolerance that decides the order
        return Verdict(UNDETERMINED,
                       {"tau_rank": flags.tol_rank,
                        "min_top_norm_sq": {k: reached[k] for k in missing}},
                       message=f"could not locate points on strata "
                               f"{missing}"), None
    pf = PartitionedForm(strata)
    rep = approx_verdict(fam, pf, samples=_chart_samples(doc.chart, flags),
                         seed=flags.seed, tau=flags.tol_pos)
    return rep.verdict, rep


def _run_confoliation(doc, entry, flags):
    _, stmt, tab_a, tab_b = entry
    h = HyperplaneField.from_symbolic(doc.chart, tab_a)
    c = ConfoliationData(h, table_to_field(doc.chart, tab_b, 2),
                         flags.tol_rank, flags.tol_pos)
    return confoliation_check(c, _chart_samples(doc.chart, flags)), None


def _run_shs(doc, entry, flags):
    _, stmt, tab_a, tab_b = entry
    lam = table_to_field(doc.chart, tab_a, 1)
    om = table_to_field(doc.chart, tab_b, 2)
    pair = StableHamiltonianPair(lam, om, doc.chart)
    return shs_check(pair, _chart_samples(doc.chart, flags),
                     h=flags.fd_step), None


def _run_gallery(doc, entry, flags):
    stmt = entry[1]
    # the parser admits only numbers here
    params = {k: int(v) if re.fullmatch(r"-?\d+", v) else float(v)
              for k, v in stmt.params}
    try:
        ge = _gallery.build(stmt.name, **params)
    except ValueError as exc:
        raise CflError(str(exc), *stmt.span) from None
    except OverflowError:
        raise CflError(f"gallery {stmt.name}: a parameter overflows the "
                       "construction", *stmt.span) from None
    rows = ge.run_verdicts()
    got = {k: v.status for k, v in rows.items()}
    bad = {k: (ge.expected[k], got[k]) for k in ge.expected
           if got[k] != ge.expected[k]}
    status = PASS if not bad else FAIL
    message = ("expected table reproduced" if not bad else
               "mismatched rows: " + ", ".join(sorted(bad)))
    v = Verdict(status, {}, None, message,
                sub={k: rows[k] for k in ge.expected})
    return v, {"expected": dict(ge.expected), "got": got}


_RUNNERS = {"approx": _run_approx, "confoliation": _run_confoliation,
            "shs": _run_shs, "gallery": _run_gallery}


def _plain(obj):
    """Recursively convert runner output into JSON-stable primitives."""
    if isinstance(obj, Verdict):
        return {"status": obj.status, "margins": _plain(obj.margins),
                "witness": _plain(obj.witness), "message": obj.message,
                "sub": {str(k): _plain(v) for k, v in obj.sub.items()}}
    if isinstance(obj, ConformalLimitReport):
        return {"status": obj.status, "verdict": _plain(obj.verdict),
                "strata": {str(k): _plain(v) for k, v in obj.strata.items()},
                "compat": {str(k): _plain(v) for k, v in obj.compat.items()}}
    if isinstance(obj, StratumLimit):
        return {"label": str(obj.label), "order": obj.order,
                "exponent": obj.exponent, "factor_coeff": _plain(
                    obj.factor_coeff),
                "factor_values": _plain(obj.factor_values),
                "residual": _plain(obj.residual), "status": obj.status,
                "message": obj.message}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


@dataclass
class Report:
    version: str
    digest: str
    seed: int
    tolerances: dict
    entries: list

    @property
    def exit_code(self):
        statuses = [e["status"] for e in self.entries]
        if FAIL in statuses:
            return 1
        if UNDETERMINED in statuses:
            return 2
        return 0

    def to_json(self):
        payload = {"schema": 1, "version": self.version,
                   "digest": self.digest, "seed": self.seed,
                   "tolerances": self.tolerances, "wall_time": None,
                   "checks": self.entries}
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"confolkit {self.version}",
                 f"digest sha256:{self.digest}",
                 f"seed {self.seed}  tolerances rank={self.tolerances['rank']:g}"
                 f" pos={self.tolerances['pos']:g}"
                 f" fd={self.tolerances['fd_step']:g}"]
        for e in self.entries:
            lines.append(f"[{e['index']}] {e['directive']}: {e['status']}")
            det = e.get("detail") or {}
            for row in det.get("strata_lines", ()):
                lines.append("    " + row)
            if e.get("message"):
                lines.append("    " + e["message"])
            if det.get("witness_line"):
                lines.append("    " + det["witness_line"])
            for row in det.get("rows_lines", ()):
                lines.append("    " + row)
        lines.append(f"exit {self.exit_code}")
        return "\n".join(lines) + "\n"


def _strata_lines(rep):
    out = []
    for lab in sorted(rep.strata, key=str):
        lim = rep.strata[lab]
        out.append(f"stratum {lab}: exponent {lim.exponent}, "
                   f"{_gallery._factor_message(lim.exponent, lim.factor_coeff)}"
                   f" [{lim.status}]")
    return out


def _witness_line(verdict):
    for label, sub in verdict.sub.items():
        if sub.status == FAIL:
            w = sub.witness
            if w is None and sub.sub:
                w = next((v.witness for v in sub.sub.values()
                          if v.status == FAIL and v.witness is not None),
                         None)
            if w is not None:
                return f"witness ({label}): {_plain(w)}"
    if verdict.status == FAIL and verdict.witness is not None:
        return f"witness: {_plain(verdict.witness)}"
    return None


def run(doc: CflDocument, flags=None) -> Report:
    """Execute every check directive; deterministic for fixed seed/flags."""
    flags = flags or default_flags()
    digest = getattr(doc, "_digest", "")
    jobs = list(enumerate(doc.checks, start=1))

    def one(job):
        idx, entry = job
        verdict, extra = _RUNNERS[entry[0]](doc, entry, flags)
        return idx, entry, verdict, extra

    results = []
    if len(jobs) > 1:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(4, len(jobs))) as ex:
            results = list(ex.map(one, jobs))
    else:
        results = [one(j) for j in jobs]

    entries = []
    for idx, entry, verdict, extra in results:
        stmt = entry[1]
        detail = {"verdict": _plain(verdict)}
        if entry[0] == "approx" and isinstance(extra, ConformalLimitReport):
            detail["report"] = _plain(extra)
            detail["strata_lines"] = _strata_lines(extra)
            wl = _witness_line(verdict)
            if wl:
                detail["witness_line"] = wl
        if entry[0] == "gallery" and extra:
            detail["expected"] = extra["expected"]
            detail["got"] = extra["got"]
            detail["rows_lines"] = [
                f"{k}: {v}" for k, v in extra["got"].items()]
        entries.append({"index": idx, "directive": _print_stmt(stmt),
                        "kind": entry[0], "status": verdict.status,
                        "message": verdict.message, "detail": detail})
    return Report(__version__, digest, flags.seed,
                  {"rank": flags.tol_rank, "pos": flags.tol_pos,
                   "fd_step": flags.fd_step}, entries)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(convert):
    """Flag type: ``convert`` the text, then require a finite value > 0."""
    def parse(text):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a finite number > 0, got {text}")
        return value
    parse.__name__ = convert.__name__     # argparse: "invalid int value"
    return parse


def _seed(text):
    """Flag type: an integer >= 0, which is what numpy's seeding takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text}")
    return value


_seed.__name__ = "int"          # argparse: "invalid int value"


def _build_argparser():
    p = _ArgParser(prog="confolkit", add_help=True,
                   description="confoliation verification toolkit")
    p.add_argument("file", nargs="?", help=".cfl document to run")
    p.add_argument("--tol-rank", type=_positive(float), default=1e-7,
                   dest="tol_rank")
    p.add_argument("--tol-pos", type=_positive(float), default=1e-9,
                   dest="tol_pos")
    p.add_argument("--fd-step", type=_positive(float), default=1e-4,
                   dest="fd_step")
    p.add_argument("--samples", type=_positive(int), default=24)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--selftest", action="store_true")
    return p


def _selftest(flags):
    bad = []
    for name in _gallery.names():
        entry = _gallery.build(name)
        ok, got, mism = entry.verify()
        print(f"gallery {name}: "
              + ("reproduced" if ok else f"MISMATCH {mism}"))
        if not ok:
            bad.append(name)
    return 0 if not bad else 1


def main(argv=None):
    try:
        flags = _build_argparser().parse_args(argv)
    except _UsageError as e:
        print(f"confolkit: usage error: {e}", file=sys.stderr)
        return 3
    if flags.seed is None:
        env = os.environ.get("CONFOLKIT_SEED", "0")
        try:
            flags.seed = _seed(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"confolkit: usage error: CONFOLKIT_SEED={env!r} is not "
                  "an integer >= 0", file=sys.stderr)
            return 3
    if flags.selftest:
        return _selftest(flags)
    if not flags.file:
        print("confolkit: usage error: no input file (or --selftest)",
              file=sys.stderr)
        return 3
    try:
        with open(flags.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"confolkit: usage error: {e}", file=sys.stderr)
        return 3
    try:
        report = run(parse(text), flags)
    except CflError as e:
        print(f"confolkit: {flags.file}:{e}", file=sys.stderr)
        return 3
    payload = report.to_json() if flags.format == "json" else report.to_text()
    if flags.out:
        with open(flags.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
