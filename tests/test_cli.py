"""Tests for the .cfl language: lexer/parser diagnostics, print round-trip,
the runner's exit-code contract, and report determinism."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from confolkit import cli, gallery
from confolkit.approx import DeformationFamily
from confolkit.chartfield import sample_prefix, table_to_field, table_top
from confolkit.confolcheck import HyperplaneField, order_at
from confolkit.cli import CflError, default_flags, main, parse, print_document, run
from confolkit.conetame import FAIL, PASS, UNDETERMINED


CUBIC_DOC = """\
chart x1 y1 x2 y2 z
param s
form alpha = dz + (x1^3 + s * x1) * dy1 + x2 * dy2
form omega = dx1 ^ dy1
extend mu on stratum 1 = dx1 ^ dy1
check approx alpha omega
"""

FLAT_DOC = """\
chart x1 y1 x2 y2 z
param s
form alpha = dz + s * x1 * dy1 + s * x2 * dy2
form omega = dx1 ^ dx2 + dy1 ^ dy2
extend mu on stratum 0 = dx1 ^ dy1 + dx2 ^ dy2
check approx alpha omega
"""

TUBE_DOC = """\
chart z r[0.05, 1] theta[0, 6.283185307]*
form alpha = dz + 2 * r^2 * dtheta
form W = 4 * r * dr ^ dtheta
form lam = dz
check confoliation alpha W
check shs lam W
"""

# ||d om|| = sqrt(6)/10 ~ 0.245 lies between the shs closedness bands
# 1000 h of h = 1e-4 and h = 1e-3
SHS_BAND_DOC = """\
chart x y z
form lam = dz
form om = (1 + z / 10) * dx ^ dy
check shs lam om
"""

# mu + t dalpha = (1 + t (3/5 - x)) dx ^ dy degenerates for some t > 0
# wherever x > 3/5: a FAIL at every sample budget
EDGE_DOC = """\
chart x y z
form alpha = dz + (3/5 * x - x^2 / 2) * dy
form W = dx ^ dy
check confoliation alpha W
"""

# the declared stratum order never occurs for this base, so the runner
# cannot place samples and must report UNDETERMINED
GHOST_STRATUM_DOC = """\
chart z[0.1, 1] r[0.1, 1] t
param s
form alpha = dz + r * dt + s * r * dr
form omega = dr ^ dt
extend mu on stratum 0 = dr ^ dt
check approx alpha omega
"""

# alpha ^ dalpha vanishes only on x = 1/4, and some starts of the stratum
# search stall elsewhere, so its 6 points come from several batches
SPLIT_STRATUM_DOC = """\
chart x[0, 1] y z
form alpha = dz + y * (x - 1/4) * ((x - 3/4)^2 + 1/100) * dx
form W = dx ^ dy
check confoliation alpha W
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_cubic_document_shape():
    doc = parse(CUBIC_DOC)
    assert doc.chart.dim == 5
    assert doc.chart.names == ("x1", "y1", "x2", "y2", "z")
    assert doc.params == ("s",)
    assert sorted(doc.forms) == ["alpha", "omega"]
    assert len(doc.checks) == 1 and doc.checks[0][0] == "approx"
    assert len(doc.extends) == 1 and doc.extends[0][1] == 1
    assert len(doc._digest) == 64 and int(doc._digest, 16) >= 0


def test_wedge_with_self_is_zero_not_an_error():
    doc = parse("chart x y\nform w = dx ^ dx\n")
    assert doc.forms["w"].is_zero()


def _sym(coeff):
    return coeff.expr if hasattr(coeff, "expr") else coeff


def test_number_literals_are_exact_rationals():
    import sympy as sp

    doc = parse("chart x y\nform a = 0.1 * dx + 2e-2 * dy\n")
    coeffs = {k: _sym(c) for k, c in doc.forms["a"].terms()}
    assert set(coeffs.values()) == {sp.Rational(1, 10), sp.Rational(1, 50)}


def test_caret_is_power_on_scalars_and_wedge_on_forms():
    import sympy as sp

    doc = parse("chart x y z w\n"
                "form a = x^3 * dx\n"
                "form b = dx ^ dy\n"
                "form c = (dx ^ dy) ^ 2\n")
    (_, ca), = doc.forms["a"].terms()
    assert _sym(ca) == sp.Symbol("x") ** 3
    assert doc.forms["b"].degree() == 2
    assert doc.forms["c"].is_zero()        # (dx^dy)^2 dies in dim 4


def test_chart_boxes_and_periodic_flags():
    doc = parse("chart z r[0.05, 1] theta[-1, 6.28]*\n")
    assert doc.chart.box[0] == (-1.0, 1.0)      # default
    assert doc.chart.box[1] == (0.05, 1.0)
    assert doc.chart.box[2] == (-1.0, 6.28)
    assert doc.chart.periodic == ("theta",)


def test_symbol_dependence_is_recorded():
    doc = parse("chart r t\nsymbol f(r)\nform a = f(r) * dt\n")
    (_, c), = doc.forms["a"].terms()
    assert str(_sym(c)) == "f(r)"


def test_gen_statements_build_formal_generators():
    doc = parse("gen nu deg 1 d = 0\n"
                "gen gamma deg 1\n"
                "gen eta deg 1 d = gamma ^ nu\n"
                "form b = eta ^ nu\n")
    eta = doc.algebra.form("eta")
    assert eta.d().equals(doc.algebra.form("gamma").wedge(
        doc.algebra.form("nu"))) is True
    assert doc.algebra.form("nu").d().is_zero()
    assert doc.forms["b"].degree() == 2


# ---------------------------------------------------------------------------
# diagnostics: every failure is a CflError with a source position
# ---------------------------------------------------------------------------

def _diag(text):
    with pytest.raises(CflError) as ei:
        parse(text)
    return ei.value


def test_undeclared_identifier_names_the_culprit():
    e = _diag("chart x y\nform a = dx + b\n")
    assert "undeclared identifier 'b'" in e.message
    assert (e.line, e.col) == (2, 15)


def test_error_str_includes_position():
    e = _diag("form a = dq\n")
    assert str(e) == "1:10: undeclared identifier 'dq'"


def test_mixed_degree_sum_is_rejected():
    e = _diag("chart x y z\nform a = dx + dx ^ dy\n")
    assert "cannot add a 1-form and a 2-form" in e.message
    assert e.line == 2


def test_scalar_plus_form_is_rejected():
    e = _diag("chart x\nform a = 3 + dx\n")
    assert "cannot mix scalars and forms" in e.message


def test_star_between_forms_suggests_wedge():
    e = _diag("chart x y\nform a = dx * dy\n")
    assert "use ^ to wedge" in e.message


def test_division_by_zero_and_by_forms():
    assert "division by zero" in _diag("chart x\nform a = dx / 0\n").message
    assert "divide by a form" in _diag("chart x\nform a = dx / dx\n").message


def test_duplicate_coordinate():
    e = _diag("chart x x\n")
    assert "duplicate or reserved" in e.message


def test_keywords_are_reserved():
    e = _diag("param check\n")
    assert "duplicate or reserved" in e.message


def test_unexpected_character_is_a_lex_diagnostic():
    e = _diag("form a = dx @ dy\n")
    assert "unexpected character '@'" in e.message
    assert (e.line, e.col) == (1, 13)


def test_two_charts_are_rejected():
    e = _diag("chart x\nchart y\n")
    assert "only one chart" in e.message


def test_generator_degree_must_be_positive():
    e = _diag("gen q deg 0\n")
    assert "positive integer" in e.message


def test_form_statement_rejects_scalars():
    e = _diag("chart x\nform a = x + 1\n")
    assert "must be a differential form" in e.message


def test_scalar_wedge_power_needs_integer_literal():
    e = _diag("chart x y\nparam s\nform a = (dx ^ dy) ^ s\n")
    assert "literal nonnegative integer" in e.message


def test_symbol_wrong_dependence():
    e = _diag("chart r t\nsymbol f(r)\nform a = f(t) * dr\n")
    assert "depends on 'r', not 't'" in e.message


def test_check_requires_declared_forms():
    e = _diag("chart x y\ncheck approx alpha mu\n")
    assert "undeclared form 'alpha'" in e.message


def test_check_rejects_formal_generators():
    e = _diag("chart x y\ngen w deg 1\nform a = w\nform b = dx ^ dy\n"
              "check confoliation a b\n")
    assert "formal generator" in e.message


def test_check_rejects_undefined_scalar_symbols():
    e = _diag("chart r t\nsymbol f(r)\nform a = f(r) * dr\nform b = dr ^ dt\n"
              "check confoliation a b\n")
    assert "abstract quantities" in e.message and "f(r)" in e.message


def test_approx_needs_exactly_one_parameter():
    e = _diag("chart x y z\nform a = dz + x * dy\nform b = dx ^ dy\n"
              "check approx a b\n")
    assert "exactly one declared parameter" in e.message


def test_unknown_gallery_entry():
    e = _diag("gallery no-such-entry\n")
    assert "unknown gallery entry" in e.message


def test_unknown_gallery_parameter():
    e = _diag("gallery mori-formal bogus=3\n")
    assert "no parameter 'bogus'" in e.message


def test_deep_nesting_is_bounded():
    e = _diag("chart x\nform a = " + "(" * 500 + "dx" + ")" * 500 + "\n")
    assert "nesting too deep" in e.message


def test_truncated_input():
    e = _diag("chart x\nform a = dx +")
    assert "end of input" in str(e)


# ---------------------------------------------------------------------------
# parse . print . parse identity
# ---------------------------------------------------------------------------

ROUND_TRIP_DOCS = [
    CUBIC_DOC,
    FLAT_DOC,
    TUBE_DOC,
    GHOST_STRATUM_DOC,
    # every statement kind in one document
    "chart x[-1, 1] y[0, 6.283185307179586]* z\n"
    "symbol f(x)\n"
    "param s\n"
    "gen q deg 2\n"
    "form alpha = dz + (x^3 + s * x) * dy\n"
    "form W = dx ^ dy\n"
    "form extra = -f(x) * dx / 2 - dx * x^2\n"
    "form quad = 3 * q ^ 1\n"
    "extend m on stratum 1 = 2 * dx ^ dy\n"
    "check approx alpha W\n"
    "gallery mori-formal\n"
    "gallery mnw-torus n=1 k=2 seed=0\n",
    "gen nu deg 1 d = 0\ngen gamma deg 1\ngen eta deg 1 d = gamma ^ nu\n"
    "form beta = eta ^ nu - 2 * gamma ^ nu\n",
]


@pytest.mark.parametrize("text", ROUND_TRIP_DOCS)
def test_parse_print_parse_identity(text):
    doc = parse(text)
    printed = print_document(doc)
    doc2 = parse(printed)
    assert doc2 == doc                      # AST equality, spans ignored
    assert print_document(doc2) == printed  # printing is a fixpoint


@pytest.mark.parametrize("expr", [
    "-x * dx",
    "-(x * y) * dx",
    "(x + y)^2 * dx",
    "x^2^3 * dx",            # right-associative power
    "(x^2)^3 * dx",
    "x / 2 / 3 * dx",        # left-associative division
    "(x - (y - z)) * dx",
    "x^-2 * dx",
    "- -x * dx",
    "(2 * dx + y * dy) ^ (dz - dx)",
])
def test_expression_precedence_survives_round_trip(expr):
    text = f"chart x y z\nform t = {expr}\n"
    doc = parse(text)
    printed = print_document(doc)
    doc2 = parse(printed)
    assert doc2 == doc
    assert print_document(doc2) == printed
    # and the evaluated forms agree term by term (distinct algebra instances)
    tab = lambda d: [(k, _sym(c)) for k, c in d.forms["t"].terms()]
    assert tab(doc2) == tab(doc)


def test_random_expressions_round_trip():
    rng = random.Random(20240817)
    atoms = ["x", "y", "2", "3", "0.5", "s"]

    def expr(depth):
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        op = rng.choice("+-*/^^")
        a, b = expr(depth - 1), expr(depth - 1)
        pieces = f"({a}) {op} ({b})" if rng.random() < 0.5 else f"{a} {op} {b}"
        return "-" + pieces if rng.random() < 0.15 else pieces

    parsed = 0
    for _ in range(200):
        text = f"chart x y\nparam s\nform t = ({expr(4)}) * dx\n"
        try:
            doc = parse(text)
        except CflError:
            continue                      # e.g. division by a vanishing scalar
        printed = print_document(doc)
        assert parse(printed) == doc
        assert print_document(parse(printed)) == printed
        parsed += 1
    assert parsed > 100


# ---------------------------------------------------------------------------
# fuzzing: malformed input may only ever raise CflError
# ---------------------------------------------------------------------------

def test_fuzz_parser_never_crashes():
    rng = random.Random(99)
    vocab = ["chart", "symbol", "param", "gen", "form", "extend", "check",
             "gallery", "approx", "deg", "d", "on", "stratum", "x", "dx",
             "alpha", "=", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",",
             "0", "1", "2.5", "1e3", "\n", " ", "@", "\\", '"', "\t", "é"]
    for _ in range(2000):
        soup = "".join(rng.choice(vocab) for _ in range(rng.randrange(0, 30)))
        try:
            parse(soup)
        except CflError:
            pass


def test_fuzz_mutated_documents():
    rng = random.Random(7)
    base = CUBIC_DOC + TUBE_DOC.replace("chart z", "# chart z")
    for _ in range(500):
        chars = list(base)
        for _ in range(rng.randrange(1, 6)):
            i = rng.randrange(len(chars))
            chars[i] = rng.choice("abc()^*=[]#\n @09.")
        try:
            parse("".join(chars))
        except CflError:
            pass


# ---------------------------------------------------------------------------
# running documents
# ---------------------------------------------------------------------------

def test_cubic_document_exit_0_with_factor_line():
    rep = run(parse(CUBIC_DOC))
    assert rep.exit_code == 0
    assert rep.entries[0]["status"] == PASS
    text = rep.to_text()
    assert "stratum 1: exponent 1, F_s = 1/(2s) [PASS]" in text
    assert text.endswith("exit 0\n")


def test_flat_document_exit_1_with_item_c_witness():
    rep = run(parse(FLAT_DOC))
    assert rep.exit_code == 1
    e = rep.entries[0]
    assert e["status"] == FAIL
    assert "item (c)" in e["message"]
    assert "constant term" in e["detail"]["witness_line"]


def test_confoliation_and_shs_directives():
    rep = run(parse(TUBE_DOC))
    assert rep.exit_code == 0
    assert [e["status"] for e in rep.entries] == [PASS, PASS]
    assert [e["kind"] for e in rep.entries] == ["confoliation", "shs"]


def test_vanishing_alpha_is_a_fail_verdict_not_a_traceback(tmp_path):
    doc = tmp_path / "vanishing.cfl"
    doc.write_text("chart x y z\n"
                   "form alpha = 0 * dz\n"
                   "form W = dx ^ dy\n"
                   "check confoliation alpha W\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "confolkit.cli", str(doc),
                        "--format", "json"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    checks = json.loads(r.stdout)["checks"]
    assert [e["status"] for e in checks] == [FAIL]
    verdict = checks[0]["detail"]["verdict"]
    assert len(verdict["witness"]) == 3
    assert "alpha vanishes" in verdict["message"]


@pytest.mark.parametrize("kind, form", [("confoliation", "alpha"),
                                        ("shs", "lambda")])
def test_non_finite_coefficient_is_a_fail_verdict(tmp_path, kind, form):
    # x^(1/2) is nan on the negative half of the default box
    doc = tmp_path / "sqrt.cfl"
    doc.write_text("chart x y z\n"
                   "form a = dz + x^(1/2) * dy\n"
                   "form W = dx ^ dy\n"
                   f"check {kind} a W\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "confolkit.cli", str(doc),
                        "--format", "json"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert not re.search(r"\bnan\b", r.stdout, re.IGNORECASE)
    checks = json.loads(r.stdout)["checks"]
    assert [e["status"] for e in checks] == [FAIL]
    verdict = checks[0]["detail"]["verdict"]
    assert len(verdict["witness"]) == 3 and verdict["witness"][0] < 0
    assert verdict["message"] == f"{form} is not finite at the witness"


def test_non_finite_family_coefficient_is_a_fail_verdict(tmp_path):
    # s * x^(1/2) is nan on the negative half of the box for every s > 0
    doc = tmp_path / "sqrt_family.cfl"
    doc.write_text("chart x y z\n"
                   "param s\n"
                   "form a = dz + s * x^(1/2) * dy\n"
                   "form W = dx ^ dy\n"
                   "extend mu on stratum 0 = dx ^ dy\n"
                   "check approx a W\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "confolkit.cli", str(doc),
                        "--format", "json"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert not re.search(r"\bnan\b", r.stdout, re.IGNORECASE)
    checks = json.loads(r.stdout)["checks"]
    assert [e["status"] for e in checks] == [FAIL]
    verdict = checks[0]["detail"]["verdict"]
    assert len(verdict["witness"]) == 3 and verdict["witness"][0] < 0
    assert verdict["message"] == "alpha is not finite at the witness"


# x^(1/2) is nan on the negative half of the box: the verdicts name the
# form, so numpy's "invalid value" warnings would only repeat it
SQRT_DOCS = {
    "confoliation-shs": ("chart x y z\n"
                         "form a = dz + x^(1/2) * dy\n"
                         "form W = dx ^ dy\n"
                         "check confoliation a W\n"
                         "check shs a W\n",
                         ["alpha is not finite at the witness",
                          "lambda is not finite at the witness"]),
    "approx": ("chart x y z\n"
               "param s\n"
               "form a = dz + s * x^(1/2) * dy\n"
               "form W = dx ^ dy\n"
               "extend mu on stratum 0 = dx ^ dy\n"
               "check approx a W\n",
               ["alpha is not finite at the witness"]),
}


@pytest.mark.parametrize("name", sorted(SQRT_DOCS))
def test_non_finite_coefficient_prints_no_numpy_warning(tmp_path, name):
    text, messages = SQRT_DOCS[name]
    doc = tmp_path / "sqrt.cfl"
    doc.write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    # PYTHONWARNINGS=default shows every RuntimeWarning once per location
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "confolkit.cli", str(doc),
                        "--format", "json"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 1
    assert "RuntimeWarning" not in r.stderr
    assert r.stderr == ""
    checks = json.loads(r.stdout)["checks"]
    assert [e["status"] for e in checks] == [FAIL] * len(messages)
    assert [e["message"] for e in checks] == messages


def test_family_singular_at_the_base_is_a_diagnostic(tmp_path):
    doc = tmp_path / "singular.cfl"
    doc.write_text("chart x y z\n"
                   "param s\n"
                   "form alpha = dz + x * dy / s\n"
                   "form omega = dx ^ dy\n"
                   "extend mu on stratum 0 = dx ^ dy\n"
                   "check approx alpha omega\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "confolkit.cli", str(doc)],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert f"{doc}:6:14: coefficient of dy is not finite at s = 0" in r.stderr


def test_unlocatable_stratum_gives_undetermined_exit_2():
    rep = run(parse(GHOST_STRATUM_DOC))
    assert rep.exit_code == 2
    assert rep.entries[0]["status"] == UNDETERMINED
    assert "could not locate" in rep.entries[0]["message"]


def test_unlocatable_stratum_reports_its_band():
    # beta ^ dbeta = dz ^ dr ^ dt for this base, so the search bottoms out
    # at |beta ^ dbeta|^2 = 1 everywhere
    rep = run(parse(GHOST_STRATUM_DOC))
    assert rep.entries[0]["detail"]["verdict"]["margins"] == {
        "tau_rank": 1e-7, "min_top_norm_sq": {"0": 1.0}}


def _stratum_inputs(text):
    """(chart, base field, order) of every stratum search a document's
    checks ask for, or would ask for."""
    doc = parse(text)
    for entry in doc.checks:
        if entry[0] == "approx":
            _, _, tab_a, tab_b, par = entry
            base = DeformationFamily.from_table(doc.chart, tab_a, tab_b,
                                                param=par).base.h
            for _, order, _ in doc.extends:
                yield doc.chart, base, order
        elif entry[0] == "confoliation":
            # no strata declared here: search for where alpha ^ dalpha
            # vanishes, which drives the simplex onto the chart's clip
            yield doc.chart, HyperplaneField.from_symbolic(doc.chart,
                                                           entry[2]), 0


def _bench_doc(name):
    return (Path(__file__).resolve().parents[1] / "bench" / "inputs"
            / name).read_text()


def _stratum_searches(name, monkeypatch):
    """Every (batched objective, stack of starts) the stratum search of a
    bench document hands to the minimizer, all 20 seeded starts per
    stratum."""
    calls = []
    real = cli._nelder_mead

    def spy(F, X0, **kw):
        calls.append((F, np.copy(X0)))
        return real(F, X0, **kw)

    monkeypatch.setattr(cli, "_nelder_mead", spy)
    for chart, base, order in _stratum_inputs(_bench_doc(name)):
        cli._locate_stratum(chart, base, order, default_flags(), limit=21)
    return calls


def _scipy_nm(F, x0, rows=None):
    """scipy's Nelder-Mead on one row of the batched objective F, recording
    the points it evaluates in ``rows``."""
    def f(x):
        if rows is not None:
            rows.append(np.copy(x))
        return F(x[None])[0]
    return scipy.optimize.minimize(
        f, x0, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000})


@pytest.mark.parametrize("name", ["cubic_family.cfl", "flat_family.cfl",
                                  "solid_torus.cfl"])
def test_nelder_mead_matches_scipy_bitwise(name, monkeypatch):
    calls = _stratum_searches(name, monkeypatch)
    assert calls and all(len(X0) == 20 for _, X0 in calls)
    F0, X0 = calls[0]
    X0 = X0.copy()
    X0[0, 0] = 0.0                # a zero coordinate takes the 0.00025 step
    for F, X0 in calls + [(F0, X0)]:
        xs, fxs = cli._nelder_mead(F, X0, xatol=1e-12, fatol=1e-24,
                                   maxiter=4000)
        assert xs.shape == X0.shape and fxs.shape == (len(X0),)
        for x0, x, fx in zip(X0, xs, fxs):
            ref = _scipy_nm(F, x0)
            assert x.tobytes() == ref.x.tobytes()
            assert fx == ref.fun


def _reference_locate(chart, base_h, order, flags, limit=6):
    """The stratum search one start at a time, each a scipy run on the
    single-point objective; also returns the starts it ran."""
    fld = table_to_field(chart, table_top(chart, base_h.symbolic_table,
                                          order))
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    pad = 0.02 * (hi - lo)

    def g(x):
        x = np.minimum(np.maximum(x, lo + pad), hi - pad)
        return sum(v * v for v in fld.components(x).values())

    found, reached, starts = [], np.inf, []
    for x0 in sample_prefix(chart, 3, flags.seed + 17 * order, 20,
                            margin=0.1):
        starts.append(x0)
        ref = scipy.optimize.minimize(
            g, x0, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000})
        reached = min(reached, ref.fun)
        q = np.clip(ref.x, lo + pad, hi - pad)
        if order_at(base_h, q, flags.tol_rank).k != order:
            continue
        if any(np.linalg.norm(q - f) < 1e-3 for f in found):
            continue
        found.append(q)
        if len(found) >= limit:
            break
    return np.array(found).reshape(-1, chart.dim), reached, np.array(starts)


@pytest.mark.parametrize("text,seed", [
    *((_bench_doc(name), seed)
      for name in ("cubic_family.cfl", "flat_family.cfl", "solid_torus.cfl")
      for seed in (0, 7)),
    (SPLIT_STRATUM_DOC, 0), (GHOST_STRATUM_DOC, 0)])
def test_locate_stratum_matches_one_start_at_a_time(text, seed,
                                                    monkeypatch):
    flags = default_flags(seed=seed)
    batches = []
    real = cli._nelder_mead

    def spy(F, X0, **kw):
        batches.append(np.copy(X0))
        return real(F, X0, **kw)

    monkeypatch.setattr(cli, "_nelder_mead", spy)
    for chart, base, order in _stratum_inputs(text):
        batches.clear()
        pts, reached = cli._locate_stratum(chart, base, order, flags)
        ref_pts, ref_reached, ref_starts = _reference_locate(chart, base,
                                                             order, flags)
        assert pts.tobytes() == ref_pts.tobytes()
        assert reached == ref_reached
        # the same starts ran, in the same order
        assert np.concatenate(batches).tobytes() == ref_starts.tobytes()
    if text == GHOST_STRATUM_DOC:
        # no start reaches the stratum, so all 20 run
        assert len(pts) == 0 and reached == 1.0


def test_lockstep_search_calls_and_rows(monkeypatch):
    # the cubic document at seed 0: at most 3 objective calls per lockstep
    # iteration, and the points evaluated are those of one-by-one runs
    searches = []
    real = cli._nelder_mead

    def spy(F, X0, **kw):
        seen = []

        def counted(X):
            seen.append(np.copy(X))
            return F(X)
        out = real(counted, X0, **kw)
        searches.append((F, np.copy(X0), seen))
        return out

    monkeypatch.setattr(cli, "_nelder_mead", spy)
    for chart, base, order in _stratum_inputs(_bench_doc("cubic_family.cfl")):
        cli._locate_stratum(chart, base, order, default_flags())
    for F, X0, seen in searches:
        rows, nits = [], []
        for x0 in X0:
            nits.append(_scipy_nm(F, x0, rows).nit)
        # one call for the first simplices, then at most three per iteration
        assert len(seen) <= 1 + 3 * (max(nits) - 1)
        assert (sorted(r.tobytes() for X in seen for r in X)
                == sorted(r.tobytes() for r in rows))


def test_runtime_imports_no_scipy():
    bench_doc = (Path(__file__).resolve().parents[1] / "bench" / "inputs"
                 / "cubic_family.cfl")
    code = ("import sys\n"
            "import confolkit.cli as cli\n"
            "assert cli.main(['--selftest']) == 0\n"
            f"assert cli.main([{str(bench_doc)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


def test_gallery_directive_reproduces_expected_table():
    rep = run(parse("gallery mori-formal\n"))
    assert rep.exit_code == 0
    e = rep.entries[0]
    assert e["message"] == "expected table reproduced"
    assert e["detail"]["got"] == e["detail"]["expected"]
    assert "positivity: PASS" in rep.to_text()


@pytest.mark.parametrize("name", gallery.names())
def test_gallery_export_parse_run_round_trip(name):
    # an exported one-liner must re-run to the same table
    entry = gallery.build(name)
    doc = parse(entry.to_cfl())
    rep = run(doc)
    assert rep.exit_code == 0
    assert rep.entries[0]["detail"]["got"] == dict(entry.expected)


def test_json_reports_are_byte_identical():
    a = run(parse(CUBIC_DOC)).to_json()
    b = run(parse(CUBIC_DOC)).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == 1
    assert sorted(payload) == ["checks", "digest", "schema", "seed",
                               "tolerances", "version", "wall_time"]
    assert payload["checks"][0]["status"] == PASS


def test_report_records_flags():
    flags = default_flags(seed=5, tol_rank=1e-6)
    rep = run(parse("gallery mori-formal\n"), flags)
    assert rep.seed == 5
    assert rep.tolerances["rank"] == 1e-6
    data = json.loads(rep.to_json())
    assert data["seed"] == 5


def test_exit_code_precedence():
    from confolkit.cli import Report

    def rep(*statuses):
        return Report("v", "d", 0, {}, [{"status": s} for s in statuses])

    assert rep(PASS, PASS).exit_code == 0
    assert rep(PASS, UNDETERMINED).exit_code == 2
    assert rep(FAIL, UNDETERMINED, PASS).exit_code == 1
    assert rep().exit_code == 0


@pytest.mark.parametrize("samples", [24, 100, 384, 1000])
def test_every_sample_budget_reaches_the_far_edge(samples):
    rep = run(parse(EDGE_DOC), default_flags(samples=samples))
    assert rep.exit_code == 1
    assert rep.entries[0]["detail"]["verdict"]["witness"][0] > 0.6


@pytest.mark.parametrize("name", ["cubic_family.cfl", "flat_family.cfl",
                                  "solid_torus.cfl"])
def test_demo_verdicts_hold_at_every_sample_budget(name):
    text = (Path(__file__).resolve().parents[1] / "demos" / name).read_text()
    seen = set()
    for samples in (24, 100, 384, 1000):
        rep = run(parse(text), default_flags(samples=samples))
        seen.add((rep.exit_code, tuple(e["status"] for e in rep.entries)))
    assert len(seen) == 1


def test_sample_budget_respects_flags():
    doc = parse(TUBE_DOC)
    pts = cli._chart_samples(doc.chart, default_flags(samples=10, fd_step=1e-3))
    assert len(pts) == 10
    # --fd-step reaches the shs bands through shs_check(h=...)
    doc = parse(SHS_BAND_DOC)
    closed = {h: run(doc, default_flags(fd_step=h)).entries[0]
              for h in (1e-4, 1e-3)}
    assert closed[1e-4]["status"] == FAIL
    assert closed[1e-4]["message"].startswith("omega not closed")
    assert closed[1e-3]["status"] == PASS


# ---------------------------------------------------------------------------
# main(): flags, files, exit code 3
# ---------------------------------------------------------------------------

def test_main_missing_file(capsys):
    assert main(["/no/such/file.cfl"]) == 3
    assert "usage error" in capsys.readouterr().err


def test_main_unknown_flag(capsys):
    assert main(["--frobnicate"]) == 3
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-3"), ("--tol-rank", "-1"),
    ("--tol-pos", "0"), ("--fd-step", "0"), ("--fd-step", "nan"),
    ("--seed", "-1")])
def test_main_out_of_range_flag_is_a_usage_error(tmp_path, capsys, flag,
                                                 value):
    f = tmp_path / "tube.cfl"
    f.write_text(TUBE_DOC)
    assert main([str(f), flag, value]) == 3
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err


def test_main_no_input(capsys):
    assert main([]) == 3
    assert "no input file" in capsys.readouterr().err


def test_main_reports_parse_position(tmp_path, capsys):
    f = tmp_path / "bad.cfl"
    f.write_text("form a = dq\n")
    assert main([str(f)]) == 3
    err = capsys.readouterr().err
    assert f"{f}:1:10: undeclared identifier 'dq'" in err


@pytest.mark.parametrize("doc, kind, dim", [
    ("chart x y z w\nform a = dz\nform b = dx ^ dy\n", "confoliation", 4),
    ("chart x y z w\nform a = dz\nform b = dx ^ dy\n", "shs", 4),
    ("chart x y z w\nparam s\nform a = dz + s * x * dy\nform b = dx ^ dy\n",
     "approx", 4),
    ("chart x\nform a = dx\nform b = dx ^ dx\n", "confoliation", 1)],
    ids=["confoliation-dim4", "shs-dim4", "approx-dim4", "confoliation-dim1"])
def test_main_check_needs_odd_chart_of_dimension_3(tmp_path, capsys, doc,
                                                    kind, dim):
    f = tmp_path / "even.cfl"
    f.write_text(doc + f"check {kind} a b\n")
    assert main([str(f)]) == 3
    line = doc.count("\n") + 1
    assert capsys.readouterr().err == (
        f"confolkit: {f}:{line}:1: check {kind} needs an odd-dimensional "
        f"chart of dimension >= 3, not {dim}\n")


@pytest.mark.parametrize("params, col, message", [
    ("openbook-solid-torus delta=0", 1, "profile breakpoints must increase"),
    ("bourgeois-abstract n=0", 1, "bourgeois-abstract needs n >= 2"),
    ("mnw-torus n=foo", 21, "parameter 'n' takes an integer, got 'foo'"),
    ("mnw-torus n=1.5", 21, "parameter 'n' takes an integer, got '1.5'"),
    ("openbook-solid-torus delta=big", 36,
     "parameter 'delta' takes a number, got 'big'"),
    ("r5-cubic seed=-3", 23, "seed must be an integer >= 0, got -3")],
    ids=["delta=0", "n=0", "n=foo", "n=1.5", "delta=big", "seed=-3"])
def test_main_rejected_gallery_value_is_a_diagnostic(tmp_path, capsys,
                                                     params, col, message):
    f = tmp_path / "g.cfl"
    f.write_text(f"gallery {params}\n")
    assert main([str(f)]) == 3
    assert capsys.readouterr().err == f"confolkit: {f}:1:{col}: {message}\n"


def test_overflowing_pencil_is_not_identically_zero(tmp_path, capsys):
    f = tmp_path / "big.cfl"
    f.write_text("chart x1 y1 x2 y2 z\n"
                 "form alpha = dz + x1 * dy1 + x2 * dy2\n"
                 "form W = 1e200 * dx1 ^ dy1 + 1e200 * dx2 ^ dy2\n"
                 "check confoliation alpha W\n")
    assert main([str(f), "--format", "json"]) == 1
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert entry["status"] == FAIL
    assert entry["message"] == "pencil: Pfaffian is not finite"


def _run_cli(path, *args):
    src = str(Path(cli.__file__).resolve().parents[1])
    # PYTHONWARNINGS=default shows every RuntimeWarning once per location
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "confolkit.cli", str(path),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("params, cause", [
    ("openbook-solid-torus delta=1e-300", "two-form is numerically degenerate"),
    ("openbook-s3-binding delta=1e-300", "two-form is numerically degenerate")],
    ids=["ob1-tiny", "ob2-tiny"])
def test_degenerate_open_book_construction_is_a_fail_row(tmp_path, params,
                                                         cause):
    f = tmp_path / "ob.cfl"
    f.write_text(f"gallery {params}\n")
    r = _run_cli(f, "--format", "json")
    assert (r.returncode, r.stderr) == (1, "")
    row = json.loads(r.stdout)["checks"][0]["detail"]["verdict"]["sub"][
        "cotamed-J"]
    assert row["status"] == FAIL
    assert row["message"] == f"split cotamed J breaks down: {cause}"
    assert row["witness"] is not None


def test_huge_open_book_reproduces_its_expected_table(tmp_path):
    # dalpha from the exact pieces stays finite at r ~ 1e298, and mu on
    # K_xi (entries ~ 3.6e298) is not called degenerate for a norm that
    # overflows only in its sum of squares
    f = tmp_path / "ob.cfl"
    f.write_text("gallery openbook-solid-torus delta=1e300\n")
    r = _run_cli(f, "--format", "json")
    assert (r.returncode, r.stderr) == (0, "")
    check = json.loads(r.stdout)["checks"][0]
    assert check["status"] == PASS
    assert check["message"] == "expected table reproduced"


@pytest.mark.parametrize("name", ["lambda", "numpy"])
def test_coordinate_named_like_generated_code_passes(tmp_path, capsys, name):
    # a Python keyword, or the module name the compiled code calls into
    f = tmp_path / "tube.cfl"
    f.write_text(f"chart {name}[0.5, 1] r[0.05, 1] theta[0, 6.283185307]*\n"
                 f"form alpha = d{name} + 2 * {name}^(1/2) * r^2 * dtheta\n"
                 "form W = 4 * r * dr ^ dtheta\n"
                 "check confoliation alpha W\n")
    assert main([str(f)]) == 0
    out = capsys.readouterr().out
    assert "confoliation alpha W: PASS" in out and out.endswith("exit 0\n")


def test_deformation_without_its_strata_fails_the_factor_rows(tmp_path):
    f = tmp_path / "ob.cfl"
    f.write_text("gallery openbook-deformation delta=1e-300\n")
    r = _run_cli(f, "--format", "json")
    assert (r.returncode, r.stderr) == (1, "")
    rows = json.loads(r.stdout)["checks"][0]["detail"]["verdict"]["sub"]
    assert rows["factors"]["status"] == FAIL
    assert rows["factors"]["message"] == \
        "stratum g0-zero: no symbolic limit in item (b)"
    assert rows["exponents"]["status"] == FAIL
    assert rows["exponents"]["sub"]["g0-zero"]["message"] == \
        "stratum g0-zero: no symbolic limit in item (b)"


def test_overflowing_gallery_parameter_is_a_diagnostic(tmp_path, capsys):
    f = tmp_path / "ob.cfl"
    f.write_text("gallery openbook-deformation delta=1e300\n")
    assert main([str(f)]) == 3
    assert capsys.readouterr().err == (
        f"confolkit: {f}:1:1: gallery openbook-deformation: a parameter "
        "overflows the construction\n")


def test_main_env_seed_fallback(tmp_path, capsys, monkeypatch):
    f = tmp_path / "g.cfl"
    f.write_text("gallery mori-formal\n")
    out = tmp_path / "r.json"
    monkeypatch.setenv("CONFOLKIT_SEED", "7")
    assert main([str(f), "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7
    monkeypatch.setenv("CONFOLKIT_SEED", "pi")
    assert main([str(f)]) == 3
    assert "CONFOLKIT_SEED" in capsys.readouterr().err


def test_main_negative_env_seed_is_a_usage_error(tmp_path, capsys,
                                                 monkeypatch):
    f = tmp_path / "tube.cfl"
    f.write_text(TUBE_DOC)
    monkeypatch.setenv("CONFOLKIT_SEED", "-1")
    assert main([str(f)]) == 3
    err = capsys.readouterr().err
    assert "usage error" in err and "CONFOLKIT_SEED='-1'" in err
    assert len(err.splitlines()) == 1


def test_main_runs_document_to_out_file(tmp_path, capsys):
    f = tmp_path / "cubic.cfl"
    f.write_text(CUBIC_DOC)
    out = tmp_path / "report.txt"
    assert main([str(f), "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "F_s = 1/(2s)" in out.read_text()


def test_readme_grammar_matches_docstring():
    # the EBNF shipped in the README must stay bit-identical (modulo
    # indentation) to the one the parser module documents
    import pathlib

    doc_lines = [l.strip() for l in cli.__doc__.splitlines()]
    start = doc_lines.index("document   = { statement } ;")
    end = next(i for i, l in enumerate(doc_lines)
               if l.startswith("value      ="))
    block = doc_lines[start:end + 1]
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    readme_lines = [l.strip() for l in readme.read_text().splitlines()]
    i = readme_lines.index(block[0])
    assert readme_lines[i:i + len(block)] == block


def test_main_selftest(capsys):
    assert main(["--selftest"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == len(gallery.names())
    assert all(l.endswith("reproduced") for l in lines)
