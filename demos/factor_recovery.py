#!/usr/bin/env python3
"""Recover conformal factors of a deforming hyperplane field, library-style.

Builds the cubic family alpha_s = dz + (x1^3 + s x1) dy1 + x2 dy2 directly
through the approx API (no .cfl document), runs the full verdict, and prints
the per-stratum limit table; then does the same for the flat non-example to
show what a failure witness looks like.

    PYTHONPATH=src python demos/factor_recovery.py

exits 0 only when the cubic family PASSes and the flat one FAILs on item (c)
alone, so it doubles as a check of the library route.
"""

import sys

import numpy as np
import sympy as sp

from confolkit import (approx_verdict, Chart, DeformationFamily,
                       PartitionedForm, StratumData)

x1, x2, s = sp.symbols("x1 x2 s")
chart = Chart(("x1", "y1", "x2", "y2", "z"), ((-1, 1),) * 5)
TOP = (0, 1, 2, 3, 4)


def pts(*rows):
    return np.array(rows, dtype=float)


def show(title, rep):
    print(f"== {title}: {rep.verdict.status}")
    for lab, lim in sorted(rep.strata.items(), key=lambda kv: str(kv[0])):
        if lim.factor_coeff is None:
            factor = "pointwise weight"
        elif lim.factor_coeff == 1.0:
            factor = f"1/s^{lim.exponent}"
        else:
            factor = f"1/({lim.factor_coeff:g} s^{lim.exponent})"
        print(f"   stratum {lab}: order {lim.order}, exponent {lim.exponent},"
              f" factor {factor}, residual {lim.residual:.2e} [{lim.status}]")
    if rep.verdict.status != "PASS":
        print(f"   message: {rep.verdict.message}")
        for name, sub in rep.verdict.sub.items():
            if sub.status == "FAIL" and sub.witness is not None:
                print(f"   witness ({name}): {sub.witness}")
    print()


# cubic family: contact for s > 0, order-1 degeneration along x1 = 0
fam = DeformationFamily.from_table(
    chart, {"z": 1, "y1": x1 ** 3 + s * x1, "y2": x2},
    {("x1", "y1"): 1}, param="s")
pf = PartitionedForm({
    "C1": StratumData(order=1,
                      samples=pts((0, .3, .2, -.4, .1), (0, -.5, -.3, .25, 0)),
                      mu_table={("x1", "y1"): 1},
                      zeta_table={TOP: 2 * s},
                      eta_table={TOP: sp.Integer(1)}),
    "C0": StratumData(order=2,
                      samples=pts((.5, -.3, .2, .4, .1),
                                  (.35, .15, .55, -.25, .05))),
})
cubic = approx_verdict(fam, pf)
show("cubic family", cubic)

# flat family: the split extension is not compatible -> item (c) fails
fam_flat = DeformationFamily.from_table(
    chart, {"z": 1, "y1": s * x1, "y2": s * x2},
    {("x1", "x2"): 1, ("y1", "y2"): 1}, param="s")
pf_flat = PartitionedForm({
    "foliation": StratumData(order=0,
                             samples=pts((.5, -.3, .2, .4, .1),
                                         (-.6, .2, -.1, .3, -.2)),
                             mu_table={("x1", "y1"): 1, ("x2", "y2"): 1})})
flat = approx_verdict(fam_flat, pf_flat)
show("flat family", flat)

failing = [k for k, v in flat.verdict.sub.items() if v.status == "FAIL"]
if cubic.verdict.status != "PASS" or failing != ["item_c"]:
    sys.exit(f"expected cubic PASS and flat FAIL on item_c alone, got cubic "
             f"{cubic.verdict.status}, flat failing {failing}")
