"""Outside-in layer tracing for the confolkit benchmark.

The tracer wraps public functions of each confolkit module from the
benchmark's side; nothing in ``src/`` knows it is being traced.  A wrapped
call records a span ``(id, parent, name, thread, start, end)``.  The parent
comes from a per-thread stack; a span that opens on an empty stack in a
worker thread (``cli.run`` hands multi-check documents to a thread pool)
takes the client thread's innermost open span as its parent.  A span's self
time is its duration minus the part of its interval that its children
cover, so waiting on pool workers is not counted twice.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

from confolkit.conetame import UNDETERMINED

#: (metric name, owning module, attribute path).  Module functions are
#: rebound in every confolkit module that holds the same object; methods are
#: patched on their class.
TARGETS = (
    ("cli.parse", "confolkit.cli", "parse"),
    ("cli.run", "confolkit.cli", "run"),
    ("cli.Report.to_json", "confolkit.cli", "Report.to_json"),
    # the stratum search in cli._locate_stratum is the only caller
    ("cli.minimize", "scipy.optimize", "minimize"),
    ("grassmann.FormExpr.init", "confolkit.grassmann", "FormExpr.__init__"),
    ("grassmann.FormExpr.wedge", "confolkit.grassmann", "FormExpr.wedge"),
    ("grassmann.FormExpr.d", "confolkit.grassmann", "FormExpr.d"),
    ("grassmann.FormExpr.contract", "confolkit.grassmann", "FormExpr.contract"),
    ("grassmann.FormExpr.equals", "confolkit.grassmann", "FormExpr.equals"),
    ("grassmann.FormExpr.expand_in_param", "confolkit.grassmann",
     "FormExpr.expand_in_param"),
    ("sympy.lambdify", "sympy", "lambdify"),
    ("chartfield.FormFieldNum.from_symbolic", "confolkit.chartfield",
     "FormFieldNum.from_symbolic"),
    ("approx.table_to_field", "confolkit.approx", "table_to_field"),
    ("approx.table_d", "confolkit.approx", "table_d"),
    ("approx.table_wedge", "confolkit.approx", "table_wedge"),
    ("approx.table_wedge_power", "confolkit.approx", "table_wedge_power"),
    ("approx.table_contract", "confolkit.approx", "table_contract"),
    ("approx.conformal_limit", "confolkit.approx", "conformal_limit"),
    ("approx.compat_check", "confolkit.approx", "compat_check"),
    ("approx.approx_verdict", "confolkit.approx", "approx_verdict"),
    ("approx.DeformationFamily.hyperplane_at", "confolkit.approx",
     "DeformationFamily.hyperplane_at"),
    ("approx.DeformationFamily.base_consistency", "confolkit.approx",
     "DeformationFamily.base_consistency"),
    ("chartfield.FormFieldNum.eval_at", "confolkit.chartfield",
     "FormFieldNum.eval_at"),
    ("chartfield.FormFieldNum.components", "confolkit.chartfield",
     "FormFieldNum.components"),
    ("chartfield.FormFieldNum.wedge", "confolkit.chartfield",
     "FormFieldNum.wedge"),
    ("chartfield.FormFieldNum.wedge_power", "confolkit.chartfield",
     "FormFieldNum.wedge_power"),
    ("chartfield.d_fd", "confolkit.chartfield", "d_fd"),
    ("chartfield.pullback", "confolkit.chartfield", "pullback"),
    ("chartfield.flow_rk4", "confolkit.chartfield", "flow_rk4"),
    ("chartfield.sample_grid", "confolkit.chartfield", "sample_grid"),
    ("conetame.pencil_positive", "confolkit.conetame", "pencil_positive"),
    ("conetame.pfaffian", "confolkit.conetame", "pfaffian"),
    ("conetame.kernel_with_tol", "confolkit.conetame", "kernel_with_tol"),
    ("conetame.taming_check", "confolkit.conetame", "taming_check"),
    ("conetame.compatible_J", "confolkit.conetame", "compatible_J"),
    ("conetame.split_cotamed_J", "confolkit.conetame", "split_cotamed_J"),
    ("conetame.cayley_interpolate", "confolkit.conetame",
     "cayley_interpolate"),
    ("confolcheck.order_at", "confolkit.confolcheck", "order_at"),
    ("confolcheck.rank_stratify", "confolkit.confolcheck", "rank_stratify"),
    ("confolcheck.confoliation_check", "confolkit.confolcheck",
     "confoliation_check"),
    ("confolcheck.shs_check", "confolkit.confolcheck", "shs_check"),
    ("confolcheck.flow_invariance_test", "confolkit.confolcheck",
     "flow_invariance_test"),
    ("confolcheck.open_book_confoliation", "confolkit.confolcheck",
     "open_book_confoliation"),
    ("confolcheck.blob_pointwise_check", "confolkit.confolcheck",
     "blob_pointwise_check"),
    ("confolcheck.HyperplaneField.from_symbolic", "confolkit.confolcheck",
     "HyperplaneField.from_symbolic"),
    ("gallery.build", "confolkit.gallery", "build"),
    ("gallery.GalleryEntry.verify", "confolkit.gallery",
     "GalleryEntry.verify"),
)

#: Sample-loop verifiers and the argument holding their samples.
SAMPLE_ARGS = {
    "confolcheck.rank_stratify": "samples",
    "confolcheck.confoliation_check": "samples",
    "confolcheck.shs_check": "samples",
    "confolcheck.blob_pointwise_check": "samples_N",
}

#: Layers whose return values are verdicts with a ``status``.
VERDICT_LAYERS = ("approx.", "conetame.", "confolcheck.", "gallery.")

COUNTERS = ("chartfield.one_sided_stencils", "confolcheck.samples_evaluated",
            "confolcheck.undetermined")


def _bindings(original, owner):
    """Every (module, attribute) in confolkit or ``owner`` bound to
    ``original``."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "confolkit"
                                  or n.startswith("confolkit."))]
    if owner not in mods:
        mods.append(owner)
    return [(m, a) for m in mods for a, v in list(vars(m).items())
            if v is original]


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Spans and counters for one traced pass at a time.

    ``install`` patches every target; ``uninstall`` restores the originals.
    ``take_pass`` returns the pass's per-name calls and self time plus the
    counters, and clears them for the next pass.
    """

    def __init__(self):
        self._patches = []
        self._lock = threading.Lock()
        self._client = threading.get_ident()
        self._stacks = {}
        self._reset()

    def _reset(self):
        self.spans = []
        self._ids = itertools.count(1)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.undetermined = []
        self._fd_inputs = {}

    # -- patching ---------------------------------------------------------
    def install(self):
        for name, modname, path in TARGETS:
            __import__(modname)
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            raw = getattr(owner, path)
            new = self._wrap(name, raw)
            for mod, attr in _bindings(raw, owner):
                self._patches.append((mod, attr, raw))
                setattr(mod, attr, new)

    def uninstall(self):
        while self._patches:
            obj, attr, raw = self._patches.pop()
            setattr(obj, attr, raw)

    def _wrap(self, name, fn):
        after = self._hook(name, fn)
        stacks, client = self._stacks, self._client
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(client) if tid != client else None
                parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.spans.append((sid, parent, name, tid, t0, t1))
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _hook(self, name, fn):
        """Counter update run after a wrapped call returns, or None."""
        if name in SAMPLE_ARGS:
            sig, arg = inspect.signature(fn), SAMPLE_ARGS[name]

            def count_samples(args, kwargs, out):
                n = len(sig.bind(*args, **kwargs).arguments[arg])
                self._add("confolcheck.samples_evaluated", n)
                self._note_verdict(name, out)
            return count_samples
        if name == "chartfield.d_fd":
            def remember_input(args, kwargs, out):
                f = args[0] if args else kwargs["f"]
                with self._lock:
                    # the stencils d_fd takes are counted on its input
                    self._fd_inputs.setdefault(
                        id(f), (f, f.stats["one_sided"]))
            return remember_input
        if name.startswith(VERDICT_LAYERS):
            return lambda args, kwargs, out: self._note_verdict(name, out)
        return None

    def _add(self, counter, n):
        with self._lock:
            self.counters[counter] += n

    def _note_verdict(self, name, out):
        if getattr(out, "status", None) != UNDETERMINED:
            return
        with self._lock:
            self.counters["confolcheck.undetermined"] += 1
            self.undetermined.append({
                "layer": name, "message": str(getattr(out, "message", "")),
                "margins": {str(k): repr(v) for k, v in
                            (getattr(out, "margins", None) or {}).items()}})

    # -- per-pass results -------------------------------------------------
    def take_pass(self):
        """Per-name ``[calls, self_s]``, counters, undetermined records."""
        spans = self.spans
        kids = defaultdict(list)
        for sid, parent, _, _, t0, t1 in spans:
            if parent is not None:
                kids[parent].append((t0, t1))
        rows = defaultdict(lambda: [0, 0.0])
        for sid, _, name, _, t0, t1 in spans:
            row = rows[name]
            row[0] += 1
            row[1] += (t1 - t0) - covered_length(kids.get(sid, ()), t0, t1)
        counters = dict(self.counters)
        counters["chartfield.one_sided_stencils"] = sum(
            f.stats["one_sided"] - base
            for f, base in self._fd_inputs.values())
        undetermined = self.undetermined
        self._reset()
        return dict(rows), counters, undetermined
