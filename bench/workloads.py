"""Workloads, inputs and hand-written answers for the confolkit benchmark.

One client drives confolkit's public Python API in a closed loop: each
document (or gallery entry) starts only when the previous one finished.
The benchmark seed only orders the program seeds a run uses; every program
seed listed for a workload is one all the known answers hold for.
"""

import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from confolkit import cli, gallery
from confolkit.conetame import FAIL
from sympy.core.cache import clear_cache

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Answers from each document's header comment: the exit code, then per
#: check entry its status and the labels of its FAIL sub-verdicts.
DOC_ANSWERS = {
    "cubic_family": (0, (("PASS", ()),)),
    "flat_family": (1, (("FAIL", ("item_c",)),)),
    "solid_torus": (0, (("PASS", ()), ("PASS", ()), ("PASS", ()))),
}

#: The gallery's frozen expected tables, copied by hand so that a change to
#: a table in ``src`` cannot also change what the benchmark accepts.
GALLERY_ANSWERS = {
    "r5-cubic": {"approx": "PASS", "factor": "PASS", "exponents": "PASS"},
    "r5-flat-negative": {"approx": "FAIL", "failing-item": "PASS",
                         "exponents": "PASS"},
    "bertelson-meigniez-r5": {"approx": "PASS", "factor": "PASS",
                              "exponents": "PASS"},
    "branched-cover-r3": {"approx": "PASS", "contact-family": "PASS",
                          "conformal-limit": "PASS"},
    "mnw-torus": {"approx": "PASS", "factor": "PASS",
                  "volume-identity": "PASS", "exponents": "PASS"},
    "openbook-solid-torus": {
        "profiles": "PASS", "confoliation": "PASS", "cotamed-J": "PASS",
        "shs": "PASS", "shs-residual": "PASS", "taming-identity": "PASS"},
    "openbook-s3-binding": {
        "profiles": "PASS", "confoliation": "PASS", "cotamed-J": "PASS",
        "shs": "PASS", "shs-residual": "PASS", "taming-identity": "PASS"},
    "openbook-deformation": {"profiles": "PASS", "approx": "PASS",
                             "factors": "PASS", "exponents": "PASS"},
    "bourgeois-abstract": {"t2-uniform": "PASS", "top-bracket": "PASS",
                           "quoted-index": "PASS"},
    "mori-formal": {"dalpha": "PASS", "mu-expansion": "PASS",
                    "top-expansion": "PASS", "positivity": "PASS"},
    "product-blob": {"item1": "PASS", "item2": "PASS", "item3a": "PASS",
                     "item3b": "PASS", "item3c": "SKIPPED",
                     "item3d": "SKIPPED", "transversely-exact": "PASS"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "gallery": build + verify; "cfl": parse, run, JSON
    seeds: tuple         # program seeds the known answers hold for
    samples: int = 0     # --samples of each document


WORKLOADS = {w.name: w for w in (
    # the work of `confolkit --selftest`: symbolic algebra and lambdify
    Workload("gallery-selftest", "gallery", tuple(range(6))),
    # the common user case: CLI default sample count, compile-dominated
    Workload("cfl-default", "cfl", tuple(range(12)), samples=24),
    # same layers, but many samples per compile: the per-sample loops
    Workload("cfl-dense", "cfl", tuple(range(12)), samples=384),
)}


def seed_order(workload, seed):
    """The program seeds a run cycles through, shuffled by ``seed``."""
    order = list(workload.seeds)
    random.Random(seed).shuffle(order)
    return order


@dataclass
class PassResult:
    seed: int                                    # program seed
    seconds: list = field(default_factory=list)  # completed items, each
    wall_s: float = 0.0                          # all items, failed too
    checks: int = 0                              # in correct items


class Runner:
    """Runs one workload pass at a time and checks every answer.

    Every item is checked against the hand-written answers; a document's
    JSON report must also be byte-identical to the first one seen for the
    same (document, seed, samples).  An item that raises or disagrees is
    counted in ``failed`` and the pass goes on.
    """

    def __init__(self, workload, doc_answers=None, gallery_answers=None):
        self.workload = workload
        if workload.kind == "gallery":
            self.answers = gallery_answers or GALLERY_ANSWERS
            self.texts = {}
        else:
            self.answers = doc_answers or DOC_ANSWERS
            self.texts = {name: (INPUTS / f"{name}.cfl").read_text("utf-8")
                          for name in self.answers}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digests = {}

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def run_pass(self, seed):
        """Every item once with program seed ``seed``, each from a cold
        sympy cache as a fresh process would see it: a `--selftest` process
        builds the whole gallery, a CLI process runs one document."""
        out = PassResult(seed)
        for i, name in enumerate(self.answers):
            if self.workload.kind == "cfl" or i == 0:
                clear_cache()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self._execute(name, seed)
            except Exception as exc:  # an item must not end the run
                out.wall_s += time.perf_counter() - t0
                self._fail(name, seed, f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            out.seconds.append(dt)
            out.wall_s += dt
            checks, problem = self._check(name, seed, result)
            if problem:
                self._fail(name, seed, problem)
            else:
                out.checks += checks
        return out

    def _execute(self, name, seed):
        """The timed work: ``build(name)`` to ``verify()``, or ``.cfl``
        text to the rendered JSON report."""
        if self.workload.kind == "gallery":
            return gallery.build(name, seed=seed).verify()[1]
        flags = cli.default_flags(samples=self.workload.samples, seed=seed)
        report = cli.run(cli.parse(self.texts[name]), flags)
        return report, report.to_json()

    def _check(self, name, seed, result):
        """(checks decided, problem or None) for one item's result."""
        if self.workload.kind == "gallery":
            return len(result), (None if result == self.answers[name]
                                 else f"table {result}")
        report, payload = result
        got = (report.exit_code, tuple(
            (e["status"], tuple(sorted(
                k for k, v in e["detail"]["verdict"]["sub"].items()
                if v["status"] == FAIL)))
            for e in report.entries))
        if got != self.answers[name]:
            return len(report.entries), f"exit and statuses {got}"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        key = (name, seed, self.workload.samples)
        if self._digests.setdefault(key, digest) != digest:
            return len(report.entries), "JSON bytes differ from an earlier run"
        return len(report.entries), None

    def _fail(self, name, seed, problem):
        self.failed += 1
        self.problems.append(f"{name} seed={seed}: {problem}")
