"""Tests for the benchmark's own code: answer checks and outside-in tracing.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from layers import COUNTERS, TARGETS, Tracer, covered_length  # noqa: E402
from workloads import (DOC_ANSWERS, GALLERY_ANSWERS, WORKLOADS,  # noqa: E402
                       Runner)


def _cubic_runner(answer):
    return Runner(WORKLOADS["cfl-default"],
                  doc_answers={"cubic_family": answer})


def test_flipped_document_answer_raises_failed_share():
    good = _cubic_runner(DOC_ANSWERS["cubic_family"])
    good.run_pass(0)
    flipped = _cubic_runner((1, (("FAIL", ()),)))
    flipped.run_pass(0)
    assert good.failed_share == 0.0
    assert flipped.failed_share == 1.0


def test_flipped_gallery_row_raises_failed_share():
    table = dict(GALLERY_ANSWERS["bourgeois-abstract"])
    table["top-bracket"] = "FAIL"
    runner = Runner(WORKLOADS["gallery-selftest"],
                    gallery_answers={"bourgeois-abstract": table})
    runner.run_pass(0)
    assert runner.failed_share == 1.0


def test_changed_json_bytes_are_a_failure():
    runner = _cubic_runner(DOC_ANSWERS["cubic_family"])
    runner._digests[("cubic_family", 0, 24)] = "digest of another report"
    runner.run_pass(0)
    assert runner.failed == 1
    assert "JSON bytes differ" in runner.problems[0]


def test_raising_item_is_counted_and_the_pass_goes_on():
    answers = {"no-such-entry": {},
               "bourgeois-abstract": GALLERY_ANSWERS["bourgeois-abstract"]}
    runner = Runner(WORKLOADS["gallery-selftest"], gallery_answers=answers)
    out = runner.run_pass(0)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert out.checks == 3
    assert "KeyError" in runner.problems[0]


def test_covered_length_merges_overlapping_children():
    assert covered_length([(1, 3), (0, 2), (5, 6)], 0, 5.5) == 3.5


def test_tracer_rebinds_every_binding_and_restores_them():
    import confolkit
    from confolkit import conetame, confolcheck
    original = conetame.pencil_positive
    tracer = Tracer()
    tracer.install()
    try:
        assert conetame.pencil_positive is not original
        assert confolcheck.pencil_positive is conetame.pencil_positive
        assert confolkit.pencil_positive is conetame.pencil_positive
        confolcheck.pfaffian(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    finally:
        tracer.uninstall()
    assert confolcheck.pencil_positive is original
    assert confolkit.pencil_positive is original
    layers, _, _ = tracer.take_pass()
    assert layers["conetame.pfaffian"][0] == 1


def test_pool_spans_hang_under_the_client_span():
    # solid_torus has three checks, which cli.run hands to a thread pool
    runner = Runner(WORKLOADS["cfl-default"],
                    doc_answers={"solid_torus": DOC_ANSWERS["solid_torus"]})
    tracer = Tracer()
    tracer.install()
    try:
        runner.run_pass(0)
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    (run,) = [s for s in tracer.spans if s[2] == "cli.run"]
    pooled = [s for s in tracer.spans if s[1] == run[0] and s[3] != run[3]]
    assert pooled
    layers, counters, _ = tracer.take_pass()
    assert 0.0 <= layers["cli.run"][1] < 0.5 * (run[5] - run[4])
    assert counters["confolcheck.samples_evaluated"] >= 2 * 24


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "checks_per_s", "verdict_s.p50", "peak_rss_mb"]
    layer_names = [f"{name}.{kind}" for name, _, _ in TARGETS
                   for kind in ("calls", "self_s")]
    layer_names += list(COUNTERS) + ["trace.pass_wall_s", "trace.self_sum_s",
                                     "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
