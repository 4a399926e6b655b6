#!/usr/bin/env python3
"""confolkit benchmark: one closed-loop client on the public Python API.

    python3 bench/run.py --workload cfl-default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (see ``workloads.py``): ``gallery-selftest`` builds and verifies
every gallery entry; ``cfl-default`` and ``cfl-dense`` run the three demo
documents through parse, run and JSON rendering at 24 and 384 samples.

With ``--trace 0`` a run reports the end-to-end metrics:

- ``setup_s``: median time for a fresh interpreter to import
  ``confolkit.cli`` and load the workload's inputs;
- ``checks_per_s``: check directives and gallery rows decided per second,
  the median over timed passes;
- ``verdict_s.p50``: median time of one item, from ``.cfl`` text to the
  JSON report or from ``build(name)`` to ``verify()``;
- ``peak_rss_mb``: peak resident memory of the process.

It also prints ``verdict_s.p90`` when at least ten samples lie beyond it,
and ``failed_share``, the share of items that raised, disagreed with the
hand-written answer, or rendered JSON bytes unlike an earlier run of the same
(document, seed, samples).  Every timed pass starts from a cold sympy cache.

With ``--trace 1`` it alternates untraced and traced passes on the same
program seed and reports, per wrapped function, ``<name>.calls`` and
``<name>.self_s`` (medians over traced passes), the counters, each traced
pass's wall time next to the sum of self times, and the tracing overhead
as the traced minus the untraced wall time of a pass.
Per-pass layer tables and every UNDETERMINED verdict with its margins go to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3

SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import confolkit.cli
inputs = [open(p, encoding="utf-8").read() for p in {paths!r}]
inputs += list(confolkit.gallery.names()) if {gallery!r} else []
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def environment():
    import numpy
    import scipy
    import sympy
    commit = None
    if (ROOT / ".git").exists():  # a source export has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": src.hexdigest()}


def setup_seconds(workload):
    """Seconds each of a few fresh interpreters takes to import
    ``confolkit.cli`` and load the workload's inputs."""
    from workloads import INPUTS, DOC_ANSWERS
    paths = ([str(INPUTS / f"{n}.cfl") for n in DOC_ANSWERS]
             if workload.kind == "cfl" else [])
    script = SETUP_SCRIPT.format(src=str(SRC), paths=paths,
                                 gallery=workload.kind == "gallery")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _timed_passes(order, seconds, one_pass):
    """Run ``one_pass`` on the cycled seeds until ``seconds`` have passed."""
    results, i = [], 0
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(one_pass(order[i % len(order)]))
        i += 1
    return results


def measure(workload, seed, seconds):
    from workloads import Runner, seed_order
    setups = setup_seconds(workload)
    runner = Runner(workload)
    order = seed_order(workload, seed)
    runner.run_pass(order[0])  # warm-up: lazy imports, first compiles
    passes = _timed_passes(order, seconds, runner.run_pass)
    per_item = [s for p in passes for s in p.seconds]
    rates = [p.checks / p.wall_s for p in passes if p.wall_s > 0]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "checks_per_s": _metric(statistics.median(rates) if rates else 0.0,
                                "1/s"),
        "verdict_s.p50": _metric(statistics.median(per_item)
                                 if per_item else 0.0, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"passes": [vars(p) for p in passes], "setup_s": setups,
             "verdict_s.n": len(per_item), "failed_share": runner.failed_share}
    if len(per_item) >= 10:
        p90 = statistics.quantiles(per_item, n=10)[-1]
        beyond = sum(1 for s in per_item if s > p90)
        extra["verdict_s.p90"] = p90 if beyond >= 10 else None
        extra["verdict_s.beyond_p90"] = beyond
    return runner, metrics, extra


def trace(workload, seed, seconds):
    from layers import COUNTERS, TARGETS, Tracer
    from workloads import Runner, seed_order
    runner = Runner(workload)
    order = seed_order(workload, seed)
    runner.run_pass(order[0])
    tracer = Tracer()

    def traced_pass(program_seed):
        tracer.install()
        try:
            return runner.run_pass(program_seed)
        finally:
            tracer.uninstall()

    pairs = itertools.count()

    def pair(program_seed):
        # alternate which side of the pair runs first
        if next(pairs) % 2:
            traced, plain = traced_pass(program_seed), runner.run_pass(
                program_seed)
        else:
            plain, traced = runner.run_pass(program_seed), traced_pass(
                program_seed)
        layers, counters, undetermined = tracer.take_pass()
        return {"seed": program_seed, "untraced_wall_s": plain.wall_s,
                "wall_s": traced.wall_s,
                "self_sum_s": sum(r[1] for r in layers.values()),
                "layers": layers, "counters": counters,
                "undetermined": undetermined}

    passes = _timed_passes(order, seconds, pair)
    med = statistics.median
    metrics = {}
    for name, _, _ in TARGETS:
        rows = [p["layers"].get(name, (0, 0.0)) for p in passes]
        metrics[f"{name}.calls"] = _metric(med(r[0] for r in rows), "count")
        metrics[f"{name}.self_s"] = _metric(med(r[1] for r in rows), "s")
    for name in COUNTERS:
        metrics[name] = _metric(med(p["counters"][name] for p in passes),
                                "count")
    metrics["trace.pass_wall_s"] = _metric(med(p["wall_s"] for p in passes),
                                           "s")
    metrics["trace.self_sum_s"] = _metric(
        med(p["self_sum_s"] for p in passes), "s")
    metrics["trace.overhead_s"] = _metric(
        med(p["wall_s"] - p["untraced_wall_s"] for p in passes), "s")
    return runner, metrics, passes


def _print_layers(metrics):
    wall = metrics["trace.pass_wall_s"]["value"]
    rows = sorted(((m[:-len(".self_s")], v["value"]) for m, v in
                   metrics.items() if m.endswith(".self_s")),
                  key=lambda r: -r[1])
    print(f"{'layer function':48s} {'calls':>9s} {'self_s':>9s} "
          f"{'of pass':>8s}")
    for name, self_s in rows:
        calls = metrics[f"{name}.calls"]["value"]
        print(f"{name:48s} {calls:9g} {self_s:9.4f} "
              f"{self_s / wall if wall else 0.0:8.1%}")
    for name, v in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"{name:48s} {v['value']:.6g} {v['unit']}")


def _write(name, env, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(dict(record, env=env), indent=1,
                               sort_keys=True))
    print(f"details written to {path.relative_to(ROOT)}")


def run_one(args):
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        runner, metrics, passes = trace(workload, args.seed, args.seconds)
        _print_layers(metrics)
        _write(f"trace-{workload.name}-seed{args.seed}.json", env,
               {"passes": passes})
    else:
        runner, metrics, extra = measure(workload, args.seed, args.seconds)
        for name, v in metrics.items():
            print(f"{name} {v['value']:.6g} {v['unit']}")
        p90 = extra.get("verdict_s.p90")
        print("verdict_s.p90 " + (f"{p90:.6g} s" if p90 is not None else
              "not reported (fewer than ten samples beyond it)")
              + f"  [n={extra['verdict_s.n']}, passes={len(extra['passes'])}]")
        print(f"failed_share {extra['failed_share']:.6g} share")
        _write(f"run-{workload.name}-seed{args.seed}.json", env, extra)
    for problem in runner.problems[:20]:
        print("FAILED " + problem)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; the last line maps each
    workload to its result."""
    from workloads import WORKLOADS
    results, code = {}, 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            code = done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "confolkit" / "__init__.py").is_file():
        print(f"bench: no confolkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import confolkit
    if Path(confolkit.__file__).resolve().parent != SRC / "confolkit":
        print(f"bench: confolkit imported from {confolkit.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
