"""Benchmark command for torvoa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One workload runs in this single-threaded
process.  Each round imports torvoa afresh from ``src/``, builds the modules
from the workload's run files (``setup_s``), sweeps the fresh modules once
(``cold_s``) and sweeps the same objects again (``warm_s``).  Rounds repeat
until the next one would end after ``--seconds``; every figure is the median
over rounds (set-up is also repeated five times before the first round).  With ``--trace 1`` untraced and traced rounds alternate, and
the per-layer figures come from the traced ones.  The last line of standard
output is the JSON result; the same result, with every sample, is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import FAILED, WORKLOADS, Ops  # noqa: E402

# a run's figures are medians over at least this many rounds; set-up,
# which is short, is also repeated on its own before the first round
MIN_ROUNDS = 2
SETUP_REPEATS = 5

# per-layer metric -> unit; every traced run reports all of them (zero when
# the workload does not reach the layer)
LAYER_UNITS = {
    "toroidal_realization.g_act.calls": "count",
    "toroidal_realization.g_act.self_s": "s",
    "toroidal_realization.cache.entries": "count",
    "toroidal_realization.cache.hit_ratio": "ratio",
    "lattice_fock.exp_term.calls": "count",
    "lattice_fock.exp_term.self_s": "s",
    "lattice_fock.oscillator.self_s": "s",
    "lattice_fock.state_mode.calls": "count",
    "lattice_fock.state_mode.self_s": "s",
    "lattice_fock.cache.entries": "count",
    "lattice_fock.cache.hit_ratio": "ratio",
    "virasoro_affine.sugawara_mode.calls": "count",
    "virasoro_affine.sugawara_mode.self_s": "s",
    "virasoro_affine.apply_sym.calls": "count",
    "virasoro_affine.apply_sym.self_s": "s",
    "virasoro_affine.singular_vectors.self_s": "s",
    "virasoro_affine.cache.entries": "count",
    "virasoro_affine.cache.hit_ratio": "ratio",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_s": "s",
    "linalg.nullspace.cells": "count",
    "linalg.nullspace.nonzeros": "count",
    "linalg.invert.calls": "count",
    "linalg.invert.self_s": "s",
    "finite_lie_data.quadratic_pairs.calls": "count",
    "finite_lie_data.quadratic_pairs.self_s": "s",
    "algebra_core.bracket.calls": "count",
    "algebra_core.bracket.self_s": "s",
    "characters.self_s": "s",
    "cli.build_context.self_s": "s",
    "python.gc.collections": "count",
    "python.gc.pause_s": "s",
    "trace.overhead_s": "s",
}


def fresh_torvoa():
    """Import torvoa from the checkout's src/, dropping any earlier import so
    that module state and memo tables start empty."""
    for name in [n for n in sys.modules
                 if n == "torvoa" or n.startswith("torvoa.")]:
        del sys.modules[name]
    tv = importlib.import_module("torvoa")
    if os.path.dirname(os.path.dirname(os.path.abspath(tv.__file__))) != SRC:
        raise ImportError(f"torvoa imported from {tv.__file__}, not {SRC}")
    return tv


def set_up(run_paths, tracer=None):
    """Import torvoa afresh and build the modules from the run files;
    returns the package, the modules and the seconds this took."""
    gc.collect()
    t0 = time.perf_counter()
    tv = fresh_torvoa()
    if tracer is not None:
        tracer.install(tv)
    modules = []
    for path in run_paths:
        with open(path, encoding="utf-8") as fh:
            spec = tv.cli.parse_spec(fh.read())
        modules.append(tv.cli.build_context(spec)[1])
    return tv, modules, time.perf_counter() - t0


def one_round(workload, run_paths, inputs, tracer=None):
    """Set up, sweep cold, sweep warm; returns the round's record."""
    tv, modules, setup = set_up(run_paths, tracer)
    prepared = workload.prepare(tv, modules, inputs)
    sweeps = []
    for _ in range(1 + workload.WARM_REPEATS):
        gc.collect()
        ops = Ops()
        t0 = time.perf_counter()
        workload.sweep(tv, modules, prepared, ops)
        sweeps.append((time.perf_counter() - t0, ops))
    cold = sweeps[0][1].results
    problems = workload.check(cold)
    if any(ops.results != cold for _t, ops in sweeps[1:]):
        problems.append("warm sweep results differ from the cold sweep")
    record = {"setup_s": setup, "cold_s": sweeps[0][0],
              "warm_s": [t for t, _ops in sweeps[1:]],
              "attempted": sum(len(ops.results) for _t, ops in sweeps),
              "failed": sum(res == FAILED for _t, ops in sweeps
                            for _label, res in ops.results),
              "problems": problems}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = layer_figures(tracer, modules)
    return record


def layer_figures(tracer, modules):
    s = tracer.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    def hit_ratio(entries, lookups):
        return 1 - entries / lookups if lookups else 0.0

    memo = tracing.memo_entries(modules)
    lf_lookups = (calls("lattice_fock.exp_term")
                  + calls("lattice_fock.term_apply"))
    return {
        "toroidal_realization.g_act.calls": calls(
            "toroidal_realization.g_act"),
        "toroidal_realization.g_act.self_s": self_s(
            "toroidal_realization.g_act", "toroidal_realization.term_ordered"),
        "toroidal_realization.cache.entries": memo["toroidal_realization"],
        "toroidal_realization.cache.hit_ratio": hit_ratio(
            memo["toroidal_realization"],
            calls("toroidal_realization.term_ordered")),
        "lattice_fock.exp_term.calls": calls("lattice_fock.exp_term"),
        "lattice_fock.exp_term.self_s": self_s("lattice_fock.exp_term"),
        "lattice_fock.oscillator.self_s": self_s("lattice_fock.oscillator"),
        "lattice_fock.state_mode.calls": calls("lattice_fock.state_mode"),
        "lattice_fock.state_mode.self_s": self_s(
            "lattice_fock.state_mode", "lattice_fock.term_apply"),
        "lattice_fock.cache.entries": memo["lattice_fock"],
        "lattice_fock.cache.hit_ratio": hit_ratio(memo["lattice_fock"],
                                                  lf_lookups),
        "virasoro_affine.sugawara_mode.calls": calls(
            "virasoro_affine.sugawara_mode"),
        "virasoro_affine.sugawara_mode.self_s": self_s(
            "virasoro_affine.sugawara_mode"),
        "virasoro_affine.apply_sym.calls": calls("virasoro_affine.apply_sym"),
        "virasoro_affine.apply_sym.self_s": self_s(
            "virasoro_affine.apply_sym"),
        "virasoro_affine.singular_vectors.self_s": self_s(
            "virasoro_affine.singular_vectors"),
        "virasoro_affine.cache.entries": memo["virasoro_affine"],
        "virasoro_affine.cache.hit_ratio": hit_ratio(
            memo["virasoro_affine"], tracer.apply_sym_lookups),
        "linalg.nullspace.calls": calls("linalg.nullspace"),
        "linalg.nullspace.self_s": self_s("linalg.nullspace"),
        "linalg.nullspace.cells": tracer.nullspace_cells,
        "linalg.nullspace.nonzeros": tracer.nullspace_nonzeros,
        "linalg.invert.calls": calls("linalg.invert"),
        "linalg.invert.self_s": self_s("linalg.invert"),
        "finite_lie_data.quadratic_pairs.calls": calls(
            "finite_lie_data.quadratic_pairs"),
        "finite_lie_data.quadratic_pairs.self_s": self_s(
            "finite_lie_data.quadratic_pairs"),
        "algebra_core.bracket.calls": calls("algebra_core.bracket"),
        "algebra_core.bracket.self_s": self_s("algebra_core.bracket"),
        "characters.self_s": self_s("characters"),
        "cli.build_context.self_s": self_s("cli.build_context"),
        "python.gc.collections": tracer.gc_collections,
        "python.gc.pause_s": tracer.gc_pause_s,
    }


def write_run_files(workload, seed):
    """Write the workload's run files to perfbench/out/; returns the paths."""
    os.makedirs(OUT, exist_ok=True)
    paths = []
    for k, text in enumerate(workload.run_files(seed)):
        path = os.path.join(OUT, f"{workload.name}-{seed}-{k}.torvoa")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def run(workload, seed, seconds, trace):
    run_paths = write_run_files(workload, seed)
    inputs = workload.inputs(seed)

    setups = [set_up(run_paths)[2] for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    rounds = []
    last_tracer = None
    while True:
        # with --trace 1, odd rounds are traced
        tracer = tracing.Tracer() if trace and len(rounds) % 2 else None
        rounds.append(one_round(workload, run_paths, inputs, tracer))
        last_tracer = tracer or last_tracer
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and \
                elapsed + elapsed / len(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    problems = sorted({p for r in rounds for p in r["problems"]})
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(r["cold_s"] for r in traced)
            - statistics.median(r["cold_s"] for r in plain))
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in LAYER_UNITS.items()}
        last_tracer.write(os.path.join(
            OUT, f"trace-{workload.name}-{seed}.json"))
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(
                setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "cold_s": {"value": statistics.median(
                r["cold_s"] for r in plain), "unit": "s"},
            "warm_s": {"value": statistics.median(
                w for r in plain for w in r["warm_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    with open(os.path.join(OUT, f"result-{workload.name}-{seed}-"
                                f"trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": problems, "setup_s": setups,
                   "rounds": [{k: v for k, v in r.items() if k != "problems"}
                              for r in rounds]}, fh, indent=1)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "torvoa")):
        print(f"error: no torvoa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
