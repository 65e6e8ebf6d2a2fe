"""Tests of the benchmark itself: the derived values, the checks, the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload check must pass on the program's real results and fail when
one of those results is corrupted.  The sweeps run at reduced sizes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# -- values derived in oracles ------------------------------------------------

def test_central_charges():
    assert oracles.sugawara_c_prime(2) == Q(75, 14)
    assert oracles.sugawara_c_prime(1) == Q(13, 2)
    assert oracles.central_character(1)["c_hei"] == Q(-1, 15)


def test_colored_partitions_by_enumeration():
    # multisets of (part, color) with parts summing to n, listed explicitly
    def brute(n, colors):
        parts = [(size, col) for size in range(1, n + 1)
                 for col in range(colors)]
        count = 1 if n == 0 else 0
        for k in range(1, n + 1):
            for combo in combinations_with_replacement(parts, k):
                count += sum(size for size, _ in combo) == n
        return count
    assert oracles.character_colors(1) == 7
    assert [oracles.colored_partitions(n, 7) for n in range(5)] == \
        [1, 7, 35, 140, 490]
    assert [brute(n, 7) for n in range(4)] == [1, 7, 35, 140]


def test_singular_dimensions():
    assert oracles.kac_vanishing_levels(Q(13, 2), Q(0), 4) == [1]
    assert oracles.affine_sl2_vacuum_singular(Q(2), 4) == {0: 1, 3: 7}
    assert oracles.affine_sl2_vacuum_singular(Q(5, 2), 4) == {0: 1}
    assert oracles.singular_dims_n1(4) == {1: 1, 2: 0, 3: 7, 4: 7}
    assert oracles.singular_dims_n1(4, reduced=True) == \
        {1: 0, 2: 0, 3: 7, 4: 0}
    # c = 1 is a rational-square case the derivation does not cover
    with pytest.raises(NotImplementedError):
        oracles.kac_vanishing_levels(Q(1), Q(0), 4)


def test_lattice_signs():
    u, v = (1, 0), (0, 1)
    assert (oracles.epsilon(1, u, v), oracles.epsilon(1, v, u)) == (1, -1)
    assert oracles.form(1, u, v) == 1 and oracles.form(1, u, u) == 0


# -- the checks on real and corrupted results ---------------------------------

def _sweep(workload, seed=3):
    tv, modules, _setup = run.set_up(run.write_run_files(workload, seed))
    ops = workloads.Ops()
    workload.sweep(tv, modules,
                   workload.prepare(tv, modules, workload.inputs(seed)), ops)
    return ops.results


def _replace(results, kind, fn):
    """Copy of results with the first result of the given kind replaced."""
    out = copy.deepcopy(results)
    for i, (label, res) in enumerate(out):
        if label[0] == kind:
            out[i] = (label, fn(res))
            return out
    raise AssertionError(f"no {kind} result")


def _small(cls, **sizes):
    workload = cls()
    for key, val in sizes.items():
        setattr(workload, key, val)
    return workload


@pytest.fixture(scope="module")
def singular():
    workload = _small(workloads.Singular, DEPTH=3)
    return workload, _sweep(workload)


def test_singular_check(singular):
    workload, results = singular
    assert not workload.check(results)

    def dim_off(res):
        table, cert, dims = res
        return table, cert, {**dims, 3: dims[3] + 1}
    assert workload.check(_replace(results, "product", dim_off))

    def char_off(res):
        table, cert, dims = res
        return table[:-1] + [table[-1] + 1], cert, dims
    assert workload.check(_replace(results, "product", char_off))
    assert workload.check(_replace(results, "enumerated",
                                   lambda t: t[:2] + [t[2] - 1] + t[3:]))
    dropped = copy.deepcopy(results)
    dropped = [(label, res[1:] if label == ("reduced", 3) else res)
               for label, res in dropped]
    assert workload.check(dropped)


def test_voa_check():
    workload = _small(workloads.Voa, TRIPLES=2)
    results = _sweep(workload)
    assert not workload.check(results)

    def flip(res):
        (first, *zeros), exy = res
        return [{k: -v for k, v in first.items()}] + zeros, exy
    assert workload.check(_replace(results, "product", flip))
    assert workload.check(_replace(results, "epsilon", lambda r: (r[1], r[0])))
    assert workload.check(_replace(
        results, "pairing", lambda r: ({k: 2 * v for k, v in r[0].items()},
                                       r[1])))
    assert workload.check(_replace(results, "axioms",
                                   lambda r: [("commutator", 0, 0)]))


def test_sugawara_check():
    workload = _small(workloads.Sugawara, WINDOW=1, COMMUTE_VECTORS=1)
    results = _sweep(workload)
    assert not workload.check(results)
    wrong = oracles.sugawara_c_prime(2) + 1
    assert workload.check(results, c_prime=wrong)
    assert workload.check(_replace(results, "constants",
                                   lambda r: (r[0] + 1, r[1])))


def test_realization_check():
    workload = _small(workloads.Realization, PAIRS_PER_TOP=3, CLOSED_FORMS=4)
    results = _sweep(workload)
    assert not workload.check(results)

    def extra_term(res):
        br, ab, ba = res
        key = next(iter(ab), "extra")
        return br, {**ab, key: ab.get(key, 0) + 1}, ba
    assert workload.check(_replace(results, "pair", extra_term))
    assert workload.check(_replace(
        results, "closed", lambda r: ({k: 2 * v for k, v in r[0].items()},
                                      r[1])))


def test_warm_differing_from_cold_is_reported():
    class Drifting:
        name, WARM_REPEATS = "drifting", 1
        calls = 0

        def prepare(self, tv, modules, inputs):
            return None

        def sweep(self, tv, modules, prepared, out):
            Drifting.calls += 1
            out.attempt(("op",), lambda: Drifting.calls)
            out.attempt(("raises",), lambda: 1 / 0)

        def check(self, results):
            return []
    record = run.one_round(Drifting(), [], None)
    assert record["problems"] == \
        ["warm sweep results differ from the cold sweep"]
    assert (record["attempted"], record["failed"]) == (4, 2)


# -- tracer -------------------------------------------------------------------

def test_self_time_excludes_children():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tr._wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()
    tr._wrap(outer, "outer")()
    summary = tr.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert list(tr.span_parent) == [-1, 0, 0]
    assert summary["outer"]["self_s"] >= 0.01
    assert summary["inner"]["self_s"] >= 0.04
    # self times partition the root span
    root = tr.span_end[0] - tr.span_start[0]
    total = summary["outer"]["self_s"] + summary["inner"]["self_s"]
    assert abs(total - root) < 1e-9


def test_traced_round_counts_layers():
    workload = _small(workloads.Voa, TRIPLES=1, PRODUCTS=2, WARM_REPEATS=1)
    tr = tracing.Tracer()
    record = run.one_round(workload, run.write_run_files(workload, 1),
                           workload.inputs(1), tr)
    layers = record["layers"]
    assert not record["problems"]
    assert layers["lattice_fock.state_mode.calls"] > 0
    assert layers["lattice_fock.cache.entries"] > 0
    assert 0 < layers["lattice_fock.cache.hit_ratio"] < 1
    assert layers["linalg.nullspace.calls"] == 0
    # wrappers are removed after the round
    assert not hasattr(run.fresh_torvoa().lattice_fock.state_mode,
                       "__wrapped__")


# -- the command --------------------------------------------------------------

def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == \
        set(run.LAYER_UNITS.items())
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["setup_s", "cold_s", "warm_s", "peak_rss_mb"]


def test_result_line_and_missing_sources(tmp_path):
    root = os.path.dirname(HERE)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "voa", "--seed",
           "2", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "cold_s", "warm_s",
                                      "peak_rss_mb"}

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert bare.returncode != 0
    assert bare.stdout.strip() == ""
