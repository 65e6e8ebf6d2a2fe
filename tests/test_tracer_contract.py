"""perfbench/tracer.py wraps torvoa's layer entry points by module and
attribute name.  A rename or a direct import that breaks the traced
benchmark run (``perfbench/run.py --trace 1``) fails here, on the
realization path, on the vertex-algebra check's own path and on the M_f
layer's (``sugawara_mode`` and ``singular_vectors``)."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import torvoa
from torvoa.algebra_core import g_sym, k_sym
from torvoa.lattice_fock import heis_act_gen, vacuum_vector, voa_axiom_check

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _owner(modname, owner_name):
    module = getattr(torvoa, modname)
    return getattr(module, owner_name) if owner_name else module


def test_install_traces_the_engine_and_uninstall_restores(params_n1):
    tracer_mod = _load_tracer()
    originals = [(_owner(m, o), attr, _owner(m, o).__dict__[attr])
                 for m, o, attr, _name in tracer_mod.ENTRY_POINTS]
    tracer = tracer_mod.Tracer()
    tracer.install(torvoa)
    try:
        module = torvoa.RealizationModule(params_n1)
        for idx in (0, 1):
            module.g_act_symbol(k_sym(params_n1, -1, (1,), idx),
                                module.top_vector())
        # Fock-only chains are memoized by the lattice alone, so the k
        # actions leave _term_cache empty; a current fills it
        assert not module._term_cache
        module.g_act_symbol(g_sym(params_n1, -1, (1,), 0),
                            module.top_vector())
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    memo = tracer_mod.memo_entries([module])
    # every memo entry comes from a traced lookup, so the hit ratios the
    # benchmark reports (1 - entries / lookups) stay in [0, 1]; a direct
    # import of the lattice engine would bypass its wrapper
    assert 0 < memo["toroidal_realization"] \
        <= calls["toroidal_realization.term_ordered"]
    assert 0 < memo["lattice_fock"] <= calls["lattice_fock.term_apply"] \
        + calls["lattice_fock.exp_term"]
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_traced_voa_check_counts_every_engine_lookup(params_n1):
    # the int core of the field and state modes must reach the lattice
    # engine through its module attribute, so the traced voa run counts
    # every memo lookup and its lattice_fock.cache.hit_ratio stays in [0, 1]
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install(torvoa)
    try:
        module = torvoa.RealizationModule(params_n1)
        lat = module.lat
        v1 = heis_act_gen(lat, 1, -1, vacuum_vector(lat))
        assert voa_axiom_check(lat, vacuum_vector(lat, beta=(1,)),
                               vacuum_vector(lat, m=(1,)), v1, window=1,
                               borcherds_window=1) == []
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    memo = tracer_mod.memo_entries([module])
    assert calls["lattice_fock.term_apply"] > 0
    assert 0 < memo["lattice_fock"] <= calls["lattice_fock.term_apply"] \
        + calls["lattice_fock.exp_term"]


def test_traced_sugawara_counts_every_apply_sym_lookup(params_n1):
    # apply_sym is the M_f layer's int core under its own name and recurses
    # through self.apply_sym, so the traced sugawara and singular runs count
    # every memo lookup and virasoro_affine.cache.hit_ratio stays in [0, 1]
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install(torvoa)
    try:
        va = torvoa.virasoro_affine
        module = torvoa.RealizationModule(params_n1)
        fmod = module.fmod
        for mono in [()] + fmod.monomials_at(2):
            va.sugawara_mode(fmod, 1, {(mono, fmod.tops[0]): Fraction(1)})
        va.singular_vectors(module.vacuum_companion().fmod, 3)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    memo = tracer_mod.memo_entries([module])
    assert calls["virasoro_affine.sugawara_mode"] > 0
    assert calls["virasoro_affine.singular_vectors"] > 0
    assert 0 < memo["virasoro_affine"] <= tracer.apply_sym_lookups
