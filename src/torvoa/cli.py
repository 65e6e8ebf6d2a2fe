"""Declarative run files, command dispatch, and machine-readable reports.

Run files are line oriented: ``[section]`` headers, ``key = value`` pairs,
``#`` comments to end of line, UTF-8, LF or CRLF.  Values are rationals
(optionally signed ``p`` or ``p/q``), quoted identifiers, booleans, or
bracketed lists (nested for matrices).  Unknown sections or keys are errors.

Report schema (JSON): top-level keys ``command``, ``params``, ``derived``,
``checks``, ``tables``; every dimension is emitted as a decimal string.
The process exit status is 0 exactly when every check passed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra_core import ConfigError, Params, jacobi_check, random_symbol
from .characters import (ResourceLimitError, compare, enumerate_weight_spaces,
                         product_formula_char)
from .finite_lie_data import (ValidationError, build_gl_module, build_module,
                              casimir_eigenvalue, simple_algebra)
from .lattice_fock import (HypLattice, _insert_osc, random_state,
                           vacuum_vector, voa_axiom_check)
from .linalg import vec_add, vec_eq
from .toroidal_realization import (RealizationModule, RELATION_IDS,
                                   default_identity_pairs,
                                   field_commutator_window_check, relation_check,
                                   top_action_check)
from .virasoro_affine import (CriticalLevelError, singular_vectors,
                              sugawara_constants, sugawara_mode)

Q = Fraction

COMMANDS = ("verify-jacobi", "verify-fields", "verify-voa", "verify-sugawara",
            "verify-realization", "singular", "char")

_KNOWN_KEYS = {
    "algebra": ("N", "g", "mu", "nu", "c"),
    "module": ("alpha", "V", "W", "h", "d", "V_matrices", "W_matrices"),
    "task": ("command", "depth", "window", "seed", "certify"),
}


class SpecFileError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)


@dataclass
class SpecFile:
    algebra: dict = field(default_factory=dict)
    module: dict = field(default_factory=dict)
    task: dict = field(default_factory=dict)

    def to_text(self):
        out = []
        for section in ("algebra", "module", "task"):
            data = getattr(self, section)
            if not data:
                continue
            out.append(f"[{section}]")
            for key in _KNOWN_KEYS[section]:
                if key in data:
                    out.append(f"{key} = {_print_value(data[key])}")
            out.append("")
        return "\n".join(out)


def _print_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_print_value(x) for x in v) + "]"
    return str(v)


def _parse_value(text, line, col=None):
    try:
        value, rest = _parse_value_inner(text.strip(), line)
    except SpecFileError as exc:
        if exc.col is None and col is not None:
            raise SpecFileError(str(exc).split(": ", 1)[-1], line, col)
        raise
    if rest.strip():
        raise SpecFileError(f"trailing characters {rest.strip()!r} after value",
                            line, col)
    return value


def _parse_value_inner(text, line):
    if not text:
        raise SpecFileError("empty value", line)
    if text[0] == '"':
        end = text.find('"', 1)
        if end < 0:
            raise SpecFileError("unterminated string", line)
        return text[1:end], text[end + 1:]
    if text[0] == "[":
        items = []
        rest = text[1:].lstrip()
        if rest.startswith("]"):
            return items, rest[1:]
        while True:
            value, rest = _parse_value_inner(rest, line)
            items.append(value)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:].lstrip()
                continue
            if rest.startswith("]"):
                return items, rest[1:]
            raise SpecFileError("expected ',' or ']' in list", line)
    for word, val in (("true", True), ("false", False)):
        if text.startswith(word):
            return val, text[len(word):]
    # rational token
    idx = 0
    if text[idx] in "+-":
        idx += 1
    start_digits = idx
    while idx < len(text) and text[idx].isdigit():
        idx += 1
    if idx == start_digits:
        raise SpecFileError(f"cannot parse value starting at {text!r}", line)
    if idx < len(text) and text[idx] == "/":
        idx += 1
        den_start = idx
        while idx < len(text) and text[idx].isdigit():
            idx += 1
        if idx == den_start:
            raise SpecFileError("missing denominator", line)
    token = text[:idx]
    try:
        value = Q(token)
    except ZeroDivisionError:
        raise SpecFileError(f"zero denominator in {token!r}", line)
    return value, text[idx:]


def parse_spec(text: str) -> SpecFile:
    spec = SpecFile()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFileError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                raise SpecFileError(f"unknown section {name!r}", lineno)
            section = name
            continue
        if "=" not in line:
            raise SpecFileError("expected 'key = value'", lineno)
        if section is None:
            raise SpecFileError("key outside of any section", lineno)
        key, value_text = line.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS[section]:
            raise SpecFileError(f"unknown key {key!r} in [{section}]", lineno)
        data = getattr(spec, section)
        if key in data:
            raise SpecFileError(f"duplicate key {key!r}", lineno)
        col = raw.index("=") + 2 + (len(value_text) - len(value_text.lstrip()))
        data[key] = _parse_value(value_text, lineno, col)
    validate_spec(spec)
    return spec


def validate_spec(spec: SpecFile):
    alg = spec.algebra
    for key in ("N", "g", "mu", "nu", "c"):
        if key not in alg:
            raise SpecFileError(f"[algebra] is missing {key!r}")
    N = alg["N"]
    if not isinstance(N, Q) or N.denominator != 1 or N < 1:
        raise SpecFileError("N must be a positive integer")
    if not isinstance(alg["g"], str):
        raise SpecFileError("g must be a quoted identifier")
    if alg["c"] == 0:
        raise SpecFileError(
            "c = 0 is rejected: bounded weight modules with a nonzero central "
            "action exist only for the character (c, 0, ..., 0) with c != 0")
    task = spec.task
    if "command" not in task:
        raise SpecFileError("[task] is missing 'command'")
    if task["command"] not in COMMANDS:
        raise SpecFileError(f"unknown command {task['command']!r}")
    for key in ("depth", "window", "seed"):
        if key in task:
            v = task[key]
            if not isinstance(v, Q) or v.denominator != 1 or v < 0:
                raise SpecFileError(f"{key} must be a nonnegative integer")
    if "certify" in task and not isinstance(task["certify"], bool):
        raise SpecFileError("certify must be true or false")
    mod = spec.module
    if "alpha" in mod:
        if not isinstance(mod["alpha"], list) or len(mod["alpha"]) != int(N):
            raise SpecFileError(f"alpha must be a list of {int(N)} rationals")
    for key in ("V", "W"):
        if key in mod and not isinstance(mod[key], str):
            raise SpecFileError(f"{key} must be a quoted identifier")


def _to_matrices(data):
    return [[[Q(x) for x in row] for row in mat] for mat in data]


def build_context(spec: SpecFile):
    """Params and the realization module described by the file."""
    alg = spec.algebra
    gd = simple_algebra(alg["g"])
    try:
        params = Params(N=int(alg["N"]), mu=alg["mu"], nu=alg["nu"],
                        c=alg["c"], g_dot=gd)
    except ConfigError as exc:
        raise SpecFileError(str(exc))
    mod = spec.module
    vkind = mod.get("V", "trivial")
    if vkind == "explicit":
        if "V_matrices" not in mod:
            raise SpecFileError("V = \"explicit\" needs V_matrices")
        V = build_module(gd, "explicit", mats=_to_matrices(mod["V_matrices"]))
    else:
        V = build_module(gd, vkind)
    h = mod.get("h")
    wkind = mod.get("W", "trivial")
    h_default = params.N * params.nu * params.c
    id_scalar = h if h is not None else h_default
    if wkind == "explicit":
        if params.N == 1:
            W = build_gl_module(1, "explicit", id_scalar=id_scalar)
        else:
            if "W_matrices" not in mod:
                raise SpecFileError("W = \"explicit\" needs W_matrices")
            W = build_gl_module(params.N, "explicit", id_scalar=id_scalar,
                                sl_mats=_to_matrices(mod["W_matrices"]))
    else:
        W = build_gl_module(params.N, wkind, id_scalar=id_scalar)
    alpha = mod.get("alpha")
    module = RealizationModule(params, alpha=alpha, V=V, W=W,
                               h=h, d=mod.get("d"))
    return params, module


def _fmt(x):
    return str(x)


def _derived_block(module):
    gamma = module.gamma0
    out = {
        "gamma0": {k: _fmt(v) for k, v in gamma.as_dict().items()},
        "h_hei": _fmt(module.h_hei),
        "h_vir": _fmt(module.h_vir),
    }
    try:
        omega_v = casimir_eigenvalue(module.params.g_dot, module.V)
        omega_w = Q(0)
        if module.params.N >= 2 and module.W.sl_module() is not None:
            sl = module.fd.sl
            omega_w = casimir_eigenvalue(sl, module.W.sl_module())
        c_prime, h_prime = sugawara_constants(
            module.fd, gamma, omega_v, omega_w, module.h_hei, module.h_vir)
        out["c_vir_prime"] = _fmt(c_prime)
        out["h_vir_prime"] = _fmt(h_prime)
    except (CriticalLevelError, ValidationError) as exc:
        out["c_vir_prime"] = None
        out["h_vir_prime"] = None
        out["critical"] = str(exc)
    return out


def _check(cid, ok, details):
    return {"id": cid, "status": "pass" if ok else "fail", "details": details}


def run(spec: SpecFile) -> dict:
    """Execute the file's command and return the report dictionary.

    Module-level failures (critical levels, validation, resource bounds) are
    recorded as failing checks; the report is still emitted.
    """
    params, module = build_context(spec)
    task = spec.task
    command = task["command"]
    depth = int(task.get("depth", 3))
    window = int(task.get("window", 3))
    seed = int(task.get("seed", 20240601))
    certify = bool(task.get("certify", False))

    report = {
        "command": command,
        "params": {
            "N": _fmt(params.N), "g": params.g_dot.name, "mu": _fmt(params.mu),
            "nu": _fmt(params.nu), "c": _fmt(params.c),
            "alpha": [_fmt(a) for a in module.alpha],
            "h": _fmt(module.h), "d": _fmt(module.d),
            "depth": _fmt(depth), "window": _fmt(window), "seed": _fmt(seed),
            "certify": certify,
        },
        "derived": _derived_block(module),
        "checks": [],
        "tables": {},
    }
    try:
        _dispatch(command, params, module, report,
                  depth=depth, window=window, seed=seed, certify=certify)
    except (CriticalLevelError, ValidationError, ResourceLimitError,
            ConfigError) as exc:
        report["checks"].append({"id": f"{command}:error", "status": "fail",
                                 "details": str(exc)})
    return report


def _dispatch(command, params, module, report, depth, window, seed, certify):
    rng = random.Random(seed)
    checks = report["checks"]

    if command == "verify-jacobi":
        from .algebra_core import bracket_symbols
        count = 500
        jmax = window  # the time-exponent sampling window, default 3
        good = 0
        anti_good = 0
        for _ in range(count):
            a = random_symbol(params, rng, jmax=jmax, rmax=2)
            b = random_symbol(params, rng, jmax=jmax, rmax=2)
            cc = random_symbol(params, rng, jmax=jmax, rmax=2)
            if jacobi_check(params, a, b, cc):
                good += 1
            if (bracket_symbols(params, a, b)
                    + bracket_symbols(params, b, a)).is_zero():
                anti_good += 1
        checks.append(_check("jacobi", good == count, f"{good}/{count}"))
        checks.append(_check("antisymmetry", anti_good == count,
                             f"{anti_good}/{count}"))

    elif command == "verify-fields":
        vectors = module.sample_vectors(1)
        for name in sorted({n for n, _a, _b in default_identity_pairs(params)}):
            checked, failures = field_commutator_window_check(
                module, window=window, rbound=1, vectors=vectors, names=[name])
            checks.append(_check(f"fields:{name}", not failures,
                                 f"{checked - len(failures)}/{checked}"))

    elif command == "verify-voa":
        lat = HypLattice(params.N)
        triples = []
        ones = vacuum_vector(lat)
        u1 = {(_insert_osc((), 0, -1), lat.zero()): Q(1)}
        v1 = {(_insert_osc((), params.N, -1), lat.zero()): Q(1)}
        eu2 = vacuum_vector(lat, m=(0,) * (params.N - 1) + (1,)) \
            if params.N >= 2 else vacuum_vector(lat, m=(1,))
        triples.append((ones, ones, u1))
        triples.append((u1, v1, eu2))
        for _ in range(50):
            triples.append((random_state(lat, rng, 3),
                            random_state(lat, rng, 3),
                            random_state(lat, rng, 3)))
        bad = 0
        total = 0
        for a, b, c3 in triples:
            failures = voa_axiom_check(lat, a, b, c3, window=min(window, 3),
                                       borcherds_window=2)
            total += 1
            if failures:
                bad += 1
        checks.append(_check("voa:axioms", bad == 0, f"{total - bad}/{total}"))

    elif command == "verify-sugawara":
        fmod = module.fmod
        vecs = [fmod.top_vector()]
        for mono in fmod.monomials_at(1):
            vecs.append({(mono, fmod.tops[0]): Q(1)})
        pool2 = fmod.monomials_at(2)
        pool3 = fmod.monomials_at(3)
        for pool in (pool2, pool3):
            for mono in rng.sample(pool, min(3, len(pool))):
                vecs.append({(mono, fmod.tops[0]): Q(1)})
        sw = min(window, 2)
        gamma = module.gamma0
        omega_v = casimir_eigenvalue(params.g_dot, module.V)
        omega_w = Q(0)
        if params.N >= 2 and module.W.sl_module() is not None:
            omega_w = casimir_eigenvalue(module.fd.sl, module.W.sl_module())
        c_prime, h_prime = sugawara_constants(module.fd, gamma, omega_v,
                                              omega_w, module.h_hei, module.h_vir)
        vir_ok = True
        for n in range(-sw, sw + 1):
            for m in range(-sw, sw + 1):
                for v in vecs:
                    lhs = vec_add(
                        sugawara_mode(fmod, n, sugawara_mode(fmod, m, v)),
                        sugawara_mode(fmod, m, sugawara_mode(fmod, n, v)), Q(-1))
                    want = {}
                    if n != m:
                        want = vec_add(want, sugawara_mode(fmod, n + m, v),
                                       Q(n - m))
                    if n == -m and n != 0:
                        want = vec_add(want, v, Q(n ** 3 - n, 12) * c_prime)
                    if not vec_eq(lhs, want):
                        vir_ok = False
        checks.append(_check("sugawara:virasoro", vir_ok,
                             f"window {sw}, {len(vecs)} vectors"))
        com_ok = True
        for idx in range(module.fd.dim):
            for n in range(-sw, sw + 1):
                for m in range(-sw, sw + 1):
                    for v in vecs[:4]:
                        lhs = sugawara_mode(fmod, n, fmod.act(("f", idx, m), v))
                        rhs = fmod.act(("f", idx, m), sugawara_mode(fmod, n, v))
                        if not vec_eq(lhs, rhs):
                            com_ok = False
        checks.append(_check("sugawara:commutes", com_ok,
                             f"window {sw}, currents {module.fd.dim}"))
        top = fmod.top_vector()
        got = sugawara_mode(fmod, 0, top)
        checks.append(_check(
            "sugawara:weight", vec_eq(got, {k: h_prime * v for k, v in top.items()}
                                      if h_prime else {}),
            f"h_vir_prime = {h_prime}"))

    elif command == "verify-realization":
        pair_count = 200
        good = 0
        for _ in range(pair_count):
            a = random_symbol(params, rng, jmax=2, rmax=1, tags=("g", "k", "d", "dt"))
            b = random_symbol(params, rng, jmax=2, rmax=1, tags=("g", "k", "d", "dt"))
            v = module.random_vector(rng, max_depth=2)
            if module.verify_commutator(a, b, v):
                good += 1
        checks.append(_check("realization:commutators", good == pair_count,
                             f"{good}/{pair_count}"))
        checked, failures = top_action_check(module, window=min(window, 2))
        checks.append(_check("realization:top-action", not failures,
                             f"{checked - len(failures)}/{checked}"))
        if module.is_standard_top():
            for rid in RELATION_IDS:
                checked, failures = relation_check(module, rid, window=1)
                checks.append(_check(f"realization:{rid}", not failures,
                                     f"{checked - len(failures)}/{checked}"))
        else:
            checks.append({"id": "realization:relations", "status": "skipped",
                           "details": "relation checks need the standard top"})

    elif command == "singular":
        dims = {}
        for dd in range(1, depth + 1):
            found = singular_vectors(module.fmod, dd)
            dims[str(dd)] = str(len(found))
        report["tables"]["singular_dimensions"] = dims
        checks.append(_check("singular:search", True,
                             f"depths 1..{depth} searched"))

    elif command == "char":
        table = enumerate_weight_spaces(module, depth)
        prod, certified, singular_dims = product_formula_char(
            module, depth, certify=certify)
        mism = compare(table, prod)
        per_depth = table.per_depth()
        report["tables"]["enumerated"] = {
            str(n): str(per_depth[n]) for n in range(depth + 1)}
        report["tables"]["product_formula"] = {
            str(n): str(prod.per_depth()[n]) for n in range(depth + 1)}
        checks.append(_check("char:match", not mism,
                             f"{len(mism)} mismatches"))
        checks.append(_check("char:m-independent", table.m_independent(),
                             "collapsed over lattice weights"))
        if certify:
            report["tables"]["singular_dimensions"] = {
                str(k): str(v) for k, v in singular_dims.items()}
            checks.append(_check("char:certified", bool(certified),
                                 "no singular vectors up to the table depth"
                                 if certified else "uncertified: singular vectors found"))


def report_passed(report) -> bool:
    return all(ch["status"] in ("pass", "skipped") for ch in report["checks"])


def render_report(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torvoa",
        description="exact verification and character tables for toroidal "
                    "current-algebra realizations")
    parser.add_argument("specfile", help="path to the run file")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the report to this path")
    args = parser.parse_args(argv)
    try:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_spec(text)
        for key, val in (("depth", args.depth), ("window", args.window),
                         ("seed", args.seed)):
            if val is not None:
                spec.task[key] = Q(val)
        report = run(spec)
    except (SpecFileError, ConfigError, ValidationError, CriticalLevelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    text = render_report(report)
    sys.stdout.write(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
