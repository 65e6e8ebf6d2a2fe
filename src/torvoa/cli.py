"""Declarative run files, command dispatch, and machine-readable reports.

Run files are line oriented: ``[section]`` headers, ``key = value`` pairs,
``#`` comments to end of line, UTF-8, LF or CRLF.  Values are rationals
(optionally signed ``p`` or ``p/q``), quoted identifiers, booleans, or
bracketed lists (nested for matrices).  Unknown sections or keys are errors.

Every key has one kind in ``_KNOWN_KEYS``; ``validate_spec`` checks each
value against it.  Each command is one function in ``COMMANDS`` that returns
its checks and tables; a failing count check names its first witness.

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
from typing import NamedTuple

from .algebra_core import ConfigError, Params, jacobi_sweep
from .characters import (ResourceLimitError, compare, enumerate_weight_spaces,
                         product_formula_char)
from .finite_lie_data import (ValidationError, build_gl_module, build_module,
                              simple_algebra)
from .lattice_fock import heis_act_gen, random_triples, vacuum_vector, voa_sweep
from .linalg import echelon, tally, vec_scale
from .toroidal_realization import (RealizationModule, RELATION_IDS,
                                   default_identity_pairs,
                                   field_commutator_window_check, relation_check,
                                   top_action_check)
from .virasoro_affine import (CriticalLevelError, raising_symbols,
                              singular_vectors, sugawara_mode, sugawara_sweep,
                              sugawara_test_vectors)

Q = Fraction

# every key has one kind; validate_spec checks each value against it
_KNOWN_KEYS = {
    "algebra": {"N": "count", "g": "identifier", "mu": "rational",
                "nu": "rational", "c": "rational"},
    "module": {"alpha": "rationals", "V": "identifier", "W": "identifier",
               "h": "rational", "d": "rational", "V_matrices": "matrices",
               "W_matrices": "matrices"},
    "task": {"command": "identifier", "depth": "count", "window": "count",
             "seed": "count", "certify": "bool"},
}


def _is_matrices(v):
    """A list of nonempty square matrices of rationals, all of one size."""
    if not isinstance(v, list) or not all(isinstance(m, list) and m for m in v):
        return False
    n = len(v[0]) if v else 0
    return all(len(m) == n and all(
        isinstance(row, list) and len(row) == n
        and all(isinstance(x, Q) for x in row) for row in m) for m in v)


_KINDS = {
    "rational": (lambda v: isinstance(v, Q), "a rational"),
    "identifier": (lambda v: isinstance(v, str), "a quoted identifier"),
    "count": (lambda v: isinstance(v, Q) and v.denominator == 1 and v >= 0,
              "a nonnegative integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "rationals": (lambda v: isinstance(v, list)
                  and all(isinstance(x, Q) for x in v), "a list of rationals"),
    "matrices": (_is_matrices, "a list of square matrices of one size"),
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
    for key in _KNOWN_KEYS["algebra"]:
        if key not in alg:
            raise SpecFileError(f"[algebra] is missing {key!r}")
    if "command" not in spec.task:
        raise SpecFileError("[task] is missing 'command'")
    for section, kinds in _KNOWN_KEYS.items():
        for key, value in getattr(spec, section).items():
            accepts, what = _KINDS[kinds[key]]
            if not accepts(value):
                raise SpecFileError(f"{key} must be {what}")
    N = alg["N"]
    if N < 1:
        raise SpecFileError("N must be a positive integer")
    if alg["c"] == 0:
        raise SpecFileError(
            "c = 0 is rejected: bounded weight modules with a nonzero central "
            "action exist only for the character (c, 0, ..., 0) with c != 0")
    if spec.task["command"] not in COMMANDS:
        raise SpecFileError(f"unknown command {spec.task['command']!r}")
    if "alpha" in spec.module and len(spec.module["alpha"]) != N:
        raise SpecFileError(f"alpha must be a list of {N} rationals")


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
    if mod.get("V") == "explicit" and "V_matrices" not in mod:
        raise SpecFileError('V = "explicit" needs V_matrices')
    if mod.get("W") == "explicit" and params.N >= 2 and "W_matrices" not in mod:
        raise SpecFileError('W = "explicit" needs W_matrices')
    V = build_module(gd, mod.get("V", "trivial"), mats=mod.get("V_matrices"))
    h = mod.get("h")
    W = build_gl_module(params.N, mod.get("W", "trivial"),
                        id_scalar=h if h is not None
                        else params.N * params.nu * params.c,
                        sl_mats=mod.get("W_matrices"))
    module = RealizationModule(params, alpha=mod.get("alpha"), V=V, W=W,
                               d=mod.get("d"))
    return params, module


def _derived_block(module):
    gamma = module.gamma0
    out = {
        "gamma0": {k: str(v) for k, v in gamma.as_dict().items()},
        "h_hei": str(module.h_hei),
        "h_vir": str(module.h_vir),
    }
    try:
        c_prime, h_prime = module.sugawara_constants()
        out["c_vir_prime"] = str(c_prime)
        out["h_vir_prime"] = str(h_prime)
    except (CriticalLevelError, ValidationError) as exc:
        out["c_vir_prime"] = None
        out["h_vir_prime"] = None
        out["critical"] = str(exc)
    return out


def _check(cid, ok, details):
    return {"id": cid, "status": "pass" if ok else "fail", "details": details}


_WITNESS_CHARS = 300  # a failing count check's first witness, cut to this


def _count_check(cid, checked, failures):
    details = f"{checked - len(failures)}/{checked}"
    if failures:
        label, data = failures[0]
        details += f"; first failure {label}: {data!r}"[:_WITNESS_CHARS]
    return _check(cid, not failures, details)


class Task(NamedTuple):
    depth: int
    window: int
    certify: bool


# ---------------------------------------------------------------------------
# one sweep per command: (module, rng, task) -> (checks, tables)
# ---------------------------------------------------------------------------

def verify_jacobi(module, rng, task):
    # the time exponents are drawn from the window
    jacobi, anti = jacobi_sweep(module.params, rng, 500, task.window, 2)
    return [_count_check("jacobi", *jacobi),
            _count_check("antisymmetry", *anti)], {}


def verify_fields(module, rng, task):
    names = sorted({n for n, _a, _b in default_identity_pairs(module.params)})
    return [_count_check(f"fields:{name}", *field_commutator_window_check(
        module, window=task.window, names=[name]))
        for name in names], {}


def verify_voa(module, rng, task):
    N = module.params.N
    lat = module.lat
    ones = vacuum_vector(lat)
    u1 = heis_act_gen(lat, 0, -1, ones)
    v1 = heis_act_gen(lat, N, -1, ones)
    last = (0,) * (N - 1) + (1,)
    eu, ev = vacuum_vector(lat, m=last), vacuum_vector(lat, beta=last)
    # the first fixed triple applies an exponential with y != 0
    triples = [(ev, eu, v1), (u1, v1, eu)] + random_triples(lat, rng, 50, 3)
    return [_count_check("voa:axioms", *voa_sweep(
        lat, triples, min(task.window, 3), 2))], {}


def verify_sugawara(module, rng, task):
    fmod = module.fmod
    vecs = sugawara_test_vectors(fmod, rng, 3)
    sw = min(task.window, 2)
    c_prime, h_prime = module.sugawara_constants()
    virasoro, commutes = sugawara_sweep(fmod, c_prime, sw, vecs, 4)
    top = fmod.top_vector()
    weight = tally([("weight", sugawara_mode(fmod, 0, top),
                     vec_scale(top, h_prime), h_prime)])
    return [_count_check("sugawara:virasoro", *virasoro),
            _count_check("sugawara:commutes", *commutes),
            _count_check("sugawara:weight", *weight)], {}


def verify_realization(module, rng, task):
    checks = [
        _count_check("realization:commutators",
                     *module.commutator_sweep(rng, 200, 2, 1, 2)),
        _count_check("realization:top-action",
                     *top_action_check(module, window=min(task.window, 2)))]
    if module.is_standard_top():
        checks += [_count_check(f"realization:{rid}",
                                *relation_check(module, rid))
                   for rid in RELATION_IDS]
    else:
        checks.append({"id": "realization:relations", "status": "skipped",
                       "details": "relation checks need the standard top"})
    return checks, {}


def _unsingular(fmod, dd, vecs):
    """How the search's witnesses at depth ``dd`` fail to be independent
    singular vectors, or None.  Each raising mode is applied through
    ``act``, not through the search's own rows and nullspace."""
    for i, vec in enumerate(vecs):
        if not vec:
            return f"depth {dd} witness {i} is zero"
    cols = {}
    rank = len(echelon([{cols.setdefault(k, len(cols)): cf
                         for k, cf in vec.items()} for vec in vecs]))
    if rank != len(vecs):
        return f"depth {dd}: {len(vecs)} witnesses of rank {rank}"
    for i, vec in enumerate(vecs):
        for rsym in raising_symbols(fmod.fd):
            if fmod.act(rsym, vec):
                return f"depth {dd} witness {i} is not killed by {rsym}"
    return None


def singular(module, rng, task):
    dims, fault = {}, None
    for dd in range(1, task.depth + 1):
        vecs = singular_vectors(module.fmod, dd)
        dims[str(dd)] = str(len(vecs))
        fault = fault or _unsingular(module.fmod, dd, vecs)
    return ([_check("singular:search", not fault,
                    fault or f"depths 1..{task.depth} searched")],
            {"singular_dimensions": dims})


def char(module, rng, task):
    table = enumerate_weight_spaces(module, task.depth)
    prod, certified, singular_dims = product_formula_char(
        module, task.depth, certify=task.certify)
    mism = compare(table, prod)
    tables = {name: {str(n): str(dim) for n, dim in enumerate(t.per_depth())}
              for name, t in (("enumerated", table), ("product_formula", prod))}
    checks = [_check("char:match", not mism, f"{len(mism)} mismatches"),
              _check("char:m-independent", table.m_independent(),
                     "collapsed over lattice weights")]
    if task.certify:
        tables["singular_dimensions"] = {
            str(k): str(v) for k, v in singular_dims.items()}
        checks.append(_check("char:certified", bool(certified),
                             "no singular vectors up to the table depth"
                             if certified else "uncertified: singular vectors found"))
    return checks, tables


COMMANDS = {"verify-jacobi": verify_jacobi, "verify-fields": verify_fields,
            "verify-voa": verify_voa, "verify-sugawara": verify_sugawara,
            "verify-realization": verify_realization, "singular": singular,
            "char": char}


def run(spec: SpecFile) -> dict:
    """Execute the file's command and return the report dictionary.

    Module-level failures (critical levels, validation, resource bounds,
    running out of memory) are recorded as failing checks; the report is
    still emitted.
    """
    params, module = build_context(spec)
    command = spec.task["command"]
    task = Task(depth=int(spec.task.get("depth", 3)),
                window=int(spec.task.get("window", 3)),
                certify=bool(spec.task.get("certify", False)))
    seed = int(spec.task.get("seed", 20240601))

    report = {
        "command": command,
        "params": {
            "N": str(params.N), "g": params.g_dot.name, "mu": str(params.mu),
            "nu": str(params.nu), "c": str(params.c),
            "alpha": [str(a) for a in module.alpha],
            "h": str(module.h), "d": str(module.d),
            "depth": str(task.depth), "window": str(task.window),
            "seed": str(seed), "certify": task.certify,
        },
        "derived": _derived_block(module),
        "checks": [],
        "tables": {},
    }
    try:
        report["checks"], report["tables"] = COMMANDS[command](
            module, random.Random(seed), task)
    except (CriticalLevelError, ValidationError, ResourceLimitError,
            ConfigError, MemoryError) as exc:
        # str(MemoryError()) is empty
        details = ("ran out of memory" if isinstance(exc, MemoryError)
                   else str(exc))
        report["checks"].append({"id": f"{command}:error", "status": "fail",
                                 "details": details})
    return report


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
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read {args.specfile}: {exc}\n")
        return 2
    try:
        spec = parse_spec(text)
        for key, val in (("depth", args.depth), ("window", args.window),
                         ("seed", args.seed)):
            if val is not None:
                spec.task[key] = Q(val)
        validate_spec(spec)
        report = run(spec)
    except (SpecFileError, ConfigError, ValidationError, CriticalLevelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    text = render_report(report)
    sys.stdout.write(text)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.json_out}: {exc}\n")
            return 2
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
