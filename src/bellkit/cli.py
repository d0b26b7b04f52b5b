"""Command-line front end: JSON in, JSON/CSV out, scriptable exit codes.

Exit codes: 0 success (a model exists / nothing violated), 2 bad input (any
ValueError, from parsing or from the library), 3 a violated inequality was
found (`lhv`, `maximize`) or a condition holds (`condition`: its value
exceeds 1, which decides a violation only for two qubits), 4 a resource cap
was hit.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import limits
from .errors import InequalityViolated, ResourceLimitError
# mix_with_white_noise is unused here, but bench/tracing.py wraps it in this namespace
from .families import (  # noqa: F401
    GhzFamily,
    ghz_state,
    mix_with_white_noise,
    singlet,
)
# most_violated_sign_inequality is unused here, but bench/tracing.py wraps it in this namespace
from .lhv import (  # noqa: F401
    BellInequality,
    CorrelationTable,
    LhvModel,
    SignFunction,
    construct_lhv_model,
    evaluate_inequality,
    most_violated_sign_inequality,
    polytope_membership,
    sign_inequality,
)
from .multiset import build_recursive, check_tightness, layout_tree
from .qcond import (
    CONDITION_KINDS,
    check_restarts,
    check_two_qubit,
    condition_multisetting_CN,
    condition_two_qubit,
    condition_two_setting_N,
    maximize_bell_value,
)
from .qstate import CorrelationTensor, PureState, correlation_tensor
from .tolerance import BOUND_TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_RESOURCE = 4


# ---------------------------------------------------------------------------
# state specs


_NOISE_RE = re.compile(r"v=([^()]+)\((.+)\)\Z", re.DOTALL)


def _parse_params(text: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"malformed parameter {part!r} in state spec {spec!r}")
        key = key.strip()
        if key in params:
            raise ValueError(f"parameter {key!r} given twice in state spec {spec!r}")
        params[key] = value.strip()
    return params


def parse_state_spec(spec: str) -> tuple[PureState, tuple[float, ...]]:
    """Parse "singlet", "ghz:N=3,alpha=0.3" or "noise:v=0.8(<inner spec>)".

    Returns the pure state inside every noise: wrapper and the wrappers'
    visibilities, innermost first, as correlation_tensor takes them; it
    checks their range.  No density matrix is built.
    """
    spec = spec.strip()
    visibilities: list[float] = []
    # unwrapped in a loop, not by recursion, so any nesting depth parses
    while spec.startswith("noise:"):
        match = _NOISE_RE.match(spec[6:])
        if match is None:
            raise ValueError(f"noise spec must look like noise:v=0.8(<state>), got {spec!r}")
        try:
            visibilities.append(float(match.group(1)))
        except ValueError as exc:
            raise ValueError(f"bad visibility in {spec!r}") from exc
        spec = match.group(2).strip()
    visibilities.reverse()
    if spec == "singlet":
        return singlet(), tuple(visibilities)
    if spec.startswith("ghz:"):
        params = _parse_params(spec[4:], spec)
        unknown = set(params) - {"N", "n", "alpha"}
        if unknown:
            raise ValueError(f"unknown ghz parameters {sorted(unknown)} in {spec!r}")
        if {"N", "n"} <= set(params):
            raise ValueError(f"ghz spec takes one of 'N' and 'n', got both in {spec!r}")
        n_text = params.get("N", params.get("n"))
        if n_text is None:
            raise ValueError(f"ghz spec needs N=<int>, got {spec!r}")
        if "alpha" not in params:
            raise ValueError(f"ghz spec needs alpha=<float>, got {spec!r}")
        try:
            family = GhzFamily(int(n_text), float(params["alpha"]))
        except ValueError as exc:
            raise ValueError(f"bad ghz spec {spec!r}: {exc}") from exc
        return ghz_state(family), tuple(visibilities)
    raise ValueError(f"unknown state spec {spec!r} (expected singlet, ghz:..., noise:...)")


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path: str, loader, what: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ValueError(f"invalid JSON in {path!r}: {exc}") from exc
    try:
        return loader(data)
    except ValueError as exc:
        raise ValueError(f"not a valid {what}: {exc}") from exc


#: int.__repr__ and float.__repr__ (what json.dumps writes for an int and a
#: finite float) as ufuncs, so the reprs are written straight into an object array
_REPRS = {"i": np.frompyfunc(int.__repr__, 1, 1), "f": np.frompyfunc(float.__repr__, 1, 1)}

#: json's text of the non-finite floats, keyed by float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The leaf types of a flat list whose items repr writes as json.dumps does.
_NUMBERS = {int, float}


def _json_parts(obj, parts: list, row: str) -> None:
    """Append the parts of json.dumps(obj, indent=2, sort_keys=True) to parts.

    row is a newline and the indent of the line obj starts on.  No type is
    both a container and a leaf, so the containers are tested first; the
    leaves go in json's order: str, None, True, False, int (int.__repr__),
    float (float.__repr__, or NaN, Infinity, -Infinity).  An ndarray is
    written by _array_parts.  A list of exact ints and finite floats is one
    join.  Dict keys must be str; any other key or type raises TypeError.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = row + "  "
        if set(map(type, obj)) <= _NUMBERS:
            text = ("," + inner).join(map(repr, obj))
            if "n" not in text:  # no nan, inf or -inf
                parts.append("[" + inner + text + row + "]")
                return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _json_parts(item, parts, inner)
            sep = "," + inner
        parts.append(row + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = row + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(obj[key], parts, inner)
            sep = "," + inner
        parts.append(row + "}")
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        parts.append(_NONFINITE.get(text, text))
    elif isinstance(obj, np.ndarray):
        parts += _array_parts(obj, row)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, with an ndarray written as a list.

    An ndarray (int64 or float64, at least 1-D, non-empty) may sit anywhere
    in obj.  The parts of the whole text are joined once, after _array_parts
    has returned and freed its index arrays.
    """
    parts: list[str] = []
    _json_parts(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _array_parts(array: np.ndarray, row: str) -> list[str]:
    """The parts of the array, as json.dumps(indent=2) writes it as a list
    that starts on a line with row's indent: the opening brackets, then each
    unit's text and seps[t].

    Units tile the leaves in order.  A unit is a nonzero leaf (0, or +0.0 by
    bit pattern, is zero, so -0.0 keeps its repr), a zero leaf in a row with
    a nonzero leaf, or a maximal subtree with no nonzero leaf.  Such a
    subtree's text depends only on its span, and is built once per call, as
    is the repr of each distinct nonzero value.  t counts the lists that
    close after the unit's last leaf i: how many trailing-axis products
    (s[-1], s[-1] s[-2], ...) of the shape s divide i + 1.
    """
    # rows[j]: a new line at the indent of nesting level j; leaves sit at level n
    n = array.ndim
    rows = [row + "  " * j for j in range(n + 1)]
    # seps[t]: close t lists, then a comma, then open t lists; after the
    # last leaf, seps[n] closes all n lists
    seps, close, reopen = [], "", ""
    for line in rows[n - 1::-1]:
        seps.append(close + "," + reopen + rows[n])
        close += line + "]"
        reopen = line + "[" + reopen
    seps.append(close)
    values = array.ravel()
    nonzero = values.view(np.uint64) != 0
    ids = nonzero.nonzero()[0]
    # the distinct nonzero values, sorted, and which of them each nonzero leaf
    # holds, as np.unique finds them at a fixed cost near a small array's write
    order = values[ids].argsort()
    distinct = values[ids[order]]
    new = np.empty(distinct.size, dtype=bool)  # the first of each distinct value
    new[:1] = True
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    which = np.empty_like(order)
    which[order] = new.cumsum() - 1
    distinct = distinct[new]
    # A node over k trailing axes (of spans[k] leaves) is live if it holds a
    # nonzero leaf.  The units are the children of live nodes that are leaves
    # or not live, so each child of a live node begins one.  Leaf i > 0 begins
    # a child other than its parent's first at one level k only, where k is t
    # of the leaf before: starts[i] = 1 + k if that parent is live, else 0
    starts = np.zeros(values.size, dtype=np.uint8)
    spans = [1]
    for k, size in enumerate(array.shape[::-1]):
        live = np.zeros(values.size // (spans[-1] * size), dtype=np.uint8)
        live[ids // size] = k + 1
        starts.reshape(live.size, -1)[:, spans[-1]::spans[-1]] = live[:, None]
        ids = live.nonzero()[0]  # the live nodes, whose parents the next level marks
        spans.append(spans[-1] * size)
    starts[0] = 1  # an array with no nonzero leaf is one unit
    at = (starts != 0).nonzero()[0]
    # source: the opening brackets (the first on row's line), seps[t]
    # at 1 + t, the text of a zero subtree of each span in use (spans that
    # repeat share one text), then the reprs of the distinct values.  index
    # picks the parts from it
    index = np.zeros(2 * at.size + 1, dtype=np.intp)
    texts = index[1::2]
    texts[:] = np.array(spans).searchsorted(np.concatenate((at[1:], [values.size])) - at)
    zeros = [repr(values.dtype.type(0).item())]
    for size, sep in zip(array.shape[::-1], seps[:texts.max()]):
        zeros.append(sep.join([zeros[-1]] * size))
    shared = [reopen[len(rows[0]):] + rows[n]] + seps + zeros
    source = np.empty(len(shared) + distinct.size, dtype=object)
    source[:len(shared)] = shared
    _REPRS[values.dtype.kind](distinct, out=source[len(shared):])
    texts += 1 + len(seps)
    texts[nonzero[at]] = len(shared) + which
    index[2:-1:2] = starts[at[1:]]
    index[-1] = 1 + n
    return source[index].tolist()


def _model_text(model: LhvModel) -> str:
    """`_dump_json(model.to_json_list())` in one join: the int codes and float
    weight of each record written by int.__repr__ and float.__repr__, as
    json.dumps writes them.  A model has at least one record."""
    parts = []
    for record in model.to_json_list():
        parts += ('  {\n    "strategy": [\n      ',
                  ",\n      ".join(map(int.__repr__, record["strategy"])),
                  '\n    ],\n    "weight": ', float.__repr__(record["weight"]), "\n  },\n")
    parts[-1] = "\n  }\n]\n"
    return "[\n" + "".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc}") from exc


def _tensor_from_args(args) -> CorrelationTensor:
    if (args.state is None) == (args.tensor_file is None):
        raise ValueError("give exactly one of --state or --tensor-file")
    if args.state is not None:
        state, visibilities = parse_state_spec(args.state)
        return correlation_tensor(state, visibilities=visibilities)
    return _read_json(args.tensor_file, CorrelationTensor.from_json_dict, "correlation tensor")


# ---------------------------------------------------------------------------
# commands


def cmd_tensor(args) -> int:
    if (args.state is None) == (args.state_file is None):
        raise ValueError("give exactly one of --state or --state-file")
    if args.state is not None:
        state, visibilities = parse_state_spec(args.state)
    else:
        state = _read_json(args.state_file, PureState.from_json_dict, "pure state")
        visibilities = ()
    tensor = correlation_tensor(state, visibilities=visibilities)
    # tensor.to_json_dict(), but the components stay an array for _dump_json
    _emit(_dump_json({"n_qubits": tensor.n_qubits, "full_components": tensor.components}), args.out)
    return EXIT_OK


def cmd_lhv(args) -> int:
    table = _read_json(args.table, CorrelationTable.from_json_dict, "correlation table")
    if table.layout.is_two_setting():
        try:
            model, certificate = construct_lhv_model(table), None
        except InequalityViolated as exc:
            model, certificate, value = None, sign_inequality(exc.sign), exc.value
    else:
        result = polytope_membership(table)
        model, certificate = result.model, result.certificate
        if not result.inside:
            value = evaluate_inequality(certificate, table)
    if certificate is None:
        _emit(_model_text(model), args.out)
        return EXIT_OK
    _emit(_dump_json(certificate.to_json_dict()), args.out)
    print(f"violation: value {value!r} exceeds bound {certificate.bound!r}", file=sys.stderr)
    return EXIT_VIOLATION


def _generate_inequality(layout: tuple[int, ...], bitstrings: list[str] | None) -> BellInequality:
    arities, tree = layout_tree(layout)
    if bitstrings is None:
        bitstrings = ["0" * (2**a - 1) + "1" for a in arities]
    if len(bitstrings) != len(arities):
        raise ValueError(
            f"layout {layout} needs {len(arities)} sign bitstrings, got {len(bitstrings)}")
    signs = []
    for text, arity in zip(bitstrings, arities):
        try:
            sign = SignFunction.from_bitstring(text)
        except ValueError as exc:
            raise ValueError(f"bad sign bitstring {text!r}: {exc}") from exc
        if sign.arity != arity:
            raise ValueError(f"sign bitstring {text!r} has arity {sign.arity}, expected {arity}")
        signs.append(sign)
    return build_recursive(tree(signs))


#: The TightnessReport fields --check-tight prints; exact_fallback is not one.
_TIGHTNESS_KEYS = ("is_tight", "vertex_count", "saturating_count", "affine_rank", "dimension")


def cmd_generate(args) -> int:
    try:
        layout = tuple(int(part) for part in args.layout.split(","))
    except ValueError as exc:
        raise ValueError(f"bad layout {args.layout!r}: {exc}") from exc
    ineq = _generate_inequality(layout, args.sign_fn)
    # ineq.to_json_dict(), but the coefficients stay an array for _dump_json
    payload = {"layout": list(ineq.layout.settings_per_party),
               "coefficients": ineq.coefficients, "bound": ineq.bound}
    if args.check_tight:
        report = check_tightness(ineq)
        tightness = {key: getattr(report, key) for key in _TIGHTNESS_KEYS}
        payload = {"inequality": payload, "tightness": tightness}
    _emit(_dump_json(payload), args.out)
    return EXIT_OK


def _run_condition(kind: str, tensor: CorrelationTensor, restarts: int, seed: int):
    """kind is one of CONDITION_KINDS: --kind's choices or cmd_scan checks it."""
    # checked for every kind, also the closed form that draws no restarts
    check_restarts(restarts, seed)
    if kind == "two_setting_NS_2qubit":
        return condition_two_qubit(tensor)
    if kind == "two_setting_sufficient_N":
        return condition_two_setting_N(tensor, restarts=restarts, seed=seed)
    return condition_multisetting_CN(tensor, restarts=restarts, seed=seed)


def cmd_condition(args) -> int:
    tensor = _tensor_from_args(args)
    report = _run_condition(args.kind, tensor, args.restarts, args.seed)
    _emit(_dump_json(report.to_json_dict()), args.out)
    return EXIT_VIOLATION if report.violated else EXIT_OK


def cmd_scan(args) -> int:
    if args.family != "ghz":
        raise ValueError(f"unknown scan family {args.family!r} (only ghz is supported)")
    try:
        n_list = [int(part) for part in args.n.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad N list {args.n!r}: {exc}") from exc
    if args.alpha_steps < 2:
        raise ValueError("the alpha grid needs at least 2 points")
    if args.alpha_min > args.alpha_max:
        raise ValueError("alpha range must satisfy 0 <= min <= max <= pi/4")
    points = len(n_list) * args.alpha_steps
    if points > limits.MAX_COUNT:
        raise ResourceLimitError(f"scan grids are capped at {limits.MAX_COUNT} points, got {points}")
    kinds = args.kinds.split(",")
    for alpha in (args.alpha_min, args.alpha_max):  # first: linspace warns on inf and nan
        GhzFamily(n_list[0], alpha)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    # every grid point is checked up front, by the rule --state ghz: applies
    families = [GhzFamily(n, float(alpha)) for n in n_list for alpha in alphas]
    for kind in kinds:  # all of them, before any grid point runs
        if kind not in CONDITION_KINDS:
            raise ValueError(
                f"unknown condition kind {kind!r}; choose from {', '.join(CONDITION_KINDS)}")
    if "two_setting_NS_2qubit" in kinds:
        for n in n_list:
            check_two_qubit(n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["family", "N", "alpha", "kind", "value", "violated"])
    for family in families:
        # the kernel path of --state ghz:, so each row prints condition's bytes
        tensor = correlation_tensor(ghz_state(family))
        for kind in kinds:
            report = _run_condition(kind, tensor, args.restarts, args.seed)
            writer.writerow([
                args.family,
                family.n_qubits,
                repr(family.alpha),
                kind,
                repr(report.value),
                "true" if report.violated else "false",
            ])
    _emit(buffer.getvalue(), args.out)
    return EXIT_OK


def cmd_maximize(args) -> int:
    ineq = _read_json(args.inequality, BellInequality.from_json_dict, "Bell inequality")
    tensor = _tensor_from_args(args)
    result = maximize_bell_value(ineq, tensor, restarts=args.restarts, seed=args.seed)
    _emit(_dump_json(result.to_json_dict()), args.out)
    if result.value > float(ineq.bound) + BOUND_TOL:
        print(f"violation: value {result.value!r} exceeds bound {ineq.bound!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _add_rng(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--restarts", type=int, default=50,
                        help="random restarts for the sweeps (default 50)")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and each command's parser by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Correlation Bell inequalities: generation, LHV models, violation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", help="correlation tensor of a state spec or pure-state JSON")
    p.add_argument("--state", help='state spec, e.g. "singlet" or "ghz:N=3,alpha=0.3"')
    p.add_argument("--state-file", help="pure-state JSON file ('-' for stdin)")
    _add_out(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("lhv", help="local model for a correlation table, or a violation certificate")
    p.add_argument("--table", required=True, help="correlation-table JSON file ('-' for stdin)")
    _add_out(p)
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("generate", help="build an inequality for a supported layout")
    p.add_argument("--layout", required=True, help='settings per party, e.g. "4,4,2"')
    p.add_argument("--sign-fn", action="append", metavar="BITS",
                   help="sign-function bitstring of length 2^arity; repeat once per slot "
                        "(defaults to 0...01 each)")
    p.add_argument("--check-tight", action="store_true", help="also run the tightness check")
    _add_out(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("condition", help="evaluate a violation condition on a tensor")
    p.add_argument("--kind", required=True, choices=CONDITION_KINDS)
    p.add_argument("--state", help="state spec (alternative to --tensor-file)")
    p.add_argument("--tensor-file", help="correlation-tensor JSON file ('-' for stdin)")
    _add_rng(p)
    _add_out(p)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("scan", help="CSV of condition values over a parameter grid")
    p.add_argument("--family", required=True, help="state family (ghz)")
    p.add_argument("--n", required=True, help='comma-separated qubit counts, e.g. "3,4,5"')
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=float(np.pi / 4))
    p.add_argument("--alpha-steps", type=int, default=21,
                   help="grid points including both endpoints (default 21)")
    p.add_argument("--kinds", default="two_setting_sufficient_N,multisetting_CN",
                   help="comma-separated condition kinds")
    _add_rng(p)
    _add_out(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("maximize", help="see-saw the quantum value of an inequality on a state")
    p.add_argument("--inequality", required=True, help="Bell-inequality JSON file ('-' for stdin)")
    p.add_argument("--state", help="state spec (alternative to --tensor-file)")
    p.add_argument("--tensor-file", help="correlation-tensor JSON file ('-' for stdin)")
    _add_rng(p)
    _add_out(p)
    p.set_defaults(func=cmd_maximize)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; every caller shares it."""
    return _parsers()[0]


def main(argv: list[str] | None = None) -> int:
    commands = _parsers()[1]
    argv = sys.argv[1:] if argv is None else argv
    # parse_args reads every argument twice, at the top level and again in the
    # command's parser; a known command first goes to its parser alone, and
    # leftovers get the top-level error that parse_args prints for them
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
