"""Command-line front end: solve and classify at one activity, sweep a range,
run the finite-ball oracle, print critical thresholds, and solve the
weak-periodic systems.

Output is a human-readable text block by default; --json emits one JSON
document per run (it validates against schemas/cli_output.schema.json at the
repository root) and --csv emits comma-separated rows, decimals with 15
significant digits, UNIX newlines. Exit codes: 0 success, 1 runtime or
convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

# oracle (and numpy) and weakperiodic are imported by the commands that use them
from .core import (
    SOLVE_SETS,
    ConvergenceError,
    DomainError,
    InternalCheckError,
    ModelParams,
    SizeCapError,
    _check_positive,
)
from .extremality import Verdict, _certificates, _verdict, classify, g_function, h_function
from .solvers import (
    _DEFAULT_TOL,
    _has_pair,
    _last_law,
    _solve_pair,
    asymptotic_bound,
    critical_lambda,
    critical_values,
    discriminant_k3,
    lambda_pm,
    s_pm,
    solve_translation_invariant,
    solve_two_periodic,
)

__all__ = ["main"]

# consistency deviations below this print PASS, at or above print FAIL
PASS_THRESHOLD = 1e-8

QUANTITIES = ("solutions", "D", "h", "g", "s2", "ks", "msw", "verdict", "weakperiodic_count")
# a sweep keeps about 1 KB a point: 2**18 points is about 256 MB, like the ball and sampler caps
_SWEEP_POINT_CAP = 1 << 18


def _fmt(x) -> str:
    return format(float(x), ".15g")


def _num(x):
    """JSON-safe number: non-finite floats become null."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte, for obj starting at the line
    break and indentation pad. Exact types render here; anything else (a subclass, a key that is
    not a str, a non-finite float) goes to json.dumps, whose newlines are all indentation, as it
    escapes every control character in a string."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is float and obj - obj == 0.0:  # finite
        return float.__repr__(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if t is list or t is tuple:
        items, ends = [_dumps(v, inner) for v in obj], "[]"
    elif t is dict and all(type(key) is str for key in obj):
        items, ends = [_quote(key) + ": " + _dumps(v, inner) for key, v in obj.items()], "{}"
    else:
        return json.dumps(obj, indent=2, allow_nan=False).replace("\n", pad)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hctree",
        description="Boundary laws of the hard-core model on Cayley trees.",
    )
    subs = parser.add_subparsers(dest="command")

    def sub(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file supplying defaults; flags override it")
        p.set_defaults(run=run)
        return p

    def add_k(p):
        p.add_argument("-k", "--k", dest="k", type=int, default=None,
                       help="children per vertex (tree order)")

    def add_lam(p):
        p.add_argument("-l", "--lambda", dest="lam", type=float, default=None,
                       help="activity (occupation weight)")

    def add_tol(p):
        p.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                       help=f"solver tolerance (default {_DEFAULT_TOL:g})")

    def add_formats(p, csv_too=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="emit one JSON document")
        if csv_too:
            group.add_argument("--csv", action="store_true", help="emit CSV rows")

    p = sub("solve", "find every boundary law at one activity", _cmd_solve)
    add_k(p); add_lam(p); add_tol(p); add_formats(p)

    p = sub("classify", "extremality diagnostics for every boundary law at one activity",
            _cmd_classify)
    add_k(p); add_lam(p); add_tol(p); add_formats(p)

    p = sub("sweep", "evaluate one quantity on an activity grid, CSV by default", _cmd_sweep)
    add_k(p)
    p.add_argument("-lmin", "--lambda-min", dest="lambda_min", type=float, default=None,
                   help="left end of the activity grid")
    p.add_argument("-lmax", "--lambda-max", dest="lambda_max", type=float, default=None,
                   help="right end of the activity grid")
    p.add_argument("-n", "--points", dest="points", type=int, default=100,
                   help="grid size (default 100)")
    p.add_argument("--scale", choices=("linear", "log"), default="linear",
                   help="grid spacing (default linear)")
    p.add_argument("--quantity", choices=QUANTITIES, default=None,
                   help="column to compute")
    p.add_argument("-i", "--i", dest="i", type=int, default=1,
                   help="exponent split for weakperiodic_count (default 1)")
    p.add_argument("--set", dest="invariant_set", choices=SOLVE_SETS, default="I2",
                   help="invariant plane for weakperiodic_count (default I2)")
    p.add_argument("--out", default=None, metavar="FILE", help="write to FILE instead of stdout")
    add_tol(p)
    add_formats(p)

    p = sub("oracle", "finite-ball consistency and sampling checks", _cmd_oracle)
    add_k(p); add_lam(p)
    p.add_argument("-n", "--depth", dest="depth", type=int, default=None, help="ball depth")
    p.add_argument("--mode", choices=("ti", "periodic", "perturbed", "sample"), default="ti",
                   help="assignment under test (default ti)")
    p.add_argument("--root", choices=("half", "full"), default="half",
                   help="root fanout: k (half) or k+1 (full)")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (mode sample)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="sample count (mode sample, default 100000)")
    add_tol(p)
    add_formats(p, csv_too=False)

    p = sub("critical", "critical activities and extremality thresholds for one k", _cmd_critical)
    add_k(p)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="slack for the large-k estimate (default 0.1)")
    add_formats(p)

    p = sub("weak", "fixed points of the four-component system on one invariant plane", _cmd_weak)
    add_k(p); add_lam(p)
    p.add_argument("-i", "--i", dest="i", type=int, default=1,
                   help="exponent split, 1 <= i <= k+1 (default 1)")
    p.add_argument("--set", dest="invariant_set", choices=SOLVE_SETS, default="I2",
                   help="invariant plane (default I2)")
    add_tol(p)
    add_formats(p)

    return parser, subs.choices  # {name: subparser}


@functools.lru_cache(maxsize=None)
def _shared_parser():
    """The top-level parser and the subcommands' parsers main() reads argv
    with, built once per process.

    They must never be mutated: a --config run passes the file's values in the
    namespace it parses into, or they would leak into later calls in the
    same process.
    """
    return _build_parser()


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"{where}: expected a boolean, got {raw!r}")


def _read_config(path: str, sub: argparse.ArgumentParser) -> dict:
    """key=value lines (# comments allowed) mapped onto the subcommand's
    long flags: key lambda-min (or lambda_min) sets --lambda-min."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key = key.strip().lower().replace("-", "_")
            value = value.strip().strip("\"'")
            action = sub._option_string_actions.get("--" + key.replace("_", "-"))
            if action is None or action.dest in ("help", "config"):
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            if action.nargs == 0:
                overrides[action.dest] = _parse_bool(value, f"{path}:{lineno}")
                continue
            try:
                converted = (action.type or str)(value)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
            if action.choices is not None and converted not in action.choices:
                raise DomainError(
                    f"{path}:{lineno}: {key} must be one of {tuple(action.choices)}"
                )
            overrides[action.dest] = converted
    return overrides


def _need(args, flag: str, attr: str):
    value = getattr(args, attr)
    if value is None:
        raise DomainError(f"missing required flag {flag}")
    return value


def _params(args) -> ModelParams:
    return ModelParams(_need(args, "-k/--k", "k"), _need(args, "-l/--lambda", "lam"))


# Each _cmd_* returns its output in every form as a function that renders it:
# the JSON document, the CSV lines and the text lines (None where the command
# has no such form). main() calls only the one it prints.


# ---------------------------------------------------------------------------
# solve / classify


def _cmd_solve(args):
    params = _params(args)
    report = solve_two_periodic(params, args.tol)
    found = list(zip(report.solutions, report.residuals))

    def doc():
        return {
            "command": "solve",
            "k": params.k,
            "lambda": params.lam,
            "tol": _num(args.tol),
            "lambda_critical": report.lambda_critical,
            "system_solution_count": report.system_solution_count,
            "degenerate_double_root": report.degenerate_double_root,
            "solutions": [
                {"kind": law.kind.value, "values": [float(v) for v in law.values],
                 "residual": float(res)}
                for law, res in found
            ],
        }

    def csv():
        return ["kind,z1,z2,residual",
                *(f"{law.kind.value},{_fmt(law.values[0])},"
                  f"{_fmt(law.values[1]) if len(law.values) > 1 else ''},{_fmt(res)}"
                  for law, res in found)]

    def text():
        lines = [f"k={params.k}  lambda={_fmt(params.lam)}  "
                 f"critical activity={_fmt(report.lambda_critical)}",
                 f"ordered system solutions: {report.system_solution_count}"]
        if report.degenerate_double_root:
            lines.append("note: at the bifurcation point the pair collapses onto the fixed point")
        for law, res in found:
            vals = "  ".join(f"z{idx + 1}={_fmt(v)}" for idx, v in enumerate(law.values)) \
                if len(law.values) > 1 else f"z={_fmt(law.values[0])}"
            lines.append(f"  {law.kind.value:22s} {vals}  residual={_fmt(res)}")
        return lines

    return doc, csv, text


# certificate fields of an ExtremalityReport, in CSV column and JSON key order
_CERTS = ("s2", "kappa", "gamma", "ks_value", "msw_value", "martinelli_value", "mossel_value")


def _cmd_classify(args):
    params = _params(args)
    reports = classify(params, args.tol)

    def doc():
        entries = []
        for r in reports:
            entry = {"kind": r.law.kind.value, "values": [float(v) for v in r.law.values],
                     "k_eff": r.k_eff}
            for name in _CERTS:
                entry[name] = _num(getattr(r, name))
                if name in ("martinelli_value", "mossel_value"):
                    flag = name.replace("value", "no_reconstruction")
                    entry[flag] = getattr(r, flag)
            entry["verdict"] = r.verdict.value
            entries.append(entry)
        return {"command": "classify", "k": params.k, "lambda": params.lam,
                "tol": _num(args.tol), "reports": entries}

    def csv():
        return [",".join(("kind", "z1", "z2", "k_eff", *_CERTS, "verdict")),
                *(",".join((r.law.kind.value, _fmt(r.law.values[0]),
                            _fmt(r.law.values[1]) if len(r.law.values) > 1 else "",
                            str(r.k_eff), *(_fmt(getattr(r, name)) for name in _CERTS),
                            r.verdict.value))
                  for r in reports)]

    def text():
        lines = [f"k={params.k}  lambda={_fmt(params.lam)}"]
        for r in reports:
            vals = ", ".join(_fmt(v) for v in r.law.values)
            lines += [
                f"  {r.law.kind.value}  z=({vals})",
                f"    k_eff={r.k_eff}  s2={_fmt(r.s2)}  kappa={_fmt(r.kappa)}  "
                f"gamma<={_fmt(r.gamma)}",
                f"    spectral value={_fmt(r.ks_value)}  contraction value={_fmt(r.msw_value)}",
                f"    reconstruction tests: {_fmt(r.martinelli_value)} "
                f"(ok={r.martinelli_no_reconstruction}), {_fmt(r.mossel_value)} "
                f"(ok={r.mossel_no_reconstruction})",
                f"    verdict: {r.verdict.value}",
            ]
        return lines

    return doc, csv, text


# ---------------------------------------------------------------------------
# sweep


def _grid(lmin: float, lmax: float, points: int, scale: str) -> list[float]:
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    if points > _SWEEP_POINT_CAP:
        raise SizeCapError(f"a sweep may have at most {_SWEEP_POINT_CAP} points, got {points}")
    if not lmin < lmax:
        raise DomainError(f"need lambda_min < lambda_max, got {lmin} >= {lmax}")
    n = points - 1
    if scale == "log":
        if lmin <= 0:
            raise DomainError("log scale needs lambda_min > 0")
        # inside the ends only: the last exponent can round above log(lmax), where exp overflows
        a, b = math.log(lmin), math.log(lmax)
        inner = [math.exp(a + (b - a) * j / n) for j in range(1, n)]
    else:
        # half the span times j stays finite where (lmax - lmin) * j overflows; halving is exact
        inner = [lmin + 2.0 * ((0.5 * lmax - 0.5 * lmin) * j / n) for j in range(1, n)]
    return [lmin, *inner, lmax]


# each quantity solved at every activity of a sweep, and its place in _certificates' tuple
# (ExtremalityReport's fields after law)
_CERT_INDEX = {"s2": 1, "ks": 4, "msw": 5}


def _sweep_values(args, grid: list[float]) -> list:
    """The column of args.quantity at each activity of the grid."""
    k, quantity = args.k, args.quantity
    if quantity in _CERT_INDEX or quantity in ("solutions", "verdict"):
        # a row depends on (k, lam) alone: k and then every lam are checked before any is solved
        lam_cr = critical_lambda(k)
        for lam in grid:
            _check_positive("lam", lam)
        if quantity in _CERT_INDEX:
            index = _CERT_INDEX[quantity]
            return [_certificates(k, lam, _last_law(k, lam, args.tol))[index] for lam in grid]
        # not solved: the pair exists at every activity _has_pair admits, and
        # it is extremal there (its s2 is at most 1/k**2, so msw < 1); the
        # invariant law's verdict needs only lam
        pairs = [_has_pair(lam, lam_cr) for lam in grid]
        if quantity == "solutions":
            return [3 if p else 1 for p in pairs]
        return [(Verdict.PROVEN_EXTREMAL if p else _verdict(k, lam)).value
                for lam, p in zip(grid, pairs)]
    if quantity == "weakperiodic_count":
        from .weakperiodic import WeakPeriodicParams, solve_weak_periodic

        return [solve_weak_periodic(WeakPeriodicParams(k, args.i, lam), args.invariant_set,
                                    args.tol).count for lam in grid]
    if k != 3:
        raise DomainError(f"quantity {quantity} is defined for k=3 only")
    value = {"D": discriminant_k3, "h": h_function, "g": g_function}[quantity]
    return [value(lam) for lam in grid]


def _cmd_sweep(args):
    _need(args, "-k/--k", "k")
    lmin = _need(args, "-lmin/--lambda-min", "lambda_min")
    lmax = _need(args, "-lmax/--lambda-max", "lambda_max")
    if args.quantity is None:
        raise DomainError("missing required flag --quantity")
    grid = _grid(lmin, lmax, args.points, args.scale)
    values = _sweep_values(args, grid)

    def doc():
        return {
            "command": "sweep",
            "k": args.k,
            "quantity": args.quantity,
            "scale": args.scale,
            "lambda_min": lmin,
            "lambda_max": lmax,
            "points": args.points,
            "i": args.i,
            "invariant_set": args.invariant_set,
            "rows": [
                {"lambda": lam, "value": val if isinstance(val, (int, str)) else _num(val)}
                for lam, val in zip(grid, values)
            ],
        }

    def csv():
        # "%.15g" % x is _fmt(x) for every float; int and verdict columns print as str does
        row = "%.15g,%s" if isinstance(values[0], (int, str)) else "%.15g,%.15g"
        return [f"lambda,{args.quantity}", *map(row.__mod__, zip(grid, values))]

    return doc, csv, None


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args):
    from .oracle import (
        FiniteBall,
        RootDegree,
        _draw,
        _require_ball_enumerable,
        consistency_check,
    )

    params = _params(args)
    depth = _need(args, "-n/--depth", "depth")
    root = RootDegree(args.root)
    head = {"command": "oracle", "k": params.k, "lambda": params.lam, "depth": depth,
            "mode": args.mode, "root": root.value}

    if args.mode == "sample":
        values = _last_law(params.k, params.lam, args.tol)
        z1, z2 = values[0], values[-1]
        # counted block by block: the spins are never all held
        _, _, violations, metadata = _draw(params, z1, z2, depth, args.samples, args.seed, root,
                                           False)
        passed = violations == 0
        return (
            lambda: {**head, "samples": args.samples, "seed": args.seed,
                     "violations": violations, "passed": passed, "metadata": metadata},
            None,
            lambda: [f"mode=sample  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
                     f"root={root.value}  samples={args.samples}  seed={args.seed}",
                     f"z1={_fmt(z1)}  z2={_fmt(z2)}",
                     f"adjacent occupied pairs: {violations}",
                     "PASS" if passed else "FAIL"],
        )

    # exact enumeration is capped: refuse an oversized ball before building it
    _require_ball_enumerable(params.k, depth, root)
    ball = FiniteBall(params.k, depth, root)
    if args.mode == "periodic":
        lam_cr = critical_lambda(params.k)
        if not _has_pair(params.lam, lam_cr):
            raise DomainError(
                f"periodic mode needs an activity above the critical one ({_fmt(lam_cr)})")
        z1, z2 = values = _solve_pair(params.k, params.lam, args.tol)[:2]
        assignment = [z1 if ball.level[v] % 2 == 1 else z2 for v in range(ball.n_vertices)]
    else:
        z = solve_translation_invariant(params, args.tol)
        if args.mode == "perturbed":
            z += 0.1
        assignment, values = z, [z]
    deviation = consistency_check(ball, params.lam, assignment)
    passed = deviation < PASS_THRESHOLD
    return (
        lambda: {**head, "boundary_values": [float(v) for v in values],
                 "max_deviation": deviation, "threshold": PASS_THRESHOLD, "passed": passed},
        None,
        lambda: [f"mode={args.mode}  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
                 f"root={root.value}  vertices={ball.n_vertices}",
                 f"boundary values: {', '.join(_fmt(v) for v in values)}",
                 f"max deviation = {_fmt(deviation)}  (threshold {_fmt(PASS_THRESHOLD)})",
                 "PASS" if passed else "FAIL"],
    )


# ---------------------------------------------------------------------------
# critical / weak


def _cmd_critical(args):
    k = _need(args, "-k/--k", "k")
    eps = _check_positive("eps", args.epsilon)
    cv = critical_values(k)
    asym = asymptotic_bound(k, eps) if k >= 3 else None
    if k >= 6:
        s_minus, s_plus = s_pm(k)
        lam_minus, lam_plus = lambda_pm(k)
    else:
        s_minus = s_plus = lam_minus = lam_plus = None
    # (JSON key, text label, value); None is JSON null and no CSV or text row
    rows = [
        ("lambda_critical", "two-periodic pair appears above", cv.lambda_cr),
        ("t_star", "threshold polynomial root", cv.t_star),
        ("lambda_star", "invariant law proven extremal below", cv.lambda_star),
        ("kesten_stigum_bound", "invariant law non-extremal above", cv.lambda_nonextremal),
        ("asymptotic_bound", f"large-k estimate, eps={eps:g}", asym),
        ("s_minus", "weak-periodic branch parameter", s_minus),
        ("s_plus", "weak-periodic branch parameter", s_plus),
        ("lambda_minus", "weak-periodic branch activity", lam_minus),
        ("lambda_plus", "weak-periodic branch activity", lam_plus),
    ]
    shown = [row for row in rows if row[2] is not None]
    return (
        lambda: {"command": "critical", "k": k, "epsilon": eps,
                 **{key: _num(value) for key, _, value in rows}},
        lambda: ["quantity,value", *(f"{key},{_fmt(value)}" for key, _, value in shown)],
        lambda: [f"k = {k}",
                 *(f"  {key} ({label}): {_fmt(value)}" for key, label, value in shown)],
    )


def _cmd_weak(args):
    from .weakperiodic import WeakPeriodicParams, solve_weak_periodic

    params = _params(args)
    wp = WeakPeriodicParams(params.k, args.i, params.lam)
    report = solve_weak_periodic(wp, args.invariant_set, args.tol)
    found = list(zip(report.fixed_points, report.residuals, report.ti_flags))

    def doc():
        return {
            "command": "weak",
            "k": wp.k,
            "lambda": wp.lam,
            "i": wp.i,
            "invariant_set": report.invariant_set,
            "tol": _num(args.tol),
            "count": report.count,
            "non_constant_count": report.non_ti_count,
            "fixed_points": [
                {"values": [float(v) for v in law.values], "residual": float(res),
                 "constant": bool(flag)}
                for law, res, flag in found
            ],
        }

    def csv():
        return ["z1,z2,z3,z4,residual,constant",
                *(f"{','.join(_fmt(v) for v in law.values)},{_fmt(res)},"
                  f"{str(bool(flag)).lower()}"
                  for law, res, flag in found)]

    def text():
        return [f"k={wp.k}  lambda={_fmt(wp.lam)}  i={wp.i}  set={report.invariant_set}",
                f"fixed points: {report.count}  (non-constant: {report.non_ti_count})",
                *(f"  ({', '.join(_fmt(v) for v in law.values)})  residual={_fmt(res)}  "
                  f"[{'constant' if flag else 'non-constant'}]"
                  for law, res, flag in found)]

    return doc, csv, text


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser, subs = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub = subs.get(argv[0]) if argv else None
        if sub is None:
            # -h, no command, an unknown command or a leading --: the top-level
            # parser prints the usage or the error
            parser.parse_args(argv)
            parser.print_usage(sys.stderr)
            return 2
        # the subcommand's own parser reads the rest; what it leaves over is
        # reported by the top-level parser, as when it parses the whole argv
        args, extra = sub.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.config:
            # argparse sets a default only where the namespace has no value,
            # so the file's values fill in and the flags still override them;
            # a format flag also drops the file's other format
            values = _read_config(args.config, sub)
            if args.json or getattr(args, "csv", False):
                values = {key: v for key, v in values.items() if key not in ("json", "csv")}
            args = sub.parse_args(argv[1:], argparse.Namespace(**values))
        if not getattr(args, "tol", 1.0) > 0:  # every command but critical has --tol
            raise DomainError("tol must be positive")
        doc, csv, text = args.run(args)
        if args.json:
            lines = [_dumps(doc())]
        else:
            lines = (csv if text is None or getattr(args, "csv", False) else text)()
        _emit("\n".join(lines) + "\n", getattr(args, "out", None))
        return 0
    except SystemExit as exc:  # argparse reports usage errors and --help this way
        return exc.code if isinstance(exc.code, int) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SizeCapError, InternalCheckError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():  # where a solve stopped
            print(f"  {key}={value!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
