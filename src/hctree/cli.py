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

from .core import (
    ConvergenceError,
    DomainError,
    InternalCheckError,
    LawKind,
    ModelParams,
    SizeCapError,
)
from .extremality import classify, g_function, h_function
from .oracle import (
    FiniteBall,
    RootDegree,
    _require_ball_enumerable,
    consistency_check,
    hard_core_violations,
    sample_tree_chain,
)
from .solvers import (
    asymptotic_bound,
    critical_values,
    discriminant_k3,
    solve_translation_invariant,
    solve_two_periodic,
)
from .weakperiodic import SOLVE_SETS, WeakPeriodicParams, lambda_pm, s_pm, solve_weak_periodic

__all__ = ["main"]

# consistency deviations below this print PASS, at or above print FAIL
PASS_THRESHOLD = 1e-8

QUANTITIES = ("solutions", "D", "h", "g", "s2", "ks", "msw", "verdict", "weakperiodic_count")


def _fmt(x) -> str:
    return format(float(x), ".15g")


def _num(x):
    """JSON-safe number: non-finite floats become null."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


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
    table: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file supplying defaults; flags override it")
        table[name] = p
        return p

    def add_k(p):
        p.add_argument("-k", "--k", dest="k", type=int, default=None,
                       help="children per vertex (tree order)")

    def add_lam(p):
        p.add_argument("-l", "--lambda", dest="lam", type=float, default=None,
                       help="activity (occupation weight)")

    def add_tol(p, default=1e-12):
        p.add_argument("--tol", type=float, default=default,
                       help=f"solver tolerance (default {default:g})")

    def add_formats(p, csv_too=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="emit one JSON document")
        if csv_too:
            group.add_argument("--csv", action="store_true", help="emit CSV rows")

    p = sub("solve", "find every boundary law at one activity")
    add_k(p); add_lam(p); add_tol(p); add_formats(p)

    p = sub("classify", "extremality diagnostics for every boundary law at one activity")
    add_k(p); add_lam(p); add_tol(p); add_formats(p)

    p = sub("sweep", "evaluate one quantity on an activity grid, CSV by default")
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

    p = sub("oracle", "finite-ball consistency and sampling checks")
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

    p = sub("critical", "critical activities and extremality thresholds for one k")
    add_k(p)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="slack for the large-k estimate (default 0.1)")
    add_formats(p)

    p = sub("weak", "fixed points of the four-component system on one invariant plane")
    add_k(p); add_lam(p)
    p.add_argument("-i", "--i", dest="i", type=int, default=1,
                   help="exponent split, 1 <= i <= k+1 (default 1)")
    p.add_argument("--set", dest="invariant_set", choices=SOLVE_SETS, default="I2",
                   help="invariant plane (default I2)")
    add_tol(p)
    add_formats(p)

    return parser, table


@functools.lru_cache(maxsize=None)
def _shared_parser():
    """The parser main() reads argv with, built once per process.

    It must never be mutated: a --config run sets its defaults on a parser of
    its own, or they would leak into later calls in the same process.
    """
    return _build_parser()


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {raw!r}")


def _read_config(path: str, sub: argparse.ArgumentParser) -> dict:
    """key=value lines (# comments allowed) mapped onto the subcommand's flags."""
    table = {}
    for action in sub._actions:
        if action.dest in ("help", "config"):
            continue
        for opt in action.option_strings:
            if opt.startswith("--"):
                table[opt[2:].replace("-", "_")] = action
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
            action = table.get(key)
            if action is None:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            if action.nargs == 0:
                overrides[action.dest] = _parse_bool(value)
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


def _pair(report):
    """The alternating pair's values, or None where only the fixed point exists."""
    law = report.solutions[-1]
    return law.values if law.kind is LawKind.TWO_PERIODIC else None


# Each _cmd_* returns its output once in every form: the JSON document, the
# CSV lines and the text lines (None where the command has no text form).


# ---------------------------------------------------------------------------
# solve / classify


def _cmd_solve(args):
    params = _params(args)
    report = solve_two_periodic(params, args.tol)
    found = list(zip(report.solutions, report.residuals))
    doc = {
        "command": "solve",
        "k": params.k,
        "lambda": params.lam,
        "tol": args.tol,
        "lambda_critical": report.lambda_critical,
        "system_solution_count": report.system_solution_count,
        "degenerate_double_root": report.degenerate_double_root,
        "solutions": [
            {"kind": law.kind.value, "values": [float(v) for v in law.values],
             "residual": float(res)}
            for law, res in found
        ],
    }
    csv = ["kind,z1,z2,residual"]
    text = [f"k={params.k}  lambda={_fmt(params.lam)}  "
            f"critical activity={_fmt(report.lambda_critical)}",
            f"ordered system solutions: {report.system_solution_count}"]
    if report.degenerate_double_root:
        text.append("note: at the bifurcation point the pair collapses onto the fixed point")
    for law, res in found:
        z2 = _fmt(law.values[1]) if len(law.values) > 1 else ""
        csv.append(f"{law.kind.value},{_fmt(law.values[0])},{z2},{_fmt(res)}")
        vals = "  ".join(f"z{idx + 1}={_fmt(v)}" for idx, v in enumerate(law.values)) \
            if len(law.values) > 1 else f"z={_fmt(law.values[0])}"
        text.append(f"  {law.kind.value:22s} {vals}  residual={_fmt(res)}")
    return doc, csv, text


# certificate fields of an ExtremalityReport, in CSV column and JSON key order
_CERTS = ("s2", "kappa", "gamma", "ks_value", "msw_value", "martinelli_value", "mossel_value")


def _cmd_classify(args):
    params = _params(args)
    reports = classify(params, args.tol)
    doc = {"command": "classify", "k": params.k, "lambda": params.lam, "tol": args.tol,
           "reports": []}
    csv = [",".join(("kind", "z1", "z2", "k_eff", *_CERTS, "verdict"))]
    text = [f"k={params.k}  lambda={_fmt(params.lam)}"]
    for r in reports:
        entry = {"kind": r.law.kind.value, "values": [float(v) for v in r.law.values],
                 "k_eff": r.k_eff}
        for name in _CERTS:
            entry[name] = _num(getattr(r, name))
            if name in ("martinelli_value", "mossel_value"):
                flag = name.replace("value", "no_reconstruction")
                entry[flag] = getattr(r, flag)
        entry["verdict"] = r.verdict.value
        doc["reports"].append(entry)
        z2 = _fmt(r.law.values[1]) if len(r.law.values) > 1 else ""
        csv.append(",".join((r.law.kind.value, _fmt(r.law.values[0]), z2, str(r.k_eff),
                             *(_fmt(getattr(r, name)) for name in _CERTS), r.verdict.value)))
        vals = ", ".join(_fmt(v) for v in r.law.values)
        text += [
            f"  {r.law.kind.value}  z=({vals})",
            f"    k_eff={r.k_eff}  s2={_fmt(r.s2)}  kappa={_fmt(r.kappa)}  "
            f"gamma<={_fmt(r.gamma)}",
            f"    spectral value={_fmt(r.ks_value)}  contraction value={_fmt(r.msw_value)}",
            f"    reconstruction tests: {_fmt(r.martinelli_value)} "
            f"(ok={r.martinelli_no_reconstruction}), {_fmt(r.mossel_value)} "
            f"(ok={r.mossel_no_reconstruction})",
            f"    verdict: {r.verdict.value}",
        ]
    return doc, csv, text


# ---------------------------------------------------------------------------
# sweep


def _grid(lmin: float, lmax: float, points: int, scale: str) -> list[float]:
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    if not lmin < lmax:
        raise DomainError(f"need lambda_min < lambda_max, got {lmin} >= {lmax}")
    if scale == "log":
        if lmin <= 0:
            raise DomainError("log scale needs lambda_min > 0")
        a, b = math.log(lmin), math.log(lmax)
        vals = [math.exp(a + (b - a) * j / (points - 1)) for j in range(points)]
    else:
        vals = [lmin + (lmax - lmin) * j / (points - 1) for j in range(points)]
    vals[0], vals[-1] = lmin, lmax
    return vals


def _sweep_value(args, lam: float):
    quantity = args.quantity
    if quantity in ("D", "h", "g") and args.k != 3:
        raise DomainError(f"quantity {quantity} is defined for k=3 only")
    if quantity == "solutions":
        params = ModelParams(args.k, lam)
        return solve_two_periodic(params, args.tol).system_solution_count
    if quantity == "D":
        return discriminant_k3(lam)
    if quantity == "h":
        return h_function(lam)
    if quantity == "g":
        return g_function(lam)
    if quantity == "weakperiodic_count":
        wp = WeakPeriodicParams(args.k, args.i, lam)
        return solve_weak_periodic(wp, args.invariant_set, args.tol).count
    # reports come in solution order: the pair's, where it exists, is last
    rep = classify(ModelParams(args.k, lam), args.tol)[-1]
    if quantity == "s2":
        return rep.s2
    if quantity == "ks":
        return rep.ks_value
    if quantity == "msw":
        return rep.msw_value
    return rep.verdict.value


def _cmd_sweep(args):
    _need(args, "-k/--k", "k")
    lmin = _need(args, "-lmin/--lambda-min", "lambda_min")
    lmax = _need(args, "-lmax/--lambda-max", "lambda_max")
    if args.quantity is None:
        raise DomainError("missing required flag --quantity")
    grid = _grid(lmin, lmax, args.points, args.scale)
    values = [_sweep_value(args, lam) for lam in grid]
    doc = {
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
    csv = [f"lambda,{args.quantity}"]
    for lam, val in zip(grid, values):
        cell = val if isinstance(val, str) else (str(val) if isinstance(val, int) else _fmt(val))
        csv.append(f"{_fmt(lam)},{cell}")
    return doc, csv, None


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args):
    params = _params(args)
    depth = _need(args, "-n/--depth", "depth")
    root = RootDegree(args.root)
    doc = {"command": "oracle", "k": params.k, "lambda": params.lam, "depth": depth,
           "mode": args.mode, "root": root.value}

    if args.mode == "sample":
        report = solve_two_periodic(params, args.tol)
        z1, z2 = _pair(report) or report.solutions[0].values * 2
        result = sample_tree_chain(params, z1, z2, depth, args.samples, args.seed, root)
        violations = hard_core_violations(result.ball, result.spins)
        passed = violations == 0
        doc.update(samples=args.samples, seed=args.seed, violations=violations,
                   passed=passed, metadata=result.metadata)
        text = [f"mode=sample  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
                f"root={root.value}  samples={args.samples}  seed={args.seed}",
                f"z1={_fmt(z1)}  z2={_fmt(z2)}",
                f"adjacent occupied pairs: {violations}",
                "PASS" if passed else "FAIL"]
        return doc, None, text

    # exact enumeration is capped: refuse an oversized ball before building it
    _require_ball_enumerable(params.k, depth, root)
    ball = FiniteBall(params.k, depth, root)
    if args.mode == "periodic":
        report = solve_two_periodic(params, args.tol)
        values = _pair(report)
        if values is None:
            raise DomainError(
                "periodic mode needs an activity above the critical one "
                f"({_fmt(report.lambda_critical)})"
            )
        z1, z2 = values
        assignment = [z1 if ball.level[v] % 2 == 1 else z2 for v in range(ball.n_vertices)]
    else:
        z = solve_translation_invariant(params, args.tol)
        if args.mode == "perturbed":
            z += 0.1
        assignment, values = z, [z]
    deviation = consistency_check(ball, params.lam, assignment)
    passed = deviation < PASS_THRESHOLD
    doc.update(boundary_values=[float(v) for v in values], max_deviation=deviation,
               threshold=PASS_THRESHOLD, passed=passed)
    text = [f"mode={args.mode}  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
            f"root={root.value}  vertices={ball.n_vertices}",
            f"boundary values: {', '.join(_fmt(v) for v in values)}",
            f"max deviation = {_fmt(deviation)}  (threshold {_fmt(PASS_THRESHOLD)})",
            "PASS" if passed else "FAIL"]
    return doc, None, text


# ---------------------------------------------------------------------------
# critical / weak


def _cmd_critical(args):
    k = _need(args, "-k/--k", "k")
    cv = critical_values(k)
    eps = args.epsilon
    asym = asymptotic_bound(k, eps) if k >= 3 else None
    if k >= 6:
        s_minus, s_plus = s_pm(k)
        lam_minus, lam_plus = lambda_pm(k)
    else:
        s_minus = s_plus = lam_minus = lam_plus = None
    doc = {
        "command": "critical",
        "k": k,
        "epsilon": eps,
        "lambda_critical": cv.lambda_cr,
        "t_star": cv.t_star,
        "lambda_star": cv.lambda_star,
        "kesten_stigum_bound": cv.lambda_nonextremal,
        "asymptotic_bound": _num(asym),
        "s_minus": _num(s_minus),
        "s_plus": _num(s_plus),
        "lambda_minus": _num(lam_minus),
        "lambda_plus": _num(lam_plus),
    }
    rows = [
        ("lambda_critical (two-periodic pair appears above)", cv.lambda_cr),
        ("t_star (threshold polynomial root)", cv.t_star),
        ("lambda_star (invariant law proven extremal below)", cv.lambda_star),
        ("kesten_stigum_bound (invariant law non-extremal above)", cv.lambda_nonextremal),
    ]
    if asym is not None:
        rows.append((f"asymptotic_bound (large-k estimate, eps={eps:g})", asym))
    if s_plus is not None:
        rows.extend([
            ("s_minus (weak-periodic branch parameter)", s_minus),
            ("s_plus (weak-periodic branch parameter)", s_plus),
            ("lambda_minus (weak-periodic branch activity)", lam_minus),
            ("lambda_plus (weak-periodic branch activity)", lam_plus),
        ])
    csv = ["quantity,value", *(f"{name.split(' ', 1)[0]},{_fmt(value)}" for name, value in rows)]
    text = [f"k = {k}", *(f"  {name}: {_fmt(value)}" for name, value in rows)]
    return doc, csv, text


def _cmd_weak(args):
    params = _params(args)
    wp = WeakPeriodicParams(params.k, args.i, params.lam)
    report = solve_weak_periodic(wp, args.invariant_set, args.tol)
    found = list(zip(report.fixed_points, report.residuals, report.ti_flags))
    doc = {
        "command": "weak",
        "k": wp.k,
        "lambda": wp.lam,
        "i": wp.i,
        "invariant_set": report.invariant_set,
        "tol": args.tol,
        "count": report.count,
        "non_constant_count": report.non_ti_count,
        "fixed_points": [
            {"values": [float(v) for v in law.values], "residual": float(res),
             "constant": bool(flag)}
            for law, res, flag in found
        ],
    }
    csv = ["z1,z2,z3,z4,residual,constant"]
    text = [f"k={wp.k}  lambda={_fmt(wp.lam)}  i={wp.i}  set={report.invariant_set}",
            f"fixed points: {report.count}  (non-constant: {report.non_ti_count})"]
    for law, res, flag in found:
        vals = [_fmt(v) for v in law.values]
        csv.append(f"{','.join(vals)},{_fmt(res)},{str(bool(flag)).lower()}")
        tag = "constant" if flag else "non-constant"
        text.append(f"  ({', '.join(vals)})  residual={_fmt(res)}  [{tag}]")
    return doc, csv, text


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "critical": _cmd_critical,
    "weak": _cmd_weak,
}


def main(argv=None) -> int:
    parser, _ = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.config:
            parser, subs = _build_parser()
            sub = subs[args.command]
            sub.set_defaults(**_read_config(args.config, sub))
            args = parser.parse_args(argv)
        doc, csv, text = _DISPATCH[args.command](args)
        if args.json:
            lines = [json.dumps(doc, indent=2, allow_nan=False)]
        else:
            lines = csv if text is None or getattr(args, "csv", False) else text
        _emit("\n".join(lines) + "\n", getattr(args, "out", None))
        return 0
    except SystemExit as exc:  # argparse reports usage errors and --help this way
        return exc.code if isinstance(exc.code, int) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SizeCapError, InternalCheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
