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


def _emit_json(payload: dict, out_path: str | None = None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


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


# ---------------------------------------------------------------------------
# solve / classify


def _law_entry(law, residual) -> dict:
    return {
        "kind": law.kind.value,
        "values": [float(v) for v in law.values],
        "residual": float(residual),
    }


def _cmd_solve(args) -> int:
    params = ModelParams(_need(args, "-k/--k", "k"), _need(args, "-l/--lambda", "lam"))
    report = solve_two_periodic(params, args.tol)
    if args.json:
        _emit_json({
            "command": "solve",
            "k": params.k,
            "lambda": params.lam,
            "tol": args.tol,
            "lambda_critical": report.lambda_critical,
            "system_solution_count": report.system_solution_count,
            "degenerate_double_root": report.degenerate_double_root,
            "solutions": [
                _law_entry(law, res)
                for law, res in zip(report.solutions, report.residuals)
            ],
        })
        return 0
    if args.csv:
        lines = ["kind,z1,z2,residual"]
        for law, res in zip(report.solutions, report.residuals):
            z2 = _fmt(law.values[1]) if len(law.values) > 1 else ""
            lines.append(f"{law.kind.value},{_fmt(law.values[0])},{z2},{_fmt(res)}")
        _emit("\n".join(lines) + "\n", None)
        return 0
    print(f"k={params.k}  lambda={_fmt(params.lam)}  "
          f"critical activity={_fmt(report.lambda_critical)}")
    print(f"ordered system solutions: {report.system_solution_count}")
    if report.degenerate_double_root:
        print("note: at the bifurcation point the pair collapses onto the fixed point")
    for law, res in zip(report.solutions, report.residuals):
        vals = "  ".join(f"z{idx + 1}={_fmt(v)}" for idx, v in enumerate(law.values)) \
            if len(law.values) > 1 else f"z={_fmt(law.values[0])}"
        print(f"  {law.kind.value:22s} {vals}  residual={_fmt(res)}")
    return 0


def _report_entry(rep) -> dict:
    return {
        "kind": rep.law.kind.value,
        "values": [float(v) for v in rep.law.values],
        "k_eff": rep.k_eff,
        "s2": _num(rep.s2),
        "kappa": _num(rep.kappa),
        "gamma": _num(rep.gamma),
        "ks_value": _num(rep.ks_value),
        "msw_value": _num(rep.msw_value),
        "martinelli_value": _num(rep.martinelli_value),
        "martinelli_no_reconstruction": rep.martinelli_no_reconstruction,
        "mossel_value": _num(rep.mossel_value),
        "mossel_no_reconstruction": rep.mossel_no_reconstruction,
        "verdict": rep.verdict.value,
    }


_CLASSIFY_COLUMNS = ("kind", "z1", "z2", "k_eff", "s2", "kappa", "gamma", "ks_value",
                     "msw_value", "martinelli_value", "mossel_value", "verdict")


def _cmd_classify(args) -> int:
    params = ModelParams(_need(args, "-k/--k", "k"), _need(args, "-l/--lambda", "lam"))
    reports = classify(params, args.tol)
    if args.json:
        _emit_json({
            "command": "classify",
            "k": params.k,
            "lambda": params.lam,
            "tol": args.tol,
            "reports": [_report_entry(r) for r in reports],
        })
        return 0
    if args.csv:
        lines = [",".join(_CLASSIFY_COLUMNS)]
        for r in reports:
            z2 = _fmt(r.law.values[1]) if len(r.law.values) > 1 else ""
            lines.append(",".join((
                r.law.kind.value, _fmt(r.law.values[0]), z2, str(r.k_eff),
                _fmt(r.s2), _fmt(r.kappa), _fmt(r.gamma), _fmt(r.ks_value),
                _fmt(r.msw_value), _fmt(r.martinelli_value), _fmt(r.mossel_value),
                r.verdict.value,
            )))
        _emit("\n".join(lines) + "\n", None)
        return 0
    print(f"k={params.k}  lambda={_fmt(params.lam)}")
    for r in reports:
        vals = ", ".join(_fmt(v) for v in r.law.values)
        print(f"  {r.law.kind.value}  z=({vals})")
        print(f"    k_eff={r.k_eff}  s2={_fmt(r.s2)}  kappa={_fmt(r.kappa)}  "
              f"gamma<={_fmt(r.gamma)}")
        print(f"    spectral value={_fmt(r.ks_value)}  contraction value={_fmt(r.msw_value)}")
        print(f"    reconstruction tests: {_fmt(r.martinelli_value)} "
              f"(ok={r.martinelli_no_reconstruction}), {_fmt(r.mossel_value)} "
              f"(ok={r.mossel_no_reconstruction})")
        print(f"    verdict: {r.verdict.value}")
    return 0


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


def _pair_or_single_report(params: ModelParams, tol: float):
    """The alternating pair's diagnostics above the bifurcation, else the
    invariant law's."""
    reports = classify(params, tol)
    for rep in reports:
        if rep.law.kind is LawKind.TWO_PERIODIC:
            return rep
    return reports[0]


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
    rep = _pair_or_single_report(ModelParams(args.k, lam), args.tol)
    if quantity == "s2":
        return rep.s2
    if quantity == "ks":
        return rep.ks_value
    if quantity == "msw":
        return rep.msw_value
    return rep.verdict.value


def _cmd_sweep(args) -> int:
    _need(args, "-k/--k", "k")
    lmin = _need(args, "-lmin/--lambda-min", "lambda_min")
    lmax = _need(args, "-lmax/--lambda-max", "lambda_max")
    if args.quantity is None:
        raise DomainError("missing required flag --quantity")
    grid = _grid(lmin, lmax, args.points, args.scale)
    values = [_sweep_value(args, lam) for lam in grid]

    if args.json:
        rows = [
            {"lambda": lam, "value": val if isinstance(val, (int, str)) else _num(val)}
            for lam, val in zip(grid, values)
        ]
        _emit_json({
            "command": "sweep",
            "k": args.k,
            "quantity": args.quantity,
            "scale": args.scale,
            "lambda_min": lmin,
            "lambda_max": lmax,
            "points": args.points,
            "i": args.i,
            "invariant_set": args.invariant_set,
            "rows": rows,
        }, args.out)
        return 0
    lines = [f"lambda,{args.quantity}"]
    for lam, val in zip(grid, values):
        cell = val if isinstance(val, str) else (str(val) if isinstance(val, int) else _fmt(val))
        lines.append(f"{_fmt(lam)},{cell}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    params = ModelParams(_need(args, "-k/--k", "k"), _need(args, "-l/--lambda", "lam"))
    depth = _need(args, "-n/--depth", "depth")
    root = RootDegree(args.root)

    if args.mode == "sample":
        report = solve_two_periodic(params, args.tol)
        pair = next((law for law in report.solutions
                     if law.kind is LawKind.TWO_PERIODIC), None)
        if pair is not None:
            z1, z2 = pair.values
        else:
            z1 = z2 = report.solutions[0].values[0]
        result = sample_tree_chain(params, z1, z2, depth, args.samples, args.seed, root)
        violations = hard_core_violations(result.ball, result.spins)
        passed = violations == 0
        if args.json:
            _emit_json({
                "command": "oracle",
                "k": params.k,
                "lambda": params.lam,
                "depth": depth,
                "mode": args.mode,
                "root": root.value,
                "samples": args.samples,
                "seed": args.seed,
                "violations": violations,
                "passed": passed,
                "metadata": result.metadata,
            })
            return 0
        print(f"mode=sample  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
              f"root={root.value}  samples={args.samples}  seed={args.seed}")
        print(f"z1={_fmt(z1)}  z2={_fmt(z2)}")
        print(f"adjacent occupied pairs: {violations}")
        print("PASS" if passed else "FAIL")
        return 0

    ball = FiniteBall(params.k, depth, root)
    if args.mode == "ti":
        z = solve_translation_invariant(params, args.tol)
        assignment = z
        values = [z]
    elif args.mode == "perturbed":
        z = solve_translation_invariant(params, args.tol) + 0.1
        assignment = z
        values = [z]
    else:
        report = solve_two_periodic(params, args.tol)
        pair = next((law for law in report.solutions
                     if law.kind is LawKind.TWO_PERIODIC), None)
        if pair is None:
            raise DomainError(
                "periodic mode needs an activity above the critical one "
                f"({_fmt(report.lambda_critical)})"
            )
        z1, z2 = pair.values
        assignment = [z1 if ball.level[v] % 2 == 1 else z2
                      for v in range(ball.n_vertices)]
        values = [z1, z2]
    deviation = consistency_check(ball, params.lam, assignment)
    passed = deviation < PASS_THRESHOLD
    if args.json:
        _emit_json({
            "command": "oracle",
            "k": params.k,
            "lambda": params.lam,
            "depth": depth,
            "mode": args.mode,
            "root": root.value,
            "boundary_values": [float(v) for v in values],
            "max_deviation": deviation,
            "threshold": PASS_THRESHOLD,
            "passed": passed,
        })
        return 0
    print(f"mode={args.mode}  k={params.k}  lambda={_fmt(params.lam)}  depth={depth}  "
          f"root={root.value}  vertices={ball.n_vertices}")
    print(f"boundary values: {', '.join(_fmt(v) for v in values)}")
    print(f"max deviation = {_fmt(deviation)}  (threshold {_fmt(PASS_THRESHOLD)})")
    print("PASS" if passed else "FAIL")
    return 0


# ---------------------------------------------------------------------------
# critical / weak


def _cmd_critical(args) -> int:
    k = _need(args, "-k/--k", "k")
    cv = critical_values(k)
    eps = args.epsilon
    asym = asymptotic_bound(k, eps) if k >= 3 else None
    if k >= 6:
        s_minus, s_plus = s_pm(k)
        lam_minus, lam_plus = lambda_pm(k)
    else:
        s_minus = s_plus = lam_minus = lam_plus = None

    if args.json:
        _emit_json({
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
        })
        return 0

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
    if args.csv:
        lines = ["quantity,value"]
        lines += [f"{name.split(' ', 1)[0]},{_fmt(value)}" for name, value in rows]
        _emit("\n".join(lines) + "\n", None)
        return 0
    print(f"k = {k}")
    for name, value in rows:
        print(f"  {name}: {_fmt(value)}")
    return 0


def _cmd_weak(args) -> int:
    wp = WeakPeriodicParams(
        _need(args, "-k/--k", "k"), args.i, _need(args, "-l/--lambda", "lam")
    )
    report = solve_weak_periodic(wp, args.invariant_set, args.tol)
    if args.json:
        _emit_json({
            "command": "weak",
            "k": wp.k,
            "lambda": wp.lam,
            "i": wp.i,
            "invariant_set": report.invariant_set,
            "tol": args.tol,
            "count": report.count,
            "non_constant_count": report.non_ti_count,
            "fixed_points": [
                {
                    "values": [float(v) for v in law.values],
                    "residual": float(res),
                    "constant": bool(flag),
                }
                for law, res, flag in zip(
                    report.fixed_points, report.residuals, report.ti_flags
                )
            ],
        })
        return 0
    if args.csv:
        lines = ["z1,z2,z3,z4,residual,constant"]
        for law, res, flag in zip(report.fixed_points, report.residuals, report.ti_flags):
            vals = ",".join(_fmt(v) for v in law.values)
            lines.append(f"{vals},{_fmt(res)},{str(bool(flag)).lower()}")
        _emit("\n".join(lines) + "\n", None)
        return 0
    print(f"k={wp.k}  lambda={_fmt(wp.lam)}  i={wp.i}  set={report.invariant_set}")
    print(f"fixed points: {report.count}  (non-constant: {report.non_ti_count})")
    for law, res, flag in zip(report.fixed_points, report.residuals, report.ti_flags):
        vals = ", ".join(_fmt(v) for v in law.values)
        tag = "constant" if flag else "non-constant"
        print(f"  ({vals})  residual={_fmt(res)}  [{tag}]")
    return 0


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
    parser, subs = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.config:
            subs[args.command].set_defaults(**_read_config(args.config, subs[args.command]))
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SizeCapError, InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
