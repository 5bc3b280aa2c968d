"""The benchmark's workloads: fixed lists of calls, each with its output check.

A call is either an `hctree` command line, run through `hctree.cli.main`
with its output captured, or a call of the public oracle API. Every check
compares against `reference`, which shares no code with the package.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from hctree import critical_values, oracle

import reference as ref

TEXT, CSV, JSON = "text", "csv", "json"
FORMAT_FLAGS = {TEXT: [], CSV: ["--csv"], JSON: ["--json"]}


class Mismatch(AssertionError):
    """The program's output disagrees with the reference."""


@dataclass(frozen=True)
class Call:
    label: str
    check: Callable[[str, Any], None]  # (format, output) -> raises Mismatch
    argv: tuple[str, ...] = ()
    formats: tuple[str, ...] = (TEXT, CSV, JSON)
    sampler: bool = False  # takes a --seed drawn from the workload seed
    api: Callable[[], Any] | None = None


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _close(got, want, what, rel=1e-9, abs_tol=0.0):
    _expect(
        got is not None and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol),
        f"{what}: got {got!r}, want {want!r}",
    )


# Certificate values are only ever compared against 1, and the program
# forms some of them as differences of matrix entries, so a value of 1e-15
# carries an absolute rounding error of about 1e-15. Below 1e-12 only the
# absolute error is meaningful.
def _close_cert(got, want, what):
    _close(got, want, what, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# parsing every output format into one record


def _floats(text):
    return [float(t) for t in text.replace(",", " ").split()]


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _csv_values(row, *names):
    return tuple(float(row[n]) for n in names if row[n] != "")


def parse_solve(fmt, out):
    if fmt == JSON:
        doc = json.loads(out)
        return doc["system_solution_count"], [
            (s["kind"], tuple(s["values"])) for s in doc["solutions"]
        ]
    if fmt == CSV:
        laws = [(r["kind"], _csv_values(r, "z1", "z2")) for r in _csv_rows(out)]
        return None, laws
    count = int(re.search(r"^ordered system solutions: (\d+)$", out, re.M).group(1))
    laws = []
    for line in out.splitlines():
        if line.startswith("  "):
            kind, *fields = line.split()
            laws.append((kind, tuple(float(f.split("=")[1]) for f in fields if f.startswith("z"))))
    return count, laws


_CERTS = ("s2", "kappa", "gamma", "ks_value", "msw_value", "martinelli_value", "mossel_value")


def parse_classify(fmt, out):
    if fmt == JSON:
        return [
            dict(r, values=tuple(r["values"])) for r in json.loads(out)["reports"]
        ]
    if fmt == CSV:
        return [
            dict(
                {n: float(r[n]) for n in _CERTS},
                kind=r["kind"],
                values=_csv_values(r, "z1", "z2"),
                k_eff=int(r["k_eff"]),
                verdict=r["verdict"],
            )
            for r in _csv_rows(out)
        ]
    blocks = re.findall(
        r"^  (\S+)  z=\(([^)]*)\)\n"
        r"    k_eff=(\d+)  s2=(\S+)  kappa=(\S+)  gamma<=(\S+)\n"
        r"    spectral value=(\S+)  contraction value=(\S+)\n"
        r"    reconstruction tests: (\S+) \(ok=\w+\), (\S+) \(ok=\w+\)\n"
        r"    verdict: (\S+)$",
        out,
        re.M,
    )
    return [
        dict(
            zip(_CERTS, map(float, (s2, kap, gam, ks, msw, mart, mos))),
            kind=kind,
            values=tuple(_floats(vals)),
            k_eff=int(k_eff),
            verdict=verdict,
        )
        for kind, vals, k_eff, s2, kap, gam, ks, msw, mart, mos, verdict in blocks
    ]


def parse_critical(fmt, out):
    if fmt == JSON:
        skip = {"command", "k", "epsilon"}
        return {k: v for k, v in json.loads(out).items() if k not in skip and v is not None}
    if fmt == CSV:
        return {r["quantity"]: float(r["value"]) for r in _csv_rows(out)}
    return {
        name: float(value)
        for name, value in re.findall(r"^  (\w+) .*: (\S+)$", out, re.M)
    }


def parse_weak(fmt, out):
    """(count, non-constant count, [(values, constant flag)])."""
    if fmt == JSON:
        doc = json.loads(out)
        points = [(tuple(p["values"]), p["constant"]) for p in doc["fixed_points"]]
        return doc["count"], doc["non_constant_count"], points
    if fmt == CSV:
        points = [
            (_csv_values(r, "z1", "z2", "z3", "z4"), r["constant"] == "true")
            for r in _csv_rows(out)
        ]
        return len(points), sum(not c for _, c in points), points
    count, non_constant = map(
        int, re.search(r"^fixed points: (\d+)  \(non-constant: (\d+)\)$", out, re.M).groups()
    )
    points = [
        (tuple(_floats(vals)), tag == "constant")
        for vals, tag in re.findall(r"^  \(([^)]*)\)  residual=\S+  \[(\S+)\]$", out, re.M)
    ]
    return count, non_constant, points


def parse_sweep(fmt, out, cast):
    if fmt == JSON:
        return [(r["lambda"], r["value"]) for r in json.loads(out)["rows"]]
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    return [(float(lam), cast(value)) for lam, value in rows]


def parse_oracle(fmt, out):
    """(passed, max deviation or violation count, boundary values or None)."""
    if fmt == JSON:
        doc = json.loads(out)
        measure = doc["violations"] if "violations" in doc else doc["max_deviation"]
        return doc["passed"], measure, doc.get("boundary_values")
    lines = out.strip().split("\n")
    passed = {"PASS": True, "FAIL": False}[lines[-1]]
    pairs = re.search(r"^adjacent occupied pairs: (\d+)$", out, re.M)
    if pairs:
        return passed, int(pairs.group(1)), None
    dev = float(re.search(r"^max deviation = (\S+) ", out, re.M).group(1))
    values = _floats(re.search(r"^boundary values: (.*)$", out, re.M).group(1))
    return passed, dev, values


# ---------------------------------------------------------------------------
# checks


def _check_laws(laws, k, lam, what):
    want = ref.laws(k, lam)
    _expect([kind for kind, _ in laws] == [kind for kind, _ in want], f"{what}: law kinds {laws}")
    for (_, got), (kind, values) in zip(laws, want):
        _expect(len(got) == len(values), f"{what}: {kind} values {got}")
        for g, w in zip(got, values):
            _close(g, w, f"{what}: {kind} value")


def check_solve(k, lam):
    def check(fmt, out):
        count, laws = parse_solve(fmt, out)
        _check_laws(laws, k, lam, "solve")
        _expect(count in (None, 1 if len(laws) == 1 else 3), f"solve: count {count}")

    return check


def _check_report(rep, k, lam, law, what):
    want = ref.chain_values(k, lam, law)
    _expect(rep["k_eff"] == want["k_eff"], f"{what}: k_eff {rep['k_eff']}")
    for name in _CERTS:
        _close_cert(rep[name], want[name], f"{what}: {name}")
    allowed = ref.verdicts(want)
    _expect(rep["verdict"] in allowed, f"{what}: verdict {rep['verdict']} not in {allowed}")


def check_classify(k, lam):
    def check(fmt, out):
        reports = parse_classify(fmt, out)
        _check_laws([(r["kind"], r["values"]) for r in reports], k, lam, "classify")
        for rep, law in zip(reports, ref.laws(k, lam)):
            _check_report(rep, k, lam, law, f"classify {law[0]}")

    return check


def check_critical(k):
    def check(fmt, out):
        got, want = parse_critical(fmt, out), ref.critical(k)
        _expect(set(got) == set(want), f"critical: fields {sorted(got)}")
        for name, value in want.items():
            _close(got[name], value, f"critical: {name}")

    return check


def check_weak(k, i, lam, plane, count):
    """count: the exact number of fixed points on the plane (see
    exact_weak_counts.py). Exactly one of them is constant."""

    def check(fmt, out):
        got_count, non_constant, points = parse_weak(fmt, out)
        _expect(got_count == count, f"weak: {got_count} fixed points, want {count}")
        _expect(non_constant == count - 1, f"weak: {non_constant} non-constant points")
        _expect(len(points) == count, f"weak: {len(points)} points listed")
        for z, constant in points:
            _expect(ref.PLANES[plane](z), f"weak: {z} is off plane {plane}")
            scale = max(1.0, *z)
            residual = max(abs(a - b) for a, b in zip(ref.weak_map(k, i, lam, z), z))
            _expect(residual <= 1e-9 * scale, f"weak: {z} has residual {residual}")
            _expect(constant == (max(z) - min(z) <= 1e-6 * scale), f"weak: {z} flagged {constant}")

    return check


def sweep_grid(lmin, lmax, points, log):
    """The activity grid `hctree sweep` promises: evenly spaced, ends exact."""
    if log:
        a, b = math.log(lmin), math.log(lmax)
        grid = [math.exp(a + (b - a) * j / (points - 1)) for j in range(points)]
    else:
        grid = [lmin + (lmax - lmin) * j / (points - 1) for j in range(points)]
    grid[0], grid[-1] = lmin, lmax
    return grid


def check_sweep(grid, cast, check_value):
    def check(fmt, out):
        rows = parse_sweep(fmt, out, cast)
        _expect(len(rows) == len(grid), f"sweep: {len(rows)} rows")
        for (lam, value), want_lam in zip(rows, grid):
            _close(lam, want_lam, "sweep: lambda", rel=1e-14)
            check_value(want_lam, value)

    return check


def check_oracle(k, depth, full, lam, mode):
    if mode == "periodic":
        z1, z2 = ref.pair(k, lam)
        values = [z1, z2]
        z_at_level = lambda lev: z1 if lev % 2 else z2  # noqa: E731
    else:
        z = ref.fixed_point(k, lam) + (0.1 if mode == "perturbed" else 0.0)
        values = [z]
        z_at_level = lambda lev: z  # noqa: E731
    deviation = ref.consistency_deviation(k, depth, full, lam, z_at_level)

    def check(fmt, out):
        passed, dev, got_values = parse_oracle(fmt, out)
        _expect(passed == (mode != "perturbed"), f"oracle {mode}: passed={passed}")
        _close(dev, deviation, f"oracle {mode}: max deviation", abs_tol=1e-12)
        _expect(len(got_values) == len(values), f"oracle {mode}: values {got_values}")
        for g, w in zip(got_values, values):
            _close(g, w, f"oracle {mode}: boundary value")

    return check


def check_sample(fmt, out):
    passed, violations, _ = parse_oracle(fmt, out)
    _expect(passed and violations == 0, f"sample: {violations} adjacent occupied pairs")


def check_equal(want, what, rel=None):
    def check(_fmt, got):
        if rel is None:
            _expect(got == want, f"{what}: got {got!r}, want {want!r}")
        else:
            _close(got, float(want), what, rel=rel)

    return check


# ---------------------------------------------------------------------------
# the workloads


def _weak_scan():
    # (k, i, plane, activity, number of fixed points); the counts are exact,
    # from resultant elimination in exact_weak_counts.py
    points = [
        (2, 1, "I2", "5", 3),
        (2, 1, "I2", "4.001", 3),
        (2, 1, "I2", "4", 1),  # the bifurcation: Newton's slowest case
        (3, 1, "I2", "3", 3),
        (4, 2, "I2", "2", 3),
        (6, 1, "I4", "10", 3),
        (6, 1, "I4", "70", 1),
        (2, 1, "I3", "3", 1),
    ]
    calls = [
        Call(
            f"weak k={k} i={i} {plane} lambda={lam}",
            check_weak(k, i, float(lam), plane, count),
            ("weak", "-k", str(k), "-i", str(i), "--set", plane, "-l", lam),
        )
        for k, i, plane, lam, count in points
    ]
    # one point below the k=2 bifurcation at 4 and three at each of the two
    # activities above it; runs through the sweep's thread pool
    counts = dict(zip(sweep_grid(3.0, 6.0, 3, False), (1, 3, 3)))
    calls.append(
        Call(
            "sweep weakperiodic_count k=2",
            check_sweep(
                list(counts),
                int,
                lambda lam, v: _expect(v == counts[lam], f"sweep: {v} points at {lam}"),
            ),
            ("sweep", "--quantity", "weakperiodic_count", "-k", "2",
             "-lmin", "3", "-lmax", "6", "-n", "3"),
        )
    )
    return calls


def _sweep_call(k, quantity, lmin, lmax, log, cast, check_value):
    argv = ["sweep", "--quantity", quantity, "-k", str(k),
            "-lmin", str(lmin), "-lmax", str(lmax), "-n", "1000"]
    if log:
        argv += ["--scale", "log"]
    grid = sweep_grid(lmin, lmax, 1000, log)
    return Call(f"sweep {quantity} k={k}", check_sweep(grid, cast, check_value), tuple(argv))


def _closed_form():
    calls = []
    for k in range(2, 11):
        cv = critical_values(k)
        # the two thresholds are where a verdict turns on the last bit of a float
        for lam in (0.5, 1.0, cv.lambda_cr, 1.01 * cv.lambda_cr, cv.lambda_star,
                    cv.lambda_nonextremal, 2.0 * cv.lambda_nonextremal, 40.0):
            args = ("-k", str(k), "-l", repr(lam))
            calls.append(Call(f"solve k={k} lambda={lam!r}", check_solve(k, lam),
                              ("solve", *args)))
            calls.append(Call(f"classify k={k} lambda={lam!r}", check_classify(k, lam),
                              ("classify", *args)))
        calls.append(Call(f"critical k={k}", check_critical(k), ("critical", "-k", str(k))))

    def verdict_ok(lam, v):
        allowed = ref.verdicts(ref.chain_values(4, lam, ref.pair_or_single(4, lam)))
        _expect(v in allowed, f"sweep verdict at {lam}: {v} not in {allowed}")

    def msw_ok(lam, v):
        want = ref.chain_values(7, lam, ref.pair_or_single(7, lam))["msw_value"]
        _close_cert(v, want, f"sweep msw at {lam}")

    calls += [
        _sweep_call(4, "verdict", 0.5, 40.0, False, str, verdict_ok),
        _sweep_call(3, "h", 2.0, 40.0, False, float,
                    lambda lam, v: _close_cert(v, ref.h_value(lam), f"sweep h at {lam}")),
        _sweep_call(7, "msw", 0.1, 100.0, True, float, msw_ok),
    ]
    return calls


def _finite_ball():
    calls = []
    # balls of 22, 13, 17 and 21 vertices; each activity is above the
    # critical one so the periodic mode has a pair
    for k, depth, root, lam in ((2, 3, "full", 5.0), (3, 2, "half", 2.0),
                                (3, 2, "full", 2.0), (4, 2, "half", 2.0)):
        for mode in ("ti", "periodic", "perturbed"):
            calls.append(Call(
                f"oracle {mode} k={k} n={depth} {root}",
                check_oracle(k, depth, root == "full", lam, mode),
                ("oracle", "-k", str(k), "-l", str(lam), "-n", str(depth),
                 "--root", root, "--mode", mode),
                formats=(TEXT, JSON),
            ))
    # the sampler allocates count x vertices float64 uniforms
    for k, depth, samples, lam in ((2, 6, 100_000, 5.0), (2, 8, 20_000, 5.0), (3, 5, 20_000, 2.0)):
        calls.append(Call(
            f"oracle sample k={k} n={depth} samples={samples}",
            check_sample,
            ("oracle", "-k", str(k), "-l", str(lam), "-n", str(depth), "--mode", "sample",
             "--samples", str(samples)),
            formats=(TEXT, JSON),
            sampler=True,
        ))

    # count_admissible(FiniteBall(3, 3)) is left out: its 40 vertices pass
    # the enumeration cap, but auto mode's DFS then walks 2.3e9 configurations.
    third = Fraction(3, 10)
    calls += [
        Call(
            "count_admissible k=2 n=4",
            check_equal(ref.admissible_count(2, 4, False), "count_admissible"),
            api=lambda: oracle.count_admissible(oracle.FiniteBall(2, 4)),
        ),
        # Raises InternalCheckError in the default mode: recursion and
        # enumeration differ by 1.3e-12 relative against a 1e-12 bound. It
        # stays in the mix as a failed call until that check is fixed.
        Call(
            "partition_function k=4 n=2 float",
            check_equal(sum(ref.partition_pair(4, 2, False, third, third)), "partition_function",
                        rel=1e-9),
            api=lambda: oracle.partition_function(oracle.FiniteBall(4, 2), 0.3, 0.3),
        ),
        Call(
            "partition_function k=2 n=3 full Fraction",
            check_equal(sum(ref.partition_pair(2, 3, True, third, third)), "partition_function"),
            api=lambda: oracle.partition_function(oracle.FiniteBall(2, 3, "full"), third, third),
        ),
        Call(
            "root_marginal k=3 n=3 Fraction",
            check_equal(_marginal(3, 3, third), "root_marginal"),
            api=lambda: oracle.root_marginal(oracle.FiniteBall(3, 3), third, third),
        ),
    ]
    return calls


def _marginal(k, depth, lam):
    free, occupied = ref.partition_pair(k, depth, False, lam, lam)
    return occupied / (free + occupied)


WORKLOADS = {
    "weak_scan": _weak_scan,
    "closed_form": _closed_form,
    "finite_ball": _finite_ball,
}
