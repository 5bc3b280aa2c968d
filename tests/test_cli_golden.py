"""Golden outputs of the `hctree` command: exit code, stdout and stderr of a
fixed command list, every subcommand in every format it accepts plus the
error paths, compared byte for byte with `cli_golden.json`.

The data file is written by this module:

    PYTHONPATH=src python tests/test_cli_golden.py --write

It prints each command whose entry it adds, removes or changes.

`{tmp}` in a command stands for a fresh temporary directory; it is put back
in place of that directory in stderr, and a command that writes
`{tmp}/out.csv` has the file's text recorded beside its stdout.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from hctree import cli
from hctree.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "cli_output.schema.json").read_text()
)
FORMATS = ("", " --csv", " --json")

COMMANDS = [
    *(f"solve -k {k} -l {lam}{fmt}"
      for k, lam in ((2, 2), (2, 4), (2, 5), (3, 1.6875), (3, 2), (4, 3), (6, 10))
      for fmt in FORMATS),
    *(f"classify -k {k} -l {lam}{fmt}"
      for k, lam in ((2, 2), (2, 5), (2, 30), (3, 2), (5, 7.5), (10, 1), (10, 1e8))
      for fmt in FORMATS),
    *(f"sweep {grid}{fmt}"
      for grid in (
          "-k 2 --quantity solutions -lmin 1 -lmax 10 -n 10",
          # counted from the critical activity where the pair underflows
          "-k 2 --quantity solutions -lmin 1e4 -lmax 1e300 -n 5 --scale log",
          "-k 3 --quantity D -lmin 1 -lmax 3 -n 9",
          "-k 3 --quantity h -lmin 1.6875016875 -lmax 100 -n 7 --scale log",
          "-k 3 --quantity g -lmin 1.6875016875 -lmax 100 -n 7 --scale log",
          "-k 4 --quantity s2 -lmin 1 -lmax 20 -n 6",
          "-k 2 --quantity ks -lmin 1 -lmax 40 -n 8 --scale log",
          "-k 5 --quantity msw -lmin 0.5 -lmax 30 -n 6 --scale log",
          "-k 2 --quantity verdict -lmin 1 -lmax 40 -n 12 --scale log",
          # every verdict regime at k >= 4: msw from the generic pair
          # bisection, the verdict decided without solving
          "-k 7 --quantity msw -lmin 0.1 -lmax 100 -n 40 --scale log",
          "-k 4 --quantity verdict -lmin 0.5 -lmax 40 -n 40",
          "-k 2 --quantity weakperiodic_count -lmin 3 -lmax 6 -n 4",
          "-k 6 --quantity weakperiodic_count --set I4 -lmin 4 -lmax 80 -n 3 --scale log",
      )
      for fmt in FORMATS),
    "sweep -k 3 --quantity D -lmin 1 -lmax 3 -n 5 --out {tmp}/out.csv",
    "sweep -k 2 --quantity verdict -lmin 1 -lmax 40 -n 5 --json --out {tmp}/out.csv",
    *(f"oracle {rest}{fmt}"
      for rest in (
          "-k 2 -l 2.5 -n 3",
          "-k 2 -l 5 -n 3 --mode periodic",
          "-k 2 -l 2.5 -n 3 --mode perturbed",
          "-k 3 -l 2 -n 2 --mode periodic",
          "-k 2 -l 2.5 -n 2 --root full",
          "-k 2 -l 5 -n 3 --mode sample --samples 1000 --seed 1",
          "-k 3 -l 1 -n 2 --mode sample --samples 500 --seed 7 --root full",
      )
      for fmt in ("", " --json")),
    # the spectral bound is finite at k = 503082 and passes the float range from
    # k = 512448 on: inf, JSON null
    *(f"critical -k {k}{fmt}" for k in (2, 3, 5, 6, 10, 503082, 512448) for fmt in FORMATS),
    "critical -k 4 --epsilon 0.5",
    *(f"weak {rest}{fmt}"
      for rest in (
          "-k 2 -l 5",
          "-k 2 -l 4",
          "-k 2 -l 6 --set I3",
          "-k 6 -l 10 --set I4",
          "-k 3 -l 3 -i 2",
      )
      for fmt in FORMATS),
    # error paths
    "",
    "frobnicate",
    "solve -l 5",
    "solve -k 2",
    "solve -k 1 -l 5",
    "solve -k 2 -l -3",
    "solve -k 2 -l 5 --tol -1",
    "solve -k 2 -l 5 --csv --json",
    "solve -k 2 -l 5 --config {tmp}/missing.cfg",
    # arguments the subcommand leaves over, and a leading --: top-level usage errors
    "solve -k 2 -l 5 extra",
    "classify -k 2 -l 5 -- -k 3",
    "-- solve -k 2 -l 5",
    # the two-cycle lies below the smallest positive float: exit code 1
    *(f"solve -k 100 -l 2000{fmt}" for fmt in FORMATS),
    # so does the fixed point itself: exit code 1 too
    *(f"{command} -k 10000000000000000000 -l 1.7976931348623157e308"
      for command in ("solve", "classify --json", "weak --set I3")),
    # below the critical activity I3 and I4 hold the constant point alone
    "weak -k 2 -l 1e-16 --set I3",
    "weak -k 3 -l 1e-13 --set I4 --json",
    "classify -k 0 -l 5 --json",
    "sweep -k 2 -lmin 1 -lmax 2",
    "sweep --quantity ks -lmin 1 -lmax 2",
    "sweep -k 2 --quantity D -lmin 1 -lmax 2",
    "sweep -k 2 --quantity ks -lmin 2 -lmax 1",
    "sweep -k 2 --quantity ks -lmin 1 -lmax 2 -n 1",
    "sweep -k 2 --quantity ks -lmin 1 -lmax 2 -n 262145",
    "sweep -k 2 --quantity ks -lmin 0 -lmax 2 --scale log",
    "sweep -k 3 --quantity h -lmin 1 -lmax 2 -n 3",
    "sweep -k 3 --quantity D -lmin 0 -lmax 2 -n 3",
    "sweep -k 2 --quantity ks -lmin 1 -lmax 2 --out {tmp}/missing/out.csv",
    # a sweep checks k, then every activity, before it solves any
    "sweep -k 4 --quantity verdict -lmin -1 -lmax 2 -n 3",
    "sweep -k 1 --quantity s2 -lmin -1 -lmax 3 -n 3",
    # a linear grid up to 1e308 stays finite: the solved sweep stops where the
    # pair underflows, the counted one reports every row
    "sweep -k 2 --quantity s2 -lmin 1 -lmax 1e308 -n 5",
    "sweep -k 2 --quantity solutions -lmin 1 -lmax 1e308 -n 5",
    # the verdict sweep decides past the pair's underflow without solving
    "sweep -k 100 --quantity verdict -lmin 0.01 -lmax 1e12 -n 400 --scale log",
    # at k = 10**6 the fixed point's gate refuses it at this activity: solve,
    # which prints it, exits 1; the msw sweep reads only the pair and exits 0
    "solve -k 1000000 -l 8.154857717661334e-06",
    "sweep --quantity msw -k 1000000 -lmin 8.154857717661334e-06 -lmax 1e-5 -n 2",
    "oracle -k 2 -l 5",
    "oracle -k 2 -l 2 -n 3 --mode periodic",
    "oracle -k 2 -l 5 -n 5",
    "oracle -k 2 -l 5 -n 0",
    "oracle -k 2 -l 5 -n -1",
    "oracle -k 2 -l 5 -n 3 --mode sample --samples 0",
    # the enumeration's float powers of the activity pass the float range: exit code 1
    "oracle -k 2 -l 1e15 -n 3 --root full",
    "critical",
    "critical -k 1",
    "critical -k 3 --epsilon -1",
    # eps is checked at every k, before anything is computed
    "critical -k 2 --epsilon -1",
    "critical -k 2 --epsilon nan --json",
    "weak -k 2 -l 5 -i 7",
    "weak -k 2 -l 5 --set I1",
    "weak -k 2 -l 5 --tol 0",
    # (1+lam)**2 overflows inside W at the pair, so its gate refuses the pair
    # that solve prints: exit code 1, with residual=nan
    "weak -k 2 -l 1.35e154",
]


def run_command(command: str) -> dict:
    """Exit code, stdout and stderr of one command, plus the --out file."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = command.replace("{tmp}", tmp).split()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        result = {"code": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue().replace(tmp, "{tmp}")}
        written = Path(tmp, "out.csv")
        if written.exists():
            result["file"] = written.read_text()
    return result


GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_the_command_list():
    assert len(COMMANDS) >= 100
    assert sorted(GOLDEN_DATA) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_golden(command):
    result = run_command(command)
    assert result == GOLDEN_DATA[command]
    if "--json" in command and result["code"] == 0:
        jsonschema.validate(json.loads(result.get("file", result["stdout"])), SCHEMA)


# the successful --json commands; the document is in stdout, or in the --out file
JSON_COMMANDS = [c for c in COMMANDS if "--json" in c and GOLDEN_DATA.get(c, {}).get("code") == 0]


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_is_two_space_indented(command):
    entry = GOLDEN_DATA[command]
    text = entry.get("file", entry["stdout"])
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_renders_without_json_dumps(command, monkeypatch):
    """Every golden document takes cli._dumps' fast path: a value it leaves to
    json.dumps (an Enum, a numpy scalar, an int key) fails here."""
    def refuse(*_, **__):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    assert run_command(command) == GOLDEN_DATA[command]


def test_parser_built_once_and_left_unchanged(monkeypatch, tmp_path):
    """All calls share one parser; usage errors and config files do not alter it."""
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    cli._shared_parser.cache_clear()
    for command, code in (("solve -k x", 2), ("solve --help", 0), ("weak -k 2 -l 5 --set I1", 2)):
        assert run_command(command)["code"] == code, command
    # the file's values fill in what the flags leave unset
    config = tmp_path / "run.cfg"
    config.write_text("k = 2\nlambda = 6\ncsv = true\n")
    assert run_command(f"solve --config {config} -l 5") == GOLDEN_DATA["solve -k 2 -l 5 --csv"]
    replays = ["", "frobnicate", "solve -k 2 -l 5 --csv --json", "solve -l 5",
               "solve -k 2 -l 5", "classify -k 2 -l 5 --json", "critical -k 6 --csv",
               "sweep -k 2 --quantity verdict -lmin 1 -lmax 40 -n 12 --scale log",
               "oracle -k 2 -l 5 -n 3 --mode periodic"]
    for command in replays:
        assert run_command(command) == GOLDEN_DATA[command], command
    assert len(builds) == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    golden = {c: run_command(c) for c in COMMANDS}
    # what moves, so a change can list its moved entries from this output
    for command in COMMANDS:
        if command not in GOLDEN_DATA:
            print(f"added: {command!r}")
        elif golden[command] != GOLDEN_DATA[command]:
            print(f"changed: {command!r}")
    for command in sorted(GOLDEN_DATA.keys() - golden.keys()):
        print(f"removed: {command!r}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {GOLDEN}")
