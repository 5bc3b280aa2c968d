"""bench/tracing.py against the package: it wraps the public functions it
spans and counts, a few commands run under it, and uninstall puts every
original back. A public name that the tracer names and the package drops
fails here, not first under `bench/run.py --trace 1`.

bench/tracing.py and the bench/reference.py it imports are loaded read-only.
"""

import importlib.util
import sys
from pathlib import Path

from hctree import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_around_cli_commands(capsys, monkeypatch):
    _load("reference", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    names = {name for names in tracing.SPANNED.values() for name in names}
    names |= {name for _, name in tracing.COUNTED}

    def attributes():
        return {(module.__name__, name): module.__dict__.get(name)
                for module in tracing.MODULES for name in names}

    before = attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert attributes() != before
        assert cli.main(["solve", "-k", "4", "-l", "3"]) == 0
        assert tracer.span_calls()["solvers.solve_two_periodic"] == 1
        for argv in (["classify", "-k", "3", "-l", "2"], ["weak", "-k", "2", "-l", "5"],
                     ["sweep", "-k", "7", "--quantity", "msw", "-lmin", "0.1", "-lmax", "100",
                      "-n", "10", "--scale", "log"]):
            assert cli.main(argv) == 0, argv
        assert tracer.span_calls()["cli.main"] == 4
    finally:
        tracer.uninstall()
    assert attributes() == before
    capsys.readouterr()


def test_tracer_counts_one_gate_call_per_reported_point(capsys, monkeypatch):
    # solve_weak_periodic maps each of a plane's 3 points through W once, its
    # residual gate; the solvers before it never call W
    _load("reference", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = 0
        for argv in (["weak", "-k", "2", "-l", "5"],
                     ["weak", "-k", "6", "-i", "1", "-l", "10", "--set", "I4"]):
            assert cli.main(argv) == 0, argv
            # read once per command: each read advances the counter by one
            total = tracer.counts()["weakperiodic.map_calls"]
            assert total - seen == 3, argv
            seen = total + 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
