"""The ``repro-power`` argument parser as a trust boundary.

Every command has its own parser.  A hypothesis search over argv draws,
for each command, its own flags and other commands' flags with values
that are non-finite, zero, negative, huge, non-numeric or unknown
names; each run must exit 0, exit 1 with a one-line message or exit 2
with usage, never print a traceback, and an exit 2 must leave nothing
behind.  Only what simulates, trains, calibrates or binds is stubbed.
Every ``repro-power`` line the documentation shows must parse.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import os
import re
import shlex
import tempfile
from io import StringIO
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli, obs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _commands() -> "dict[str, argparse.ArgumentParser]":
    parser = cli._parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


COMMANDS = _commands()
OWN = {
    name: sorted(
        option
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )
    for name, sub in COMMANDS.items()
}
EVERY_FLAG = sorted({flag for flags in OWN.values() for flag in flags})
VALUES = [
    "nan", "inf", "-inf", "0", "-1", "-0.5", "0.5", "1", "2", "5", "9", "20",
    "1e308", "-1e308", "1e-300", "99999999999999999999", "abc", "", "gcc",
    "nosuch", "gcc,nosuch", ",", "cpu", "5,21", "x,1", "5m", "65536",
]

#: A valid positional where it is not a workload.
POSITIONAL = {
    "select": "cpu", "query": "drift_error_pct", "sweep": "gcc,mcf", "obs": "out",
}


class _Reached(Exception):
    """A stub was called: the arguments passed every check."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.fixture()
def stubs(monkeypatch):
    for target in (
        "repro.obs.http.ObservabilityServer.start",
        "repro.analysis.experiments.ExperimentContext.run",
        "repro.analysis.experiments.ExperimentContext.runs",
        "repro.analysis.experiments.ExperimentContext.paper_suite",
        "repro.analysis.experiments.ExperimentContext.l3_suite",
        "repro.exec.sweep_specs",
        "repro.dc.run_scenario",
    ):
        monkeypatch.setattr(target, _reached)
    # The calibrated peak is data: the cap's overflow check runs on it.
    monkeypatch.setattr(
        "repro.dc.train_zone_bank",
        lambda *args, **kwargs: SimpleNamespace(reference_peak_w=250.0),
    )


def _usage_error(err: str) -> bool:
    """Usage, then one ``repro-power ...: error: ...`` line, last."""
    lines = err.splitlines()
    return bool(lines) and re.match(r"repro-power[\w -]*: error: ", lines[-1]) and (
        re.search(r"^usage: repro-power", err, re.M) is not None
    )


def _run(argv: "list[str]") -> "tuple[object, str, str, list[str]]":
    """``main(argv)`` in a fresh empty directory; returns the outcome
    (an exit code, or ``_Reached``), stdout, stderr and what it left."""
    here = os.getcwd()
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    outcome = cli.main(argv)
                except SystemExit as exit_:
                    outcome = exit_.code
                except _Reached:
                    outcome = _Reached
            left = sorted(os.listdir(scratch))
        finally:
            os.chdir(here)
            obs.disable()
            obs.reset()
    return outcome, out.getvalue(), err.getvalue(), left


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if draw(st.booleans()):
        valid = POSITIONAL.get(command, "gcc")
        argv.append(draw(st.one_of(st.just(valid), st.sampled_from(VALUES))))
    for _ in range(draw(st.integers(0, 4))):
        own = OWN[command] and draw(st.integers(0, 3))
        argv.append(draw(st.sampled_from(OWN[command] if own else EVERY_FLAG)))
        if draw(st.integers(0, 4)):
            argv.append(draw(st.sampled_from(VALUES)))
    return argv


class TestArgvFuzz:
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=argvs())
    def test_every_argv_exits_cleanly(self, stubs, argv):
        outcome, out, err, left = _run(argv)
        assert "Traceback" not in out + err, out + err
        if outcome == 2:
            assert _usage_error(err), err
            assert left == [], left
        elif outcome == 1:
            # One line, then what --telemetry and --flight-dir wrote.
            lines = [
                line for line in (out + err).splitlines()
                if not re.match(r"(telemetry|flight): wrote ", line)
            ]
            assert len(lines) == 1, out + err
        else:
            assert outcome in (0, _Reached), (outcome, out, err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["list", "--port", "99"],
            ["fig1", "--shards", "3"],
            ["list", "--port", "99", "--store", "DIR", "--replay", "gcc", "--fleet", "5"],
            ["run", "gcc", "--tick-ms", "0"],
            ["monitor", "gcc", "--port", "70000"],
            ["sweep", "gcc", "--max-attempts", "0"],
            ["monitor", "nosuch", "--telemetry", "T", "--flight-dir", "F"],
            ["serve", "--queue-depth", "0", "--store", "DIR"],
            ["datacenter", "--cap-frac", "1e308", "--telemetry", "T", "--store", "DIR"],
        ],
    )
    def test_bad_arguments_exit_2_and_leave_nothing(self, stubs, argv):
        outcome, _, err, left = _run(argv)
        assert outcome == 2, err
        assert _usage_error(err), err
        assert left == []

    def test_help_lists_only_the_commands_own_options(self):
        """Rendering help expands every help string, so a bare ``%``
        fails here."""
        for name, sub in COMMANDS.items():
            text = sub.format_help()
            listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text))
            assert listed == {"-h", "--help", *OWN[name]}, name
        outcome, out, _, _ = _run(["--help"])
        assert outcome == 0
        assert all(name in out for name in COMMANDS)
        assert len(COMMANDS) == 25


def _shell_lines(text: str) -> "list[str]":
    """Lines with their ``\\`` continuations joined."""
    return re.sub(r"\\\n\s*", " ", text).splitlines()


def _documented() -> "list[tuple[str, str]]":
    """Every ``repro-power`` line in the docs' fenced blocks and in the
    CLI's module docstring, as (source, line)."""
    found = []
    paths = [
        os.path.join(ROOT, "README.md"),
        *sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))),
        os.path.join(ROOT, ".claude", "skills", "verify", "SKILL.md"),
    ]
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            blocks = re.findall(r"```[^\n]*\n(.*?)```", handle.read(), re.S)
        for block in blocks:
            found += [(path, line) for line in _shell_lines(block)]
    found += [("repro.cli", line) for line in _shell_lines(cli.__doc__)]
    return [
        (source, line.strip().lstrip("$ "))
        for source, line in found
        if line.strip().lstrip("$ ").startswith("repro-power ")
    ]


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        documented = _documented()
        assert len(documented) >= 40, documented
        failures = []
        for source, line in documented:
            words = shlex.split(line, comments=True)[1:]
            for end, word in enumerate(words):
                if word in ("&", "|", ">", ";", "&&"):
                    words = words[:end]
                    break
            err = StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    cli._parser().parse_args(words)
            except SystemExit:
                failures.append((source, line, err.getvalue().splitlines()[-1]))
        assert not failures, failures
