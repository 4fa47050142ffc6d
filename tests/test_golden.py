"""Every CLI output against the golden corpus in tests/golden/cli.json.

The corpus pins the exit code, stdout and stderr of each run that
tests/golden/regenerate.py lists.  Argparse writes the help and usage-error
text, and its wording may change between Python versions, so those texts are
compared only on the version that generated the corpus; their exit codes are
compared on every version.
"""

import importlib.util
import json
import sys

import flatlat.cli as cli
import helpers
from conftest import FIXTURES

ROOT = FIXTURES.parent.parent
CORPUS = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text("utf-8"))


def test_every_cli_output_matches_the_golden_corpus(monkeypatch):
    monkeypatch.chdir(ROOT)
    same_python = CORPUS["python"] == "%d.%d" % sys.version_info[:2]
    changed = []
    for expected in CORPUS["runs"]:
        got = helpers.run_cli(expected["argv"])
        if expected["argparse"] and not same_python:
            got = {**expected, "exit": got["exit"], "argparse": got["argparse"]}
        if got != expected:
            changed.append(" ".join(expected["argv"]))
    assert changed == []


def test_the_golden_corpus_holds_every_run_that_regenerate_lists():
    """A switch, command or fixture added without regenerating the corpus
    would otherwise go unpinned while the replay above still passes."""
    path = ROOT / "tests" / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("regenerate", path)
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    argvs = [run["argv"] for run in CORPUS["runs"]]
    assert argvs == list(regenerate.argvs(cli._COMMANDS))
