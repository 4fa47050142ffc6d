"""Write tests/golden/cli.json, the corpus that tests/test_golden.py replays.

Run `python3 tests/golden/regenerate.py` from the repository root.  It runs
the CLI of the checkout it sits in, in-process, under PYTHONHASHSEED=0 (it
re-executes itself to set it).  The corpus holds the exit code, stdout and
stderr of: every command with every subset of its switches, in both formats,
on every fixture (closure with `--set a` on trivial.cx and `--set 1`
elsewhere); `flatlat --help` and each `<command> --help`; a missing file, an
unknown command and closure without `--set`.  A change that means to change
output runs this script and lists each changed entry in CHANGES.md.
"""

import itertools
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = ROOT / "tests" / "golden" / "cli.json"


def argvs(commands):
    """The argv of every run, given cli._COMMANDS."""
    fixtures = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "tests" / "fixtures").iterdir()
    )
    for path in fixtures:
        for name, command in commands.items():
            switches = [f for f, kw in command.switches.items() if isinstance(kw, str)]
            extra = []
            if name == "closure":
                extra = ["--set", "a" if path.endswith("trivial.cx") else "1"]
            for size in range(len(switches) + 1):
                for chosen in itertools.combinations(switches, size):
                    for fmt in ("text", "json"):
                        yield [name, path, *extra, *chosen, "--format", fmt]
    yield ["--help"]
    for name in commands:
        yield [name, "--help"]
    yield ["flats", "tests/fixtures/missing.cx"]
    yield ["frobnicate", "tests/fixtures/chain3.lat"]
    yield ["closure", "tests/fixtures/trivial.cx"]


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import flatlat.cli
    import helpers

    os.chdir(ROOT)
    corpus = {
        "python": "%d.%d" % sys.version_info[:2],
        "runs": [helpers.run_cli(argv) for argv in argvs(flatlat.cli._COMMANDS)],
    }
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus['runs'])} runs to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
