#!/usr/bin/env python3
"""Run each command of tests/golden/commands.json as a `python -m eqlab.cli`
process and compare what it prints with its golden file.

An entry holds the argv, with {g} standing for tests/golden, the golden
file and the exit code.  An entry of exit 0 must print its golden on
stdout, byte for byte, and nothing on stderr; an entry of exit 2 must
print nothing on stdout and its golden on stderr, where {g} again stands
for tests/golden, since a refusal at load names its file.  argparse wraps
its usage line to the terminal width, so every command runs with
COLUMNS=80, the width the goldens were written at, and with this
checkout's src first on PYTHONPATH.  Prints one line per command and
exits 1 if any differs.

    python scripts/check_goldens.py
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def mismatch(entry: dict, env: dict) -> str | None:
    """What the entry's command did other than its golden, or None."""
    argv = [arg.replace("{g}", str(GOLDEN)) for arg in entry["argv"]]
    done = subprocess.run([sys.executable, "-m", "eqlab.cli", *argv], capture_output=True,
                          env=env, check=False)
    if done.returncode != entry["exit"]:
        return f"exit {done.returncode}, expected {entry['exit']}"
    streams = {"stdout": done.stdout, "stderr": done.stderr}
    golden, empty = ("stdout", "stderr") if entry["exit"] == 0 else ("stderr", "stdout")
    if streams[empty]:
        return f"{empty} is not empty"
    expected = (GOLDEN / entry["golden"]).read_bytes().replace(b"{g}", bytes(GOLDEN))
    if streams[golden] != expected:
        return f"{golden} differs from the golden"
    return None


def main() -> int:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    table = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
    failed = 0
    for entry in table:
        problem = mismatch(entry, env)
        failed += problem is not None
        print(f"{'FAIL' if problem else 'ok'}  {entry['golden']}"
              + (f": {problem}" if problem else ""))
    print(f"{len(table) - failed}/{len(table)} goldens match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
