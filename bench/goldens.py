"""Golden reports of the five acceptance CLI commands.

    python3 bench/goldens.py --check    # diff fresh reports against bench/golden/
    python3 bench/goldens.py --update   # rewrite bench/golden/ from this checkout

Each command runs as ``python -m ordnash.cli ...`` with ``src/`` of this
checkout on the path.  Reports are compared byte for byte, except that the
value of ``wall_time_s`` is replaced by 0 on both sides.  ``--check`` exits 1
and prints a unified diff when a report differs.  A change that alters a
golden report must say why.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

# The command lines of tests/test_acceptance.py criteria 1-5.
COMMANDS = {
    "criterion_01": ("examples", "--name", "trivial-pref", "--run"),
    "criterion_02": ("examples", "--name", "coordinate-pref", "--run"),
    "criterion_03": (
        "theorems", "--suite", "t1", "--instances", "50",
        "--restarts", "4", "--grid", "0.02",
    ),
    "criterion_04": ("theorems", "--suite", "t2", "--instances", "20", "--grid", "0.05"),
    "criterion_05": ("theorems", "--suite", "existence", "--instances", "100", "--grid", "0.05"),
}

_WALL_TIME = re.compile(r'("wall_time_s": )[^\n,}]+')


def normalize(text: str) -> str:
    """The report with its wall time set to 0; everything else untouched."""
    return _WALL_TIME.sub(r"\g<1>0", text)


def report(args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "ordnash.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
        stdin=subprocess.DEVNULL,
    )
    if done.returncode not in (0, 2):
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: {done.stderr}")
    return normalize(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golden CLI reports")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ordnash" / "__init__.py").is_file():
        print("goldens: no program sources under src/", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    differing = []
    for name, command in COMMANDS.items():
        fresh = report(command)
        path = GOLDEN / f"{name}.json"
        if args.update:
            path.write_text(fresh)
            print(f"wrote {path.relative_to(ROOT)}")
            continue
        saved = path.read_text()
        if fresh != saved:
            differing.append(name)
            sys.stdout.writelines(
                difflib.unified_diff(
                    saved.splitlines(keepends=True),
                    fresh.splitlines(keepends=True),
                    f"golden/{name}.json",
                    "fresh",
                )
            )
        else:
            print(f"{name}: identical")
    if differing:
        print(f"differing reports: {differing}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
