"""Digest every output of a fixed set of rdwaves CLI commands.

Runs each command in-process through rdwaves.cli.main inside a fresh
temporary directory and prints one ``<sha256>  <name>`` line for its
stdout, its exit code and every file it wrote, in a fixed order.  Manifest
timestamps are blanked first, so two trees that produce the same outputs
print the same lines: diff the output of two checkouts to see which
commands changed what.  Takes no options:

    PYTHONPATH=src python tools/cli_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

from rdwaves.catalog import FAMILIES
from rdwaves.cli import main

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every digested command; the name prefixes its files."""
    runs = [("list", ["list"])]
    for family in sorted(FAMILIES):
        runs.append((f"sample-{family}", ["sample", "--family", family,
                                          "--out", f"sample-{family}.csv"]))
        runs.append((f"verify-{family}", ["verify", "--family", family,
                                          "--out", f"verify-{family}.json"]))
    runs.append(("ode-check", ["ode-check", "--out", "ode-check.json"]))
    runs.append(("simulate", ["simulate", "--family", "fisher-front", "--window=-10,14,481",
                              "--time", "0,2", "--out", "simulate"]))
    for family in ("fisher-front", "generalized-fisher", "bell"):
        runs.append((f"velocity-{family}", ["velocity", "--family", family,
                                            "--out", f"velocity-{family}.json"]))
    runs.append(("chain", ["chain", "--depth", "6", "--out", "chain.json"]))
    runs.append(("figures", ["figures", "--outdir", "figures", "--gnuplot"]))
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all() -> list[str]:
    lines = []
    for name, argv in commands():
        with tempfile.TemporaryDirectory() as work:
            cwd = os.getcwd()
            os.chdir(work)
            try:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
            finally:
                os.chdir(cwd)
            lines.append(f"{digest(stdout.getvalue().encode())}  {name} stdout")
            lines.append(f"{digest(str(code).encode())}  {name} exit")
            for path in sorted(p for p in Path(work).rglob("*") if p.is_file()):
                data = path.read_bytes()
                if "manifest" in path.name:
                    data = TIMESTAMP.sub('"timestamp": ""', data.decode()).encode()
                lines.append(f"{digest(data)}  {name} {path.relative_to(work)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no options)")
    print("\n".join(run_all()))
