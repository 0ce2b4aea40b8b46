"""Digest every output of a fixed set of rdwaves CLI commands.

Runs each command in-process through rdwaves.cli.main inside a fresh
temporary directory and prints one ``<sha256>  <name>`` line for its
stdout, its exit code and every file it wrote, in a fixed order; a command
refused with a usage error (SystemExit) gets a line for its message too.
Manifest timestamps are blanked first, so two trees that produce the same
outputs print the same lines: diff the output of two checkouts to see which
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
    # new commands go last, so the lines of an older command list keep their order
    runs.append(("verify-chain-6-order-2", ["verify", "--family", "chain",
                                            "--params", '{"index": 6}', "--order", "2"]))
    runs.append(("ode-check-18", ["ode-check", "--chain-index", "18"]))
    runs.append(("chain-27", ["chain", "--depth", "27"]))
    runs.append(("simulate-order-2", ["simulate", "--family", "fisher-front",
                                      "--window=-10,14,481", "--time", "0,2",
                                      "--space-order", "2", "--out", "simulate"]))
    runs.append(("sample-solitary-n-1", ["sample", "--family", "solitary",
                                         "--params", '{"n": 1.0}', "--out", "f.csv"]))
    runs.append(("verify-plane-wave-c1-overflow", ["verify", "--family", "plane-wave",
                                                   "--params", '{"c1": -1e300}',
                                                   "--out", "f.json"]))
    runs.append(("verify-fisher-weierstrass-collapsed-window",
                 ["verify", "--family", "fisher-weierstrass", "--params", '{"k_shift": 1e300}',
                  "--out", "f.json"]))
    runs.append(("velocity-fisher-weierstrass", ["velocity", "--family", "fisher-weierstrass",
                                                 "--out", "f.json"]))
    runs.append(("velocity-h-over-work-budget", ["velocity", "--family", "fisher-front",
                                                 "--h", "0.002", "--out", "f.json"]))
    # the CSV formatter's paths: an axis value half-way between two 18-digit
    # values (0.1000003814697265625 is exact in binary), a subnormal t axis and
    # masked cells
    runs.append(("sample-tie", ["sample", "--family", "fisher-front",
                                "--grid=0.1000003814697265625,0.2,9,0,1,8", "--out", "f.csv"]))
    runs.append(("sample-subnormal-t", ["sample", "--family", "fisher-front",
                                        "--grid=-1,1,9,5e-324,1e-310,8", "--out", "f.csv"]))
    runs.append(("sample-masked", ["sample", "--family", "bell", "--grid=-2,2,9,0,0.1,8",
                                   "--out", "f.csv"]))
    # velocity takes no --level: argparse's refusal, exit 2
    runs.append(("velocity-level-untracked", ["velocity", "--family", "fisher-front",
                                              "--level", "5", "--out", "f.json"]))
    # every proposition, the largest C_n and the deepest recurrence ladder
    runs.append(("ode-check-17", ["ode-check", "--chain-index", "17", "--out", "f.json"]))
    # refused by the work budget before any checkpoint time or sample is drawn
    runs.append(("simulate-checkpoints-over-work-budget",
                 ["simulate", "--family", "fisher-front", "--window=-10,14,481", "--time", "0,2",
                  "--checkpoints", "100000", "--out", "simulate"]))
    runs.append(("ode-check-samples-over-work-budget",
                 ["ode-check", "--chain-index", "17", "--samples", "1000000000", "--out", "f.json"]))
    # a finest grid of 641 x 97 points, sampled in 8 strips, whose masked
    # half-plane edge crosses three strip boundaries
    runs.append(("verify-bell-strips", ["verify", "--family", "bell",
                                        "--grid=-1,7,161,0,8,25", "--out", "f.json"]))
    # refused by the work budget before any grid point is allocated
    runs.append(("sample-grid-over-work-budget",
                 ["sample", "--family", "bell", "--grid=0,1,100000,0,1,100000", "--out", "f.csv"]))
    runs.append(("verify-grid-over-work-budget",
                 ["verify", "--family", "bell", "--grid=0,1,100000,0,1,100000", "--out", "f.json"]))
    # cubes of either sign: an odd integer power of a negative base is the
    # mirror of its power at |u|.  The index-1 chain is negative on its window
    # at sign +1; its two reports differ only in "sign" and in the signs of
    # the worst residuals
    runs.append(("verify-chain-sign-minus", ["verify", "--family", "chain", "--params",
                                             '{"index": 1, "sign": -1}', "--out", "f.json"]))
    runs.append(("verify-chain-sign-plus", ["verify", "--family", "chain", "--params",
                                            '{"index": 1, "sign": 1}', "--out", "f.json"]))
    runs.append(("verify-plane-wave-n-3-negative", ["verify", "--family", "plane-wave", "--params",
                                                    '{"n": 3, "c1": -1, "c2": 1, "lambda2": 0}',
                                                    "--out", "f.json"]))
    # refused before any sample is drawn: a nan or negative tolerance
    runs.append(("verify-tol-nan", ["verify", "--family", "fisher-front", "--tol=nan",
                                    "--out", "f.json"]))
    runs.append(("verify-tol-negative", ["verify", "--family", "fisher-front", "--tol=-1",
                                         "--out", "f.json"]))
    # gnuplot strings double their quotes: the title holds the params' quotes
    runs.append(("sample-gnuplot-quote", ["sample", "--family", "fisher-front",
                                          "--grid=-3,3,12,0,0.2,9", "--out", "it's.csv",
                                          "--gnuplot"]))
    # speed by shift registration: simulate's one way to ask for it, and the
    # fastest front that velocity measures
    runs.append(("simulate-registration", ["simulate", "--family", "fisher-front",
                                           "--window=-10,14,481", "--time", "0,2",
                                           "--registration", "--out", "simulate"]))
    runs.append(("velocity-plane-wave", ["velocity", "--family", "plane-wave",
                                         "--out", "f.json"]))
    # a window whose intervals are within rounding of whole steps far from t = 0:
    # the march takes the steps the work budget counts
    runs.append(("simulate-large-t0", ["simulate", "--family", "fisher-front",
                                       "--params", '{"t_shift": 10000.0}',
                                       "--window=0,3.152573252877113,79",
                                       "--time", "10000,10000.06027920750074075",
                                       "--checkpoints", "3", "--out", "s"]))
    # a front predicted at speed 15, and one so fast that its window is refused
    runs.append(("velocity-plane-wave-fast", ["velocity", "--family", "plane-wave", "--params",
                                              '{"n": 2, "c1": -3, "lambda2": 0}', "--h", "0.02",
                                              "--out", "f.json"]))
    runs.append(("velocity-window-over-point-cap", ["velocity", "--family", "plane-wave",
                                                    "--params", '{"c1": 1e4}', "--out", "f.json"]))
    # the README's simulate window that the work budget refuses
    runs.append(("simulate-window-over-work-budget",
                 ["simulate", "--family", "fisher-front", "--window=0,1e-3,24", "--time", "0,1",
                  "--out", "simulate"]))
    # checkpoint intervals that alone exceed the work budget: the refusal names
    # the 59 intervals it compared
    runs.append(("simulate-intervals-over-work-budget",
                 ["simulate", "--family", "fisher-front", "--window=0,1,600000",
                  "--time", "0,100", "--checkpoints", "60", "--out", "s"]))
    # CSV slots trimmed a block at a time: five blocks of 72 rows, two wholly
    # masked, one partly masked and two whose x slot has no sign column
    runs.append(("sample-bell-blocks", ["sample", "--family", "bell",
                                        "--grid=-20,20,321,0,2,113", "--out", "f.csv"]))
    # a non-ASCII file name that the gnuplot script and the manifest name: their
    # bytes are the name's bytes on disk in every locale
    runs.append(("sample-gnuplot-non-ascii", ["sample", "--family", "fisher-front",
                                              "--grid=-1,1,9,0,1,9", "--gnuplot",
                                              "--out", os.fsdecode(b"\xc3\xa9.csv")]))
    # a study whose finest level alone holds a masked cell: the x = 0 column
    # meets the index-0 chain's pole y = x^2 + 6t = 2K at t = K/3, the second
    # t of the h/4 level, which neither coarser level holds
    runs.append(("verify-chain-finest-only-pole",
                 ["verify", "--family", "chain", "--params", '{"index": 0}',
                  "--grid=-0.5,0.5,9,0.6080248924337905,0.9280248924337906,9", "--out", "f.json"]))
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all() -> list[str]:
    lines = []
    for name, argv in commands():
        with tempfile.TemporaryDirectory() as work:
            cwd = os.getcwd()
            os.chdir(work)
            refusal = None
            try:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
            except SystemExit as exc:  # a refusal: a message exits 1, argparse exits 2
                refusal = exc.code
                code = refusal if isinstance(refusal, int) else 1
            finally:
                os.chdir(cwd)
            # encoded as the CLI encodes its files, so that a file name in stdout
            # hashes the same in every locale
            lines.append(f"{digest(os.fsencode(stdout.getvalue()))}  {name} stdout")
            lines.append(f"{digest(str(code).encode())}  {name} exit")
            if refusal is not None:
                lines.append(f"{digest(str(refusal).encode())}  {name} usage error")
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
