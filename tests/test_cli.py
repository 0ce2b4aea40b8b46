"""CLI surface: determinism, schemas, exit codes, figure gates."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdwaves._csvfmt as _csvfmt
import rdwaves.catalog as catalog
import rdwaves.cli as cli
from rdwaves.catalog import build_family, fisher_front, phi_chain, z_from_phi
from rdwaves.cli import FIGURES, figure_data, figure_gate, main
from rdwaves.equations import Fisher
from rdwaves.simulate import SimConfig, SimReport, compare_exact, integrate
from rdwaves.verify import (
    Grid2D,
    clean_chain_samples,
    ode_residual,
    pde_residual,
    potential_residual,
    proposition_suite,
)
from test_csvfmt import near_tie


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def gnuplot_strings(line: str) -> list[str]:
    """The single-quoted strings of a gnuplot command line, where '' inside
    a string stands for one '."""
    strings, i = [], 0
    while (start := line.find("'", i)) >= 0:
        parts, i = [], start + 1
        while True:
            end = line.find("'", i)
            assert end >= 0, f"unterminated string in {line!r}"
            parts.append(line[i:end])
            i = end + 1
            if line[i:i + 1] != "'":
                break
            parts.append("'")
            i += 1
        strings.append("".join(parts))
    return strings


# The per-cell writers that cli's CSV writer replaced: the byte reference.  A
# grid's defined flags are np.isfinite(u), as Sampler.sample forms them.
def reference_grid_csv(x, t, u, defined) -> str:
    lines = ["x,t,u,defined"]
    X, T = np.broadcast_arrays(x, t)
    for xi, ti, ui, di in zip(X.ravel(), T.ravel(), u.ravel(), defined.ravel()):
        uval = ("%.17e" % ui) if di else "nan"
        lines.append(f"{'%.17e' % xi},{'%.17e' % ti},{uval},{int(di)}")
    return "\n".join(lines) + "\n"


def reference_profile_csv(x, u) -> str:
    lines = ["x,u"]
    for xi, ui in zip(x, u):
        lines.append(f"{'%.17e' % xi},{'%.17e' % ui}")
    return "\n".join(lines) + "\n"


def assert_same_rows(got: str, expected: str) -> None:
    # row by row, so a failure names the first differing row quickly instead of
    # diffing two multi-megabyte strings
    got_rows, expected_rows = got.splitlines(True), expected.splitlines(True)
    for i, (g, e) in enumerate(zip(got_rows, expected_rows)):
        assert g == e, f"row {i}"
    assert len(got_rows) == len(expected_rows)


# nan, infinities, signed zeros, subnormals and exponents near +-300
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                    1e-300, -3.7e-298, 1.7976931348623157e308, -4.2e301, 1e300, 0.1, -2.0 / 3.0,
                    1.0, 123456.789])


def assert_grid_matches(x, t, u) -> None:
    """The grid CSV of u on the axes x and t, byte for byte against the reference."""
    assert_same_rows(cli._csv_text(x, t, u),
                     reference_grid_csv(x[:, None], t[None, :], u, np.isfinite(u)))


class TestCsvWriters:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 7)])
    def test_grid_matches_reference(self, shape):
        nx, nt = shape
        rng = np.random.default_rng(nx * 10 + nt)
        x = np.resize(SPECIAL, nx)
        t = np.resize(SPECIAL[::-1], nt)
        u = rng.permutation(np.resize(SPECIAL, nx * nt)).reshape(shape)
        keep = np.ones(shape, bool)
        if u.size > 1:  # nan put where a third of the cells are masked, beside nan and +-inf
            keep.flat[::3] = False
        for mask in (keep, ~keep):
            assert_grid_matches(x, t, np.where(mask, u, np.nan))

    def test_grid_infinities_read_masked(self):
        # a grid cell that is not finite is masked: +-inf reads nan,0 as nan does
        u = np.array([[1.5, np.inf], [-np.inf, np.nan], [-2.0, 0.0]])
        text = cli._csv_text(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]), u)
        assert [row.split(",", 2)[2] for row in text.splitlines()[1:]] == [
            "1.50000000000000000e+00,1", "nan,0", "nan,0", "nan,0",
            "-2.00000000000000000e+00,1", "0.00000000000000000e+00,1"]

    @pytest.mark.parametrize("n", [1, 2, len(SPECIAL)])
    def test_profile_matches_reference(self, n):
        x = np.resize(SPECIAL[::-1], n)
        u = np.resize(SPECIAL, n)
        assert_same_rows(cli._csv_text(x, None, u), reference_profile_csv(x, u))

    def test_sample_file_matches_reference(self, capsys, tmp_path):
        out = tmp_path / "bell.csv"
        code, _ = run(capsys, "sample", "--family", "bell", "--grid=-2,2,9,0,0.1,8",
                      "--out", str(out))
        assert code == 0
        grid = Grid2D(-2.0, 2.0, 9, 0.0, 0.1, 8)
        X, T = np.meshgrid(grid.x, grid.t, indexing="ij")
        u, defined = build_family("bell", {}).sample(X, T)
        assert not defined.all()
        assert_same_rows(out.read_text(), reference_grid_csv(X, T, u, defined))

    def test_figure_file_matches_reference(self, capsys, tmp_path):
        code, _ = run(capsys, "figures", "--id", "6", "--outdir", str(tmp_path))
        assert code == 0
        _, X, T, u, defined, _ = figure_data(6)
        assert_same_rows((tmp_path / "figure6.csv").read_text(),
                         reference_grid_csv(X, T, u, defined))


def _block_values(rng, shape):
    """Values from random bit patterns, so every exponent and nan and inf occur."""
    return rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False).view(np.float64)


class TestCsvBlocks:
    # the writers format BLOCK cells at a time: rows that fill several blocks,
    # blocks of several rows, a last block cut short and a block wholly masked
    def test_rows_longer_than_a_block(self):
        rng = np.random.default_rng(7)
        nt = _csvfmt.BLOCK + 3
        x, t = np.linspace(-1.0, 1.0, 3), _block_values(rng, nt)
        u = _block_values(rng, (3, nt))
        u[rng.random((3, nt)) >= 0.9] = np.nan
        assert_grid_matches(x, t, u)

    def test_blocks_of_rows_with_one_wholly_masked(self):
        rng = np.random.default_rng(8)
        nx, nt = 200, 97
        rows = _csvfmt.BLOCK // nt
        x, t = _block_values(rng, nx), np.linspace(0.005, 200.0, nt)
        u = rng.standard_normal((nx, nt)) * 10.0 ** rng.integers(-30, 30, (nx, nt))
        masked = rng.random((nx, nt)) >= 0.7
        masked[:rows] = False
        masked[rows:2 * rows] = True
        u[masked] = np.nan
        assert_grid_matches(x, t, u)

    @staticmethod
    def _widths_change(rng, rows, nt):
        # x negative for two blocks, then from 0 on; u positive with 2-digit
        # exponents, but for a negative cell in the second block and 3-digit
        # exponents in the third and fourth
        nx = 3 * rows + 10
        x = np.arange(nx, dtype=float) - 2 * rows
        u = 0.5 + rng.random((nx, nt))
        u[rows + 5, 7] = -0.25
        u[2 * rows + 3, 50] = 1e-150
        u[-1, -1] = 1e200
        return x, u

    @staticmethod
    def _nan_and_unsettled(rng, rows, nt):
        # positive x and u beside masked cells (nan and inf) and a cell left
        # to % (near a tie): % writes the last from the sign column on, so
        # u's slot keeps it and drops only the third exponent digit's
        x = np.linspace(0.5, 3.0, 2 * rows)
        u = 0.5 + rng.random((len(x), nt))
        u[0, 3] = np.nan
        u[0, 4] = np.inf
        u[rows + 1, 5] = near_tie(14, -1)
        return x, u

    @pytest.mark.parametrize("case", ["_widths_change", "_nan_and_unsettled"])
    def test_slots_trimmed_per_block(self, case):
        rng = np.random.default_rng(10)
        nt = 97
        rows = _csvfmt.BLOCK // nt
        t = np.linspace(0.0, 2.0, nt)
        x, u = getattr(self, case)(rng, rows, nt)
        assert_grid_matches(x, t, u)

    # x's slot keeps its sign column in the first block and drops it in the
    # next two; u's keeps every column for random bits and drops both trimmed
    # columns for values in [0.5, 1.5)
    @pytest.mark.parametrize("values", ["bits", "positive"])
    def test_profile_over_several_blocks(self, values):
        rng = np.random.default_rng(9)
        n = _csvfmt.BLOCK + 5
        x = np.linspace(-10.0, 14.0, n)
        u = _block_values(rng, n) if values == "bits" else 0.5 + rng.random(n)
        assert_same_rows(cli._csv_text(x, None, u), reference_profile_csv(x, u))


class TestAtomicWrite:
    def test_text_longer_than_two_slices(self, tmp_path):
        text = "x,u\n" + "é" + "0123456789abcdef" * (cli._WRITE_SLICE // 8) + "end\n"
        assert len(text) > 2 * cli._WRITE_SLICE
        path = tmp_path / "f.csv"
        cli._atomic_write(path, text)
        assert path.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    @pytest.mark.parametrize("failure", ["encode", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, failure):
        # a lone surrogate that escapes no byte cannot be encoded, after a first
        # slice has reached the temp file; a directory cannot be replaced by a file
        if failure == "encode":
            path, text, error = tmp_path / "f.csv", "0" * cli._WRITE_SLICE + "\ud800", UnicodeError
        else:
            path, text, error = tmp_path / "d", "x,u\n", OSError
            path.mkdir()
        with pytest.raises(error):
            cli._atomic_write(path, text)
        assert [p.name for p in tmp_path.iterdir()] == ([] if failure == "encode" else ["d"])

    def test_outputs_do_not_depend_on_the_locale(self, capsys, tmp_path):
        # the file name's bytes, é in UTF-8: under the C locale Python reads them as
        # surrogate escapes, which the locale's ascii codec cannot write
        name = b"\xc3\xa9.csv"
        argv = ["sample", "--family", "fisher-front", "--grid=-1,1,9,0,1,9", "--gnuplot", "--out"]
        c_dir, here = tmp_path / "c", tmp_path / "here"
        c_dir.mkdir()
        here.mkdir()
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        script = "import sys; from rdwaves.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", script, *argv, name], cwd=c_dir, env=env,
                              capture_output=True)
        assert done.returncode == 0 and done.stderr == b""
        code, _ = run(capsys, *argv, str(here / os.fsdecode(name)))
        assert code == 0
        assert sorted(os.listdir(c_dir)) == sorted(os.listdir(here))
        for f in os.listdir(here):
            got, expected = ((d / f).read_bytes() for d in (c_dir, here))
            if f.endswith("manifest.json"):  # the paths differ, the names must not
                got, expected = ([Path(p).name for p in json.loads(b)["outputs"]]
                                 for b in (got, expected))
                assert got == ["é.csv", "é.gp"]
            assert got == expected, f
        assert b"splot '\xc3\xa9.csv'" in (c_dir / os.fsdecode(b"\xc3\xa9.gp")).read_bytes()


class TestList:
    def test_lists_every_family(self, capsys):
        code, out = run(capsys, "list")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        fams = payload["families"]
        assert {"chain", "chain-exp", "plane-wave", "solitary", "fisher-front",
                "fisher-exp", "fisher-weierstrass", "generalized-fisher", "bell",
                "quadratic-rational"} == set(fams)
        for info in fams.values():
            assert "equation" in info and "description" in info


class TestSample:
    def test_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = run(capsys, "sample", "--family", "fisher-front",
                          "--grid=-3,3,12,0,0.2,9", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "x,t,u,defined"

    def test_masked_cells_written_as_nan(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        code, _ = run(capsys, "sample", "--family", "bell",
                      "--grid=-2,2,9,0,0.1,8", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        flags = {r[3] for r in rows}
        assert flags == {"0", "1"}
        assert all(r[2] == "nan" for r in rows if r[3] == "0")

    def test_manifest_lists_outputs(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, "sample", "--family", "fisher-exp",
            "--grid=-2,2,9,0,0.1,8", "--out", str(out), "--gnuplot")
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["schema"] == 1
        names = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert names == {"s.csv", "s.gp"}

    def test_gnuplot_strings_double_their_quotes(self, capsys, tmp_path):
        # the title holds the params dict's quotes; gnuplot reads '' as one '
        out = tmp_path / "it's.csv"
        code, _ = run(capsys, "sample", "--family", "fisher-front", "--grid=-3,3,12,0,0.2,9",
                      "--out", str(out), "--gnuplot")
        assert code == 0
        # each line's command, the text before its first string, and its strings;
        # gnuplot_strings fails on an unterminated string in any line
        strings = {line[:line.find("'")].strip(): gnuplot_strings(line)
                   for line in (tmp_path / "it's.gp").read_text().splitlines()}
        assert strings["set title"] == [f"fisher-front {build_family('fisher-front').params}"]
        assert strings["splot"] == ["it's.csv"]

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit, match="valid families"):
            main(["sample", "--family", "nope", "--out", "/tmp/x.csv"])

    @pytest.mark.parametrize("raw", ['{"epsilon": NaN}', '{"epsilon": Infinity}'])
    def test_non_finite_params_rejected(self, capsys, tmp_path, raw):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit, match="'epsilon' must be finite"):
            main(["sample", "--family", "bell", "--params", raw, "--out", str(out)])
        assert not out.exists()

    def test_bad_params_json(self, capsys):
        with pytest.raises(SystemExit, match="JSON"):
            main(["sample", "--family", "fisher-front", "--params", "{oops",
                  "--out", "/tmp/x.csv"])

    def test_wrong_param_type_usage_error(self, capsys, tmp_path):
        # a bool index would verify index 1; a string one failed in the arithmetic
        out = tmp_path / "v.json"
        for raw, match in (('{"index": "a"}', "'index' must be a number"),
                           ('{"index": true}', "'index' must be a number"),
                           ('{"index": 600}', "cannot build family 'chain': chain index 600"),
                           ('{"kind": "inverse", "index": 2.5}', "non-negative integer")):
            with pytest.raises(SystemExit, match=match):
                main(["verify", "--family", "chain", "--params", raw, "--out", str(out)])
        assert not out.exists()

    def test_misspelled_param_key_usage_error(self, capsys, tmp_path):
        # a silently dropped key would verify the default c1 = 2 instead
        out = tmp_path / "v.json"
        with pytest.raises(SystemExit, match="unknown parameter 'C1'"):
            main(["verify", "--family", "generalized-fisher", "--params", '{"C1": 3}',
                  "--out", str(out)])
        assert not out.exists()


class TestMalformedFlags:
    @pytest.mark.parametrize("flag, argv", [
        ("--grid", ["sample", "--family", "bell", "--grid=-3,3,1,0,1,1", "--out", "g.csv"]),
        ("--grid", ["sample", "--family", "bell", "--grid=-3,3,x,0,1,9", "--out", "g.csv"]),
        ("--grid", ["sample", "--family", "bell", "--grid=-3,3,9,0,1", "--out", "g.csv"]),
        ("--grid", ["verify", "--family", "bell", "--grid=-3,inf,9,0,1,9", "--out", "v.json"]),
        ("--window", ["simulate", "--family", "fisher-front", "--window=-3,3,4",
                      "--time", "0,1", "--out", "run"]),
        ("--window", ["simulate", "--family", "fisher-front", "--window=-3,3,x",
                      "--time", "0,1", "--out", "run"]),
        ("--time", ["simulate", "--family", "fisher-front", "--window=-3,3,41",
                    "--time", "0", "--out", "run"]),
        ("--time", ["simulate", "--family", "fisher-front", "--window=-3,3,41",
                    "--time", "1,0", "--out", "run"]),
        ("--id", ["figures", "--id", "a", "--outdir", "figs"]),
        ("--id", ["figures", "--id", "1,9", "--outdir", "figs"]),
        ("--chain-index", ["ode-check", "--chain-index=-1", "--out", "o.json"]),
        ("--h", ["velocity", "--family", "fisher-front", "--h", "0", "--out", "v.json"]),
        ("--samples", ["ode-check", "--chain-index", "2", "--samples", "0", "--out", "o.json"]),
        ("--samples", ["ode-check", "--samples=-3", "--out", "o.json"]),
        ("--checkpoints", ["simulate", "--family", "fisher-front", "--window=-6,8,141",
                           "--time", "0,0.5", "--checkpoints", "1", "--out", "run"]),
        ("--checkpoints", ["simulate", "--family", "fisher-front", "--window=-6,8,141",
                           "--time", "0,0.5", "--checkpoints", "0", "--out", "run"]),
        ("--depth", ["chain", "--depth=-1", "--out", "c.json"]),
        ("--chain-index", ["ode-check", "--chain-index", "600", "--out", "o.json"]),
        ("--depth", ["chain", "--depth", "600", "--out", "c.json"]),
        ("--window/--time", ["simulate", "--family", "bell", "--window=1.2,9.5,81",
                             "--time", "0,400", "--out", "run"]),
        # the bell's final shift, 2.94, is past a quarter of the window (2.7):
        # registration pinned it there and reported a speed of 0.3515 for 0.3674
        ("--window/--time/--registration", ["simulate", "--family", "bell", "--params",
                                            '{"epsilon":0.3}', "--window=3.2,14,217", "--time",
                                            "0,8", "--registration", "--out", "b"]),
        # every stencil masked, and stencils defined but none clear of the standoff
        ("--grid", ["verify", "--family", "bell", "--grid=-10,-5,20,0,1,20",
                    "--out", "v.json"]),
        ("--grid", ["verify", "--family", "solitary",
                    "--params", '{"nu": 0.8, "branch": "tan", "C": -1.2}',
                    "--grid=-50,50,64,0,0.25,9", "--out", "v.json"]),
        # the chain table stops at depth 26 (8,193 points a row)
        ("--depth", ["chain", "--depth", "27", "--out", "c.json"]),
        ("--family", ["velocity", "--family", "chain", "--out", "v.json"]),
        ("--params", ["sample", "--family", "bell", "--params", "[1]", "--out", "g.csv"]),
        ("--chain-index", ["ode-check", "--chain-index", "18", "--out", "o.json"]),
        # the suggested window collapses in floating point: the default grid is empty
        ("--grid", ["verify", "--family", "fisher-weierstrass", "--params", '{"k_shift": 1e300}',
                    "--out", "v.json"]),
        ("--grid", ["sample", "--family", "solitary", "--params", '{"C": -1e300}',
                    "--out", "g.csv"]),
        # h^2 of the stencil overflowed in a Python float power
        ("--grid", ["verify", "--family", "fisher-exp", "--grid=-1e300,0,8,0,1e300,8",
                    "--out", "v.json"]),
        # 1e10 sampled points, and 3.2e11 finest points of u and f(u)
        ("--grid", ["sample", "--family", "bell", "--grid=0,1,100000,0,1,100000",
                    "--out", "g.csv"]),
        ("--grid", ["verify", "--family", "bell", "--grid=0,1,100000,0,1,100000",
                    "--out", "v.json"]),
    ])
    def test_usage_error_names_flag(self, capsys, tmp_path, monkeypatch, flag, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert flag in str(exc.value.code)
        assert list(tmp_path.iterdir()) == []


class TestDashDashValue:
    # argparse before Python 3.13 stores an empty list for --flag=--, past the flag's type
    @pytest.mark.parametrize("argv", [
        ["velocity", "--family", "bell", "--h=--"],
        ["ode-check", "--samples=--"],
        ["chain", "--depth=--"],
        ["figures", "--id=--"],
        ["simulate", "--family", "fisher-front", "--window=-6,8,141", "--time", "0,0.5",
         "--checkpoints=--", "--out", "run"],
        ["sample", "--family=--", "--out", "g.csv"],
    ])
    def test_usage_error_names_flag(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = next(a for a in argv if a.endswith("=--")).split("=")[0]
        assert f"argument {flag}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBuilderRefusals:
    # the equation rejects n = 1; c1 = -1e300 overflows the builder's scalar math
    @pytest.mark.parametrize("family, params, match", [
        ("solitary", '{"n": 1.0}', r"'solitary': n=1\.0 rejected: n = 1 is excluded"),
        ("plane-wave", '{"c1": -1e300}', r"'plane-wave': c1=-1e\+300 rejected: overflows"),
    ], ids=["equation-error", "overflow"])
    @pytest.mark.parametrize("command, out", [("sample", "f.csv"), ("verify", "f.json"),
                                              ("velocity", "f.json")])
    def test_usage_error_names_the_parameter(self, capsys, tmp_path, monkeypatch, family,
                                             params, match, command, out):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"cannot build family {match}"):
            main([command, "--family", family, "--params", params, "--out", out])
        assert list(tmp_path.iterdir()) == []

    def test_build_family_raises_catalog_error(self):
        with pytest.raises(catalog.CatalogError, match="n=1.0 rejected"):
            build_family("solitary", {"n": 1.0})
        with pytest.raises(catalog.CatalogError, match="overflows in floating point"):
            build_family("plane-wave", {"c1": -1e300})


class TestOutOfRangeRefusals:
    # the family formula overflows or turns invalid at these parameters
    @pytest.mark.parametrize("argv, match", [
        (["verify", "--family", "chain-exp", "--params", '{"k2": 7.9e207}'], "overflow"),
        (["sample", "--family", "bell", "--params", '{"epsilon": -5.8e16}'], "overflow"),
        (["verify", "--family", "generalized-fisher", "--params", '{"c1": -1e300}'], "invalid"),
    ])
    def test_usage_error_names_the_floating_point_error(self, tmp_path, monkeypatch, argv, match):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"{argv[0]}: {match} .*floating-point range"):
            main(argv + ["--out", "o.csv"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error, detail", [
        (MemoryError("Unable to allocate 37.3 GiB for an array with shape (5000000000,) "
                     "and data type float64"), r" \(Unable to allocate 37\.3 GiB .*\)"),
        (MemoryError(), ""),
    ], ids=["numpy-message", "no-message"])
    def test_memory_error_is_a_usage_error(self, tmp_path, monkeypatch, error, detail):
        # the command's run raises as numpy does when an allocation fails;
        # nothing is allocated for real
        def run(args):
            raise error

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "cmd_verify", run)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # binds the patched run
        with pytest.raises(SystemExit, match=f"^verify: out of memory{detail}; ask for a smaller"):
            main(["verify", "--family", "bell", "--out", "v.json"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("c1", ["1e4", "1e8", "1.6e16"])
    def test_velocity_window_is_capped_before_allocation(self, tmp_path, monkeypatch, c1):
        # at c1 = 1.6e16 the window once asked numpy for 5.6 EiB
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"--h: a window .* needs more than 65536 points"):
            main(["velocity", "--family", "plane-wave", "--params", f'{{"c1": {c1}}}',
                  "--out", "v.json"])
        assert list(tmp_path.iterdir()) == []


class TestVelocityRefusals:
    @pytest.fixture(autouse=True)
    def no_march(self, monkeypatch, tmp_path):
        # each refusal comes before the march and writes nothing
        def refuse(*args):
            raise AssertionError("integrate called")

        monkeypatch.setattr(cli, "integrate", refuse)
        monkeypatch.chdir(tmp_path)
        yield
        assert list(tmp_path.iterdir()) == []

    # the Weierstrass family's mid level sat in its pole bands (8.3e10), and the
    # march then ended in "--h: non-finite field at step 2, t=0.00225"
    @pytest.mark.parametrize("family, params", [
        ("fisher-weierstrass", "{}"),
        ("fisher-weierstrass", '{"C": -5.0, "k_shift": -10.0}'),
        ("fisher-front", '{"form": "coth"}'),
        ("generalized-fisher", '{"c1": 0.0}'),
        ("solitary", '{"nu": 0.8, "branch": "tan"}'),
    ])
    def test_profile_without_a_single_bounded_front(self, family, params):
        with pytest.raises(SystemExit, match=rf"--family: {family}: the probe window "
                                             r"x in \[-30, 30\] holds no single bounded front"):
            main(["velocity", "--family", family, "--params", params, "--out", "v.json"])

    # speed has one estimator, shift registration: neither command takes a level
    @pytest.mark.parametrize("command, level", [("velocity", "5"), ("velocity", "-0.5"),
                                                ("simulate", "1e300")])
    def test_level_is_not_a_flag(self, capsys, command, level):
        argv = [command, "--family", "fisher-front", f"--level={level}", "--out", "v"]
        argv += ["--window=-10,14,481", "--time", "0,2"] if command == "simulate" else []
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --level" in capsys.readouterr().err

    @pytest.mark.parametrize("family, h", [("fisher-front", "0.002"),
                                           ("generalized-fisher", "0.005"),
                                           ("bell", "0.001")])
    def test_work_is_bounded_before_marching(self, family, h):
        with pytest.raises(SystemExit, match=r"--h: \d+ steps of \d+ points at step .* exceed "
                                             r"the budget of 33554432 point-steps"):
            main(["velocity", "--family", family, "--h", h, "--out", "v.json"])


def max_work_reads(node, function="<module>", comparison=None, in_message=False):
    """(function, comparison, in_message) of every read of _MAX_WORK under node:
    the comparison is None outside one, in_message tells a read inside an f-string,
    and an import under another name counts as a read outside both."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif isinstance(node, ast.Compare):
        comparison = ast.unparse(node)
    elif isinstance(node, ast.JoinedStr):
        in_message = True
    elif ((isinstance(node, ast.Name) and node.id == "_MAX_WORK"
           and isinstance(node.ctx, ast.Load))
          or (isinstance(node, ast.Attribute) and node.attr == "_MAX_WORK")
          or (isinstance(node, ast.alias) and node.name == "_MAX_WORK")):
        yield function, comparison, in_message
    for child in ast.iter_child_nodes(node):
        yield from max_work_reads(child, function, comparison, in_message)


class TestWorkBudgets:
    # the budget of 2^25 point-steps: 69,759 steps of 481 points fit, 69,760 do not
    _README = dict(x_min=-10.0, x_max=14.0, n_x=481, t0=0.0, t1=2.0)

    def test_every_checkpoint_counts_as_a_step(self):
        # integrate ends a step at every checkpoint; the README run's 9 count
        # 1,778 steps from the step bound alone
        cli._check_work(SimConfig(**self._README), 0.05)
        cli._check_work(SimConfig(**self._README, n_checkpoints=69_760), 0.05)
        with pytest.raises(ValueError, match=r"^69760 steps of 481 points at step 0\.05 exceed"):
            cli._check_work(SimConfig(**self._README, n_checkpoints=69_761), 0.05)

    def test_lower_bound_refusal_names_the_count_it_compared(self, tmp_path, monkeypatch):
        # 59 intervals of 600,000 points are 3.5e7 point-steps before any step is
        # planned; the span of 100 is not a step count
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"^--window/--time/--checkpoints: 59 steps of "
                                             r"600000 points at step 1\.66667e-06 exceed "):
            main(["simulate", "--family", "fisher-front", "--window=0,1,600000",
                  "--time", "0,100", "--checkpoints", "60", "--out", "s"])
        # an infinite span is refused as it is, whatever the checkpoint count
        cfg = SimConfig(x_min=0.0, x_max=1.5e154, n_x=16, t0=-1e308, t1=1e308)
        with pytest.raises(ValueError, match=r"^inf steps of 16 points at step 1e\+153 exceed "):
            cli._check_work(cfg, cfg.h)

    @pytest.mark.parametrize("checkpoints, steps", [(9, 1784), (1778, 3554), (2, 1778),
                                                    (3, 1778), (17, 1792), (333, 1992)])
    def test_planned_steps_are_the_steps_taken(self, checkpoints, steps):
        # integrate takes ceil(interval / dt_max) steps in every checkpoint interval
        cfg = SimConfig(**self._README, n_checkpoints=checkpoints)
        assert int(cfg.interval_steps.sum()) == steps
        assert integrate(Fisher(), fisher_front("tanh"), cfg).steps_taken == steps

    @pytest.mark.parametrize("family", ["fisher-front", "generalized-fisher", "bell"])
    def test_planned_velocity_steps_are_the_steps_taken(self, family):
        sampler = build_family(family, {})
        cfg = cli._velocity_setup(sampler, 0.05)
        steps = integrate(sampler.equation, sampler, cfg).steps_taken
        assert int(cfg.interval_steps.sum()) == steps

    def test_budget_is_compared_in_one_function(self):
        # _check_grid, both halves of _check_work and _check_samples call
        # _check_budget; formatting the budget into a message is the only other read
        compared, other = set(), set()
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for function, comparison, in_message in max_work_reads(ast.parse(path.read_text())):
                if comparison is not None:
                    compared.add((path.name, function, comparison))
                elif not in_message:
                    other.add((path.name, function))
        assert compared == {("cli.py", "_check_budget", "work > _MAX_WORK")}
        assert other == set()

    @pytest.mark.parametrize("fields, label, fits, over", [
        # sample holds n_x n_t values
        (1, "sample", (5792, 5793), (5793, 5793)),
        # verify holds u and f(u) on the finest grid, (4 n_x - 3)(4 n_t - 3) points
        (2, "finest", (4093, 4097), (4097, 4097)),
    ])
    def test_grid_values_are_bounded(self, fields, label, fits, over):
        cli._check_grid(Grid2D(0.0, 1.0, fits[0], 0.0, 1.0, fits[1]), fields, label)
        with pytest.raises(ValueError, match=rf"^\d+ values \({fields} a point on a "
                                             rf"{over[0]} x {over[1]} {label} grid\) exceed "):
            cli._check_grid(Grid2D(0.0, 1.0, over[0], 0.0, 1.0, over[1]), fields, label)

    @pytest.mark.parametrize("checkpoints", ["100000", "1000000000", str(10**30)])
    def test_simulate_refuses_checkpoints_before_allocating(self, tmp_path, monkeypatch,
                                                            checkpoints):
        # 100,000 checkpoints once marched 4.8e7 point-steps and wrote as many CSVs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(SimConfig, "checkpoints",
                            property(lambda cfg: pytest.fail("checkpoint times allocated")))
        with pytest.raises(SystemExit, match=r"--checkpoints: \d+ steps of 481 points"):
            main(["simulate", "--family", "fisher-front", "--window=-10,14,481",
                  "--time", "0,2", "--checkpoints", checkpoints, "--out", "run"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index, largest", [(0, 167_772), (17, 9_320)])
    def test_sample_bound_is_the_worst_case_draw(self, index, largest):
        # up to 200 n candidates, each walked through index + 1 recurrence levels
        assert 200 * largest * (index + 1) <= cli._MAX_WORK < 200 * (largest + 1) * (index + 1)
        cli._check_samples(index, largest)
        with pytest.raises(ValueError, match=f"^{largest + 1} samples at chain index {index} "):
            cli._check_samples(index, largest + 1)

    @pytest.mark.parametrize("index, samples", [("17", "9321"), ("3", "1000000000"),
                                                ("0", str(10**30))])
    def test_ode_check_refuses_samples_before_drawing(self, tmp_path, monkeypatch, index,
                                                      samples):
        def no_work(*args, **kwargs):
            raise AssertionError("ode-check drew samples before refusing")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "clean_chain_samples", no_work)
        monkeypatch.setattr(cli, "proposition_suite", no_work)
        with pytest.raises(SystemExit, match=f"--samples: {samples} samples at chain index "):
            main(["ode-check", "--chain-index", index, "--samples", samples, "--out", "o.json"])
        assert list(tmp_path.iterdir()) == []


class TestParserPerProcess:
    def test_one_parser(self):
        assert cli._parser() is cli._parser()

    def test_consecutive_verify_calls_share_no_parsed_value(self, monkeypatch):
        orders = []

        def stop(sampler, equation, grid, order):
            orders.append(order)
            raise SystemExit("stopped before the study")

        monkeypatch.setattr(cli, "pde_residual", stop)
        for argv in (["verify", "--family", "bell", "--order", "2"], ["verify", "--family", "bell"],
                     ["verify", "--family", "bell", "--order", "2"]):
            with pytest.raises(SystemExit, match="stopped"):
                main(argv)
        assert orders == [2, 4, 2]

    def test_consecutive_velocity_calls_share_no_parsed_value(self, monkeypatch):
        steps = []

        def stop(equation, sampler, cfg):
            steps.append(cfg.h)
            raise SystemExit("stopped before the march")

        monkeypatch.setattr(cli, "integrate", stop)
        for argv in (["velocity", "--family", "fisher-front", "--h", "0.1"],
                     ["velocity", "--family", "fisher-front"]):
            with pytest.raises(SystemExit, match="stopped"):
                main(argv)
        default = cli._velocity_setup(build_family("fisher-front"), 0.05).h
        assert steps == [pytest.approx(0.1, rel=1e-2), default]
        assert default == pytest.approx(0.05, rel=1e-2)


# every JSON type, with the edge magnitudes drawn as often as the rest
_EDGE_NUMBERS = st.sampled_from([0, 1, -1, 0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300])
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _EDGE_NUMBERS, st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


@st.composite
def _family_argv(draw):
    """(command, family, --params value): the value is an object keyed by the
    family's own parameters, or any JSON text at all."""
    command = draw(st.sampled_from(["sample", "verify", "velocity"]))
    family = draw(st.sampled_from(sorted(catalog.FAMILIES)))
    keys = st.sampled_from(sorted(catalog.FAMILIES[family].defaults) + ["x_shift", "t_shift"])
    params = draw(st.one_of(st.dictionaries(keys, _EDGE_NUMBERS | st.floats(), max_size=3),
                            st.dictionaries(keys, _JSON, max_size=3), _JSON))
    return command, family, json.dumps(params)


# --h values: malformed, non-finite, huge, tiny, negative, usable.
# Steps below 1e-3 are refused by the point cap or the work budget before any
# march, and steps from 0.05 up march in well under a second
_MALFORMED = st.sampled_from(["abc", "", "1e", "0x10", "1,2", "--", "nan", "inf", "-inf",
                              "NaN", "-0.0", "1e309"])
_H = st.one_of(st.none(), _MALFORMED,
               st.sampled_from([0.0, -0.05, 1e-300, 5e-324, 1e-3, 0.05, 0.1, 0.3, 7.0, 1e300]),
               st.floats(max_value=1e-3), st.floats(min_value=0.05))


def _no_grid(*args):
    raise AssertionError("a grid was allocated before the refusal")


def _returns_or_exits(argv: list[str], out_name: str, check_success=None,
                      out_flag: str = "--out", refused: bool = False) -> None:
    """main(argv + out_flag) returns 0 or 1, or exits with a message and writes nothing.
    check_success(out path) runs where main returned 0.  A refused run must
    exit with a usage error before any grid axis or checkpoint time exists."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        if refused:
            for cls, name in ((Grid2D, "x"), (Grid2D, "t"), (SimConfig, "x"),
                              (SimConfig, "checkpoints")):
                patch.setattr(cls, name, property(_no_grid))
        out = Path(work) / out_name
        argv = argv + [out_flag, str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exc:
            assert isinstance(exc.code, str) or not refused, argv
            # a refusal carries its message; argparse prints its own and exits 2
            message = exc.code if isinstance(exc.code, str) else stderr.getvalue()
            assert exc.code != 0 and message.strip(), argv
            assert os.listdir(work) == [], argv
        else:
            assert code in (0, 1) and not refused, argv
            if code == 0 and check_success is not None:
                check_success(out)


# count flags: malformed, negative, small, and huge values that every count
# flag refuses before any work (a budget, a range or the figure registry)
_HUGE_COUNT = st.sampled_from([10**6, 10**9, 2**31, 2**63, 10**30])


def _count(small_max: int):
    return st.one_of(_MALFORMED, st.integers(-3, small_max), _HUGE_COUNT,
                     st.integers(max_value=-4))


# comma-flag numbers: huge, tiny, subnormal, any float at all, and usable
# (in [-10, 10]) as often as all the others together
_USABLE = st.floats(-10.0, 10.0)
_NUMBER = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 1e-310, -1e-310, 5e-324]),
                    st.floats(), *[_USABLE] * 2)
# simulate marches for as long as --time asks, and on grids this small the
# work budget of 2^25 point-steps still admits minutes of stepping: finite
# times stay in [-2, 2]; huge ones are refused before marching
_TIME = st.one_of(st.sampled_from([0.0, 1e300, -1e300, 1e-310, 5e-324]), st.floats(-2.0, 2.0))


# a count whose points alone, times any other count, exceed cli._MAX_WORK (2^25)
_HUGE_GRID_COUNT = st.integers(2**25 + 1, 2**62)


def _huge_count(raw: str) -> bool:
    """raw, a _comma_flag value, holds a _HUGE_GRID_COUNT."""
    return any(v.isdigit() and int(v) > 2**25 for v in raw.split(","))


@st.composite
def _comma_flag(draw, fields: str, number=_NUMBER):
    """A value of the comma flag read against fields such as "x0,x1,nx".

    Each n* field is a count of 8 to 24 points (16 and more half the time:
    simulate needs them) and each other field a number; an x0,x1 pair is in
    order and distinct four times in five.  Five values in twelve have a flaw:
    a malformed field, a count under 8, a count that alone puts the work over
    the budget, or one field too few or too many."""
    names = fields.split(",")
    counts = st.integers(8, 24) | st.integers(16, 24)
    values = [draw(counts if n.startswith("n") else number) for n in names]
    for i in range(len(names) - 1):
        if names[i][1:] == "0" and names[i + 1][1:] == "1" and draw(st.integers(0, 4)):
            lo, hi = sorted(values[i:i + 2])
            values[i:i + 2] = lo, hi if hi > lo else lo + abs(lo) + 1.0
    flaw = draw(st.sampled_from([None] * 7 + ["malformed", "count", "huge", "fewer", "more"]))
    if flaw == "malformed":
        values[draw(st.integers(0, len(values) - 1))] = draw(_MALFORMED)
    elif flaw in ("count", "huge") and "n" in fields:
        n = [i for i, name in enumerate(names) if name.startswith("n")]
        values[draw(st.sampled_from(n))] = draw(st.integers(-1, 7) if flaw == "count"
                                                else _HUGE_GRID_COUNT)
    return ",".join(map(str, (values + values)[:len(values) + (flaw == "more")
                                              - (flaw == "fewer")]))


def _grid_matches_reference(family: str, raw: str):
    """check_success of a sample run: the CSV is the reference writer's text."""
    def check(out: Path) -> None:
        values = [(int if n.startswith("n") else float)(v)
                  for n, v in zip(("x0", "x1", "nx", "t0", "t1", "nt"), raw.split(","))]
        grid = Grid2D(*values)
        X, T = np.meshgrid(grid.x, grid.t, indexing="ij")
        u, defined = build_family(family).sample(X, T)
        assert_same_rows(out.read_text(), reference_grid_csv(X, T, u, defined))

    return check


class TestArgvProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_family_argv())
    def test_returns_or_exits_with_a_message(self, drawn):
        command, family, params = drawn
        _returns_or_exits([command, "--family", family, "--params", params],
                          "g.csv" if command == "sample" else "r.json")

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(st.sampled_from(sorted(catalog.FAMILIES)), _H)
    def test_velocity_flags_return_or_exit(self, family, h):
        # the = form hands argparse a value that starts with "-" as a value
        argv = ["velocity", "--family", family]
        argv += [] if h is None else [f"--h={h}"]
        _returns_or_exits(argv, "r.json")

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.sampled_from(sorted(catalog.FAMILIES)), _comma_flag("x0,x1,nx,t0,t1,nt"))
    @example("bell", f"-1,1,8,0,1,{2**62}")
    def test_sample_grid_flag(self, family, grid):
        # every value a sample run accepts reaches the CSV writer: its file is
        # the reference writer's text byte for byte
        _returns_or_exits(["sample", "--family", family, f"--grid={grid}"], "g.csv",
                          _grid_matches_reference(family, grid), refused=_huge_count(grid))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(catalog.FAMILIES)), _comma_flag("x0,x1,nx,t0,t1,nt"))
    @example("bell", f"0,1,{2**25 + 1},0,1,8")
    def test_verify_grid_flag(self, family, grid):
        _returns_or_exits(["verify", "--family", family, f"--grid={grid}"], "r.json",
                          refused=_huge_count(grid))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.sampled_from(sorted(catalog.FAMILIES)), _comma_flag("x0,x1,nx"),
           _comma_flag("t0,t1", _TIME))
    @example("fisher-front", f"-1,1,{2**25 + 1}", "0,1")
    def test_simulate_window_and_time_flags(self, family, window, time):
        _returns_or_exits(["simulate", "--family", family, f"--window={window}",
                           f"--time={time}"], "run", refused=_huge_count(window))


    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(_count(17) | st.integers(), _count(300))
    def test_ode_check_flags(self, index, samples):
        _returns_or_exits(["ode-check", f"--chain-index={index}", f"--samples={samples}"],
                          "r.json")

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_count(26) | st.integers())
    def test_chain_depth_flag(self, depth):
        _returns_or_exits(["chain", f"--depth={depth}"], "r.json")

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.lists(_count(10), min_size=1, max_size=3))
    def test_figures_id_flag(self, ids):
        _returns_or_exits(["figures", f"--id={','.join(map(str, ids))}"], "figs",
                          out_flag="--outdir")

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_count(40))
    def test_simulate_checkpoints_flag(self, checkpoints):
        # on this window up to 237,975 checkpoints fit the budget and would march;
        # the huge draws are refused by it before any checkpoint time exists
        _returns_or_exits(["simulate", "--family", "fisher-front", "--window=-6,8,141",
                           "--time=0,0.5", f"--checkpoints={checkpoints}"], "run")


class TestVerify:
    def test_converging_family_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code, text = run(capsys, "verify", "--family", "fisher-front",
                         "--out", str(out))
        assert code == 0
        assert "converges" in text
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["report"]["order_estimate"] >= 3.5

    def test_complement_variant_expected_failure(self, capsys):
        # the 1-u front is cataloged as residual_clean=False: the verifier
        # must see it fail to converge, and that agreement exits 0
        code, text = run(capsys, "verify", "--family", "fisher-front",
                         "--params", '{"complement": true}')
        assert code == 0
        assert "DOES NOT CONVERGE" in text

    def test_custom_grid(self, capsys):
        code, _ = run(capsys, "verify", "--family", "fisher-exp",
                      "--grid=-6,6,33,0,0.4,17")
        assert code == 0

    def test_order_two_judges_by_order(self, capsys):
        # second-order truncation of chain direct 6 is 1.4e-1, far above the
        # order-4 tolerance; at order 2 the observed order decides
        code, text = run(capsys, "verify", "--family", "chain",
                         "--params", '{"index": 6}', "--order", "2")
        assert code == 0
        assert "verdict: converges" in text
        code, text = run(capsys, "verify", "--family", "chain",
                         "--params", '{"index": 6}', "--order", "2", "--tol", "1e-6")
        assert code == 1
        assert "DOES NOT CONVERGE" in text

    @pytest.mark.parametrize("tol", ["nan", "NaN", "-1", "-inf", "-5e-324"])
    def test_nan_or_negative_tol_is_a_usage_error(self, tmp_path, monkeypatch, tol):
        # such a tol once read a converging family as "DOES NOT CONVERGE"
        def no_work(*args, **kwargs):
            raise AssertionError("verify sampled before refusing --tol")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "pde_residual", no_work)
        monkeypatch.setattr(catalog.Sampler, "sample", no_work)
        with pytest.raises(SystemExit, match=r"^--tol: tolerance must be a number >= 0, got "):
            main(["verify", "--family", "fisher-front", f"--tol={tol}", "--out", "v.json"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol, code", [("0", 1), ("-0.0", 1), ("inf", 0)])
    def test_zero_and_infinite_tol_are_judged(self, capsys, tol, code):
        assert run(capsys, "verify", "--family", "fisher-front", f"--tol={tol}")[0] == code


class TestSimulateVelocity:
    def test_simulate_writes_checkpoints(self, capsys, tmp_path):
        code, text = run(capsys, "simulate", "--family", "fisher-front",
                         "--window=-6,8,141", "--time", "0,0.5",
                         "--checkpoints", "3", "--out", str(tmp_path / "run"))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "run_ck0.csv" in names and "run_ck2.csv" in names
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert max(report["report"]["max_abs_errors"]) < 1e-5
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4  # 3 checkpoints + report
        # %.17e round-trips a float64, so reformatting the parsed cells must
        # give the written bytes back
        text = (tmp_path / "run_ck1.csv").read_text()
        x, u = np.array([row.split(",") for row in text.splitlines()[1:]], float).T
        assert_same_rows(text, reference_profile_csv(x, u))

    def test_simulate_registration_reports_speed_and_shape(self, capsys, tmp_path):
        code, _ = run(capsys, "simulate", "--family", "fisher-front", "--window=-10,14,481",
                      "--time", "0,2", "--registration", "--out", str(tmp_path / "run"))
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert code == 0 and report["velocity_method"] == "registration"
        assert report["measured_velocity"] == pytest.approx(5.0 / math.sqrt(6.0), rel=1e-4)
        assert 0.0 < report["shape_error"] < 1e-4

    @pytest.mark.parametrize("family", ["fisher-front", "bell"])
    def test_velocity_fisher(self, capsys, tmp_path, family):
        # every family's speed comes from shift registration, with its shape error
        out = tmp_path / "vel.json"
        code, text = run(capsys, "velocity", "--family", family,
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "registration"
        assert 0.0 < payload["shape_error"] < 1e-3
        assert payload["relative_error"] < 0.01
        assert payload["measured_velocity"] == pytest.approx(
            payload["predicted_velocity"], rel=0.01)

    @pytest.mark.parametrize("params", [{"x_shift": 1.0}, {"t_shift": -2.0}, {"C": -0.5},
                                        {"x_shift": 1.0, "t_shift": -1.0, "C": -0.5}])
    def test_velocity_bell_window_follows_the_masked_edge(self, capsys, tmp_path, params):
        # the bell is masked for x <= v (t - t_shift) + x_shift - 2C; a window
        # placed from v alone let that edge reach its left boundary
        out = tmp_path / "vel.json"
        code, _ = run(capsys, "velocity", "--family", "bell", "--params", json.dumps(params),
                      "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["relative_error"] <= 0.01

    def test_velocity_window_centres_an_exact_crossing(self):
        # the probe meets tanh(x - 6)'s mid level 0 exactly at its point x = 6, and
        # tanh(x - 6 - 1e-9)'s between that point and the next: the same window
        def window(shift):
            s = catalog.Sampler(fn=lambda x, t: np.tanh(x - shift), equation=Fisher(),
                                family_id="tanh", params={}, predicted_velocity=1.0)
            cfg = cli._velocity_setup(s, 0.05)
            return cfg.x_min, cfg.x_max, cfg.n_x

        assert window(6.0) == window(6.0 + 1e-9)
        assert window(6.0)[:2] == (-3.0, pytest.approx(16.8))

    @pytest.mark.parametrize("C", [0.0, 0.2, 0.4])
    def test_velocity_bell_window_unshifted(self, C):
        cfg = cli._velocity_setup(build_family("bell", {"C": C}), 0.05)
        v = build_family("bell").predicted_velocity
        assert (cfg.x_min, cfg.x_max) == (3.0 * v + 0.7, 3.0 * v + 0.7 + 8.0)

    @pytest.mark.parametrize("c1", ["-3", "3"])
    def test_velocity_measures_a_fast_front(self, capsys, tmp_path, c1):
        # predicted speed -5 c1, so +-15: registration's shift once left a
        # quarter of the window, and every front faster than about 12 was refused
        out = tmp_path / "vel.json"
        code, _ = run(capsys, "velocity", "--family", "plane-wave", "--params",
                      f'{{"n": 2, "c1": {c1}, "lambda2": 0}}', "--h", "0.02", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["relative_error"] < 0.01

    @pytest.mark.parametrize("c1, h", [(c1, h) for h in (0.01, 0.05)
                                       for c1 in (-0.5, -1.0, -2.0, -3.0, -4.0, -10.0, 2.0, 3.0)]
                             + [(100.0, 0.05), (1000.0, 0.05)])
    def test_velocity_window_holds_the_front_travel(self, c1, h):
        # a quarter of the window bounds registration's shift; only the point
        # cap, which the window at speed 5000 reaches, stops its widening
        s = build_family("plane-wave", {"n": 2, "c1": c1, "lambda2": 0.0})
        cfg = cli._velocity_setup(s, h)
        travel = abs(s.predicted_velocity) * cfg.t1
        assert travel < 0.25 * (cfg.x_max - cfg.x_min) or cfg.n_x == 65536

    def test_velocity_stationary_front_absolute_error(self, capsys, tmp_path):
        # c1 = 3/2 gives predicted speed 0: no relative error exists, so the
        # absolute error is held to the 0.01 bound
        out = tmp_path / "vel.json"
        code, text = run(capsys, "velocity", "--family", "generalized-fisher",
                         "--params", '{"c1": 1.5}', "--out", str(out))
        assert code == 0
        assert "abs.err" in text and "predicted speed is 0" in text
        payload = json.loads(out.read_text())
        assert payload["predicted_velocity"] == 0.0
        assert "relative_error" not in payload
        assert payload["absolute_error"] < 0.01
        assert "absolute error" in payload["method"]


    def test_velocity_masked_probe_usage_error(self, capsys, tmp_path, monkeypatch):
        # the rational solitary wave at C = -40 is masked on all of x in [-30, 30]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["velocity", "--family", "solitary",
                  "--params", '{"nu": 0.0, "branch": "rational", "C": -40.0}',
                  "--out", "v.json"])
        assert "x in [-30, 30]" in str(exc.value.code)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family, params", [
        ("fisher-front", {}), ("fisher-exp", {}), ("plane-wave", {}), ("plane-wave", {"c1": 1000.0}),
        ("generalized-fisher", {}), ("generalized-fisher", {"c1": -2.0}),
        ("generalized-fisher", {"c1": 1.5}), ("bell", {}), ("bell", {"C": 0.4, "x_shift": 1.0}),
    ])
    def test_velocity_work_budget_admits_default_runs(self, family, params):
        # every default-h run plans at most 29 steps of 65,536 points: far inside the budget
        cfg = cli._velocity_setup(build_family(family, params), 0.05)
        assert cfg.method == "rkc"
        assert math.ceil(cfg.t1 / cfg.dt_max) * cfg.n_x <= 29 * 65536 < cli._MAX_WORK

    def test_only_velocity_marches_rkc(self, monkeypatch, tmp_path):
        methods = []

        def recording(eq, sampler, cfg):
            methods.append(cfg.method)
            return integrate(eq, sampler, cfg)

        monkeypatch.setattr(cli, "integrate", recording)
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--family", "fisher-front", "--window=-6,8,141", "--time", "0,0.5",
              "--checkpoints", "3", "--out", "run"])
        main(["velocity", "--family", "fisher-front", "--out", "v.json"])
        assert methods == ["rk4", "rkc"]
        # simulate's report lists its grid and step fields, not the method
        config = json.loads((tmp_path / "run_report.json").read_text())["config"]
        assert sorted(config) == ["n_x", "safety", "space_order", "t0", "t1", "x_max", "x_min"]


class TestChainOdeCheck:
    def test_chain_table(self, capsys, tmp_path):
        out = tmp_path / "chain.json"
        code, text = run(capsys, "chain", "--depth", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        elements = payload["elements"]
        assert [e["c_n"] for e in elements] == [-0.25, 1.0, -4.0, 16.0]
        # zeros of element 1 become singular points of element 2
        assert elements[1]["zeros"][0] == pytest.approx(1.854075, abs=1e-5)
        assert any(abs(s - 1.854075) < 1e-5 for s in elements[2]["singular"])

    def test_chain_rows_are_the_rounded_lattice(self, capsys, tmp_path):
        out = tmp_path / "chain.json"
        code, text = run(capsys, "chain", "--depth", "26", "--out", str(out))
        assert code == 0
        assert text.splitlines()[0] == ("index  C_n             zeros (one period)"
                                        "                 singular points")
        elements = json.loads(out.read_text())["elements"]
        assert len(elements) == 27
        for n, row in enumerate(elements):
            zeros, poles = phi_chain(n).lattice()
            assert row["zeros"] == [round(v, 6) for v in zeros.tolist()]
            assert row["singular"] == [round(v, 6) for v in poles.tolist()]
            assert len(row["zeros"]) + len(row["singular"]) == 2 ** ((n + 1) // 2) + 1

    def test_chain_states_the_lattice_without_evaluating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("chain evaluated an element")

        monkeypatch.setattr(catalog, "jacobi_sn_cn_dn", refuse)
        monkeypatch.setattr(catalog.PhiState, "levels", refuse)
        code, _ = run(capsys, "chain", "--depth", "6")
        assert code == 0

    def test_ode_check(self, capsys):
        code, text = run(capsys, "ode-check", "--chain-index", "1",
                         "--samples", "100")
        assert code == 0
        assert "C_estimate" in text and "[pass]" in text


class TestFigures:
    def test_registry_has_eight(self):
        assert sorted(FIGURES) == list(range(1, 9))

    def test_single_figure_emission(self, capsys, tmp_path):
        code, text = run(capsys, "figures", "--id", "2",
                         "--outdir", str(tmp_path), "--gnuplot")
        assert code == 0
        data = (tmp_path / "figure2.csv").read_text().splitlines()
        assert data[0] == "x,t,u,defined"
        gate = json.loads((tmp_path / "figure2.json").read_text())
        assert gate["defined_fraction"] >= 0.9
        assert gate["finite"]
        assert (tmp_path / "figure2.gp").exists()

    def test_figure_determinism(self, capsys, tmp_path):
        for sub in ("a", "b"):
            run(capsys, "figures", "--id", "6", "--outdir", str(tmp_path / sub))
        assert ((tmp_path / "a" / "figure6.csv").read_bytes()
                == (tmp_path / "b" / "figure6.csv").read_bytes())

    def test_each_figure_sampled_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = cli.figure_data

        def counted(fig_id):
            calls.append(fig_id)
            return real(fig_id)

        monkeypatch.setattr(cli, "figure_data", counted)
        code, _ = run(capsys, "figures", "--id", "6", "--outdir", str(tmp_path))
        assert code == 0
        assert calls == [6]

    def test_gate_values(self):
        gate = figure_gate(4)
        assert gate["defined_fraction"] >= 0.9
        assert gate["finite"]
        assert gate["residual_order"] >= 3.5


# The hand-written to_json methods the reports had before they serialized from
# their dataclass fields: the byte reference for every report payload.
REFERENCE_TO_JSON = {
    "ResidualReport": lambda r: {
        "max_abs": r.max_abs, "l2": r.l2, "defined_fraction": r.defined_fraction,
        "order_estimate": r.order_estimate, "level_max_abs": list(r.level_max_abs),
        "orders": list(r.orders), "worst": [list(w) for w in r.worst],
        "stencil_order": r.stencil_order},
    "OdeResidualReport": lambda r: {
        "second_order_max": r.second_order_max, "first_integral_std": r.first_integral_std,
        "c_estimate": r.c_estimate, "n_valid": r.n_valid},
    "PropositionRow": lambda r: {
        "index": r.index, "proposition": r.proposition, "max_deviation": r.max_deviation,
        "passed": r.passed},
    "SimReport": lambda r: {
        "times": list(r.times), "max_abs_errors": list(r.max_abs_errors),
        "l2_errors": list(r.l2_errors), "measured_velocity": r.measured_velocity,
        "velocity_fit_r2": r.velocity_fit_r2, "velocity_method": r.velocity_method,
        "shape_error": r.shape_error},
}


def _simulated_reports():
    """The front's report under level crossing and under registration."""
    front = build_family("fisher-front")
    hist = integrate(front.equation, front, SimConfig(-8.0, 10.0, 91, 0.0, 0.5, n_checkpoints=4))
    return [compare_exact(hist, front, level=0.5), compare_exact(hist, front, registration=True)]


def _pde_report():
    chain = build_family("chain", {"index": 2})
    return pde_residual(chain, chain.equation, Grid2D(0.25, 0.6, 17, 0.05, 0.1, 9), 2)


# name -> reports of every serialized type, built when the test runs
REPORTS = {
    "pde": lambda: [_pde_report()],
    "potential": lambda: [potential_residual(z_from_phi(1), {"k": 1.0},
                                             Grid2D(0.3, 0.5, 9, 0.02, 0.04, 9))],
    "ode": lambda: [ode_residual(phi_chain(3), clean_chain_samples(3, 50))],
    "propositions": lambda: proposition_suite(max_index=2, n_samples=50),
    "simulate": _simulated_reports,
    "no-velocity": lambda: [SimReport((0.0, 1.0), (1e-8, 2e-8), (1e-9, 2e-9), None, None)],
}


class TestReportSerialization:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_asdict_matches_hand_written_json(self, name):
        for rep in REPORTS[name]():
            expected = REFERENCE_TO_JSON[type(rep).__name__](rep)
            assert (json.dumps(asdict(rep), indent=2, sort_keys=True)
                    == json.dumps(expected, indent=2, sort_keys=True))
