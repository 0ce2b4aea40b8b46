"""CLI surface: determinism, schemas, exit codes, figure gates."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdwaves.catalog as catalog
import rdwaves.cli as cli
from rdwaves.catalog import build_family, phi_chain, z_from_phi
from rdwaves.cli import FIGURES, figure_data, figure_gate, main
from rdwaves.simulate import SimConfig, SimReport, compare_exact, integrate
from rdwaves.verify import (
    Grid2D,
    clean_chain_samples,
    ode_residual,
    pde_residual,
    potential_residual,
    proposition_suite,
)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# The per-cell writers that cli's CSV functions replaced: the byte reference.
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


class TestCsvWriters:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 7)])
    def test_grid_matches_reference(self, shape):
        nx, nt = shape
        rng = np.random.default_rng(nx * 10 + nt)
        x = np.resize(SPECIAL, nx)
        t = np.resize(SPECIAL[::-1], nt)
        u = rng.permutation(np.resize(SPECIAL, nx * nt)).reshape(shape)
        defined = np.ones(shape, bool)
        if u.size > 1:  # masked cells beside defined ones holding nan and +-inf
            defined.flat[::3] = False
        for mask in (defined, ~defined):
            assert_same_rows(cli._grid_csv(x, t, u, mask),
                             reference_grid_csv(x[:, None], t[None, :], u, mask))

    @pytest.mark.parametrize("n", [1, 2, len(SPECIAL)])
    def test_profile_matches_reference(self, n):
        x = np.resize(SPECIAL[::-1], n)
        u = np.resize(SPECIAL, n)
        assert_same_rows(cli._profile_csv(x, u), reference_profile_csv(x, u))

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
        ("--level", ["velocity", "--family", "fisher-front", "--level", "5",
                     "--out", "v.json"]),
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
    ])
    def test_usage_error_names_flag(self, capsys, tmp_path, monkeypatch, flag, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert flag in str(exc.value.code)
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

    @pytest.mark.parametrize("c1", ["1e4", "1e8", "1.6e16"])
    def test_velocity_window_is_capped_before_allocation(self, tmp_path, monkeypatch, c1):
        # at c1 = 1.6e16 the window once asked numpy for 5.6 EiB
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"--h: a window .* needs more than 65536 points"):
            main(["velocity", "--family", "plane-wave", "--params", f'{{"c1": {c1}}}',
                  "--out", "v.json"])
        assert list(tmp_path.iterdir()) == []


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


class TestArgvProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_family_argv())
    def test_returns_or_exits_with_a_message(self, drawn):
        command, family, params = drawn
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / ("g.csv" if command == "sample" else "r.json")
            argv = [command, "--family", family, "--params", params, "--out", str(out)]
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main(argv)
            except SystemExit as exc:
                # a refusal carries its message; argparse prints its own and exits 2
                message = exc.code if isinstance(exc.code, str) else stderr.getvalue()
                assert exc.code != 0 and message.strip(), argv
                assert os.listdir(work) == [], argv
            else:
                assert code in (0, 1), argv


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

    @pytest.mark.parametrize("family", ["fisher-front", "bell"])
    def test_velocity_fisher(self, capsys, tmp_path, family):
        # the bell measures its speed by shift registration, the front by level crossing
        out = tmp_path / "vel.json"
        code, text = run(capsys, "velocity", "--family", family,
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"].startswith("registration" if family == "bell" else "level")
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

    @pytest.mark.parametrize("C", [0.0, 0.2, 0.4])
    def test_velocity_bell_window_unshifted(self, C):
        cfg = cli._velocity_setup(build_family("bell", {"C": C}), 0.05)[0]
        v = build_family("bell").predicted_velocity
        assert (cfg.x_min, cfg.x_max) == (3.0 * v + 0.7, 3.0 * v + 0.7 + 8.0)

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
        "velocity_fit_r2": r.velocity_fit_r2, "velocity_method": r.velocity_method},
}


def _simulated_report():
    front = build_family("fisher-front")
    hist = integrate(front.equation, front, SimConfig(-8.0, 10.0, 91, 0.0, 0.5, n_checkpoints=4))
    return compare_exact(hist, front, level=0.5)


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
    "simulate": lambda: [_simulated_report()],
    "no-velocity": lambda: [SimReport((0.0, 1.0), (1e-8, 2e-8), (1e-9, 2e-9), None, None)],
}


class TestReportSerialization:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_asdict_matches_hand_written_json(self, name):
        for rep in REPORTS[name]():
            expected = REFERENCE_TO_JSON[type(rep).__name__](rep)
            assert (json.dumps(asdict(rep), indent=2, sort_keys=True)
                    == json.dumps(expected, indent=2, sort_keys=True))
