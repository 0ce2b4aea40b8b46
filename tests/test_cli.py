"""CLI surface: determinism, schemas, exit codes, figure gates."""

import json

import numpy as np
import pytest

import rdwaves.cli as cli
from rdwaves.cli import FIGURES, figure_gate, main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_velocity_fisher(self, capsys, tmp_path):
        out = tmp_path / "vel.json"
        code, text = run(capsys, "velocity", "--family", "fisher-front",
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["relative_error"] < 0.01
        assert payload["measured_velocity"] == pytest.approx(
            payload["predicted_velocity"], rel=0.01)


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
