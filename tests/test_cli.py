import json
import os

import pytest

from xxzent.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_concurrence_csv_stdout(capsys):
    rc = run_cli("concurrence", "--n", "20", "--T", "0.1", "--b", "0.5")
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.startswith("tier,n,v,gamma,b,T,logZ")
    assert row.split(",")[0] == "exact"


def test_moments_hides_concurrence_columns(capsys):
    rc = run_cli("moments", "--n", "12", "--T", "0.2", "--tier", "cmfa")
    out = capsys.readouterr().out
    assert rc == 0
    assert "C" not in out.splitlines()[0].split(",")


def test_json_output(capsys):
    rc = run_cli("concurrence", "--n", "10", "--T", "0.3", "--b", "0.2",
                 "--out-format", "json")
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["points"][0]["tier"] == "exact"
    assert doc["points"][0]["status"] == "ok"


def test_sweep_to_files(tmp_path, capsys):
    rc = run_cli("sweep", "--n", "8", "--T", "0.2", "--tier", "exact",
                 "--grid", "b:0:1:5", "--out-dir", str(tmp_path))
    assert rc == 0
    out_path = capsys.readouterr().out.strip()
    assert os.path.exists(out_path)
    lines = open(out_path).read().splitlines()
    assert len(lines) == 6


def test_exit_code_invalid_args(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--n", "8", "--grid", "q:0:1:5")
    assert exc.value.code == 2
    # model-level domain errors map to 2 as well
    rc = run_cli("concurrence", "--n", "1", "--T", "0.1")
    assert rc == 2
    rc = run_cli("concurrence", "--n", "20", "--T", "inf")
    assert rc == 2


def test_exit_code_numerical_failure():
    rc = run_cli("concurrence", "--n", "20", "--T", "0.05", "--b", "0.0",
                 "--tier", "cspa")
    assert rc == 3


def test_exit_code_not_applicable():
    rc = run_cli("concurrence", "--n", "20", "--T", "0.001", "--b", "0.94",
                 "--tier", "cmfa")
    assert rc == 4


def test_limit_temp_text(capsys):
    rc = run_cli("limit-temp", "--n", "20", "--b", "2.0", "--tier", "exact")
    out = capsys.readouterr().out
    assert rc == 0
    assert "limit:" in out and "band:" in out


def test_limit_field_json(capsys):
    rc = run_cli("limit-field", "--n", "20", "--T", "0.1", "--tier", "cmfa",
                 "--out-format", "json", "--probes", "40")
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["axis"] == "b"
    # n=20, T=0.1: the closed-form limit field sqrt(1 - 2T/(1 - 2n e^{-1/T}))
    assert doc["limit"] == pytest.approx(0.894, abs=0.02)


def test_limit_field_defaults_to_ground_state(capsys):
    # without --T the field scan runs at the CLI's default T = 0
    rc = run_cli("limit-field", "--n", "20", "--tier", "exact")
    out = capsys.readouterr().out
    assert rc == 0
    band = [ln for ln in out.splitlines() if ln.startswith("band:")]
    assert len(band) == 1
    lo, hi = band[0].split()[1::2]
    assert float(lo) == 0.0
    assert float(hi) == pytest.approx(0.95, abs=1e-5)   # b_c = 1 - 1/n


def test_compare_output(capsys):
    rc = run_cli("compare", "--n", "20", "--T", "0.1", "--tier", "exact",
                 "--tier-b", "cmfa", "--grid", "b:0:0.8:5")
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |dC|" in out and "mean |dC|" in out


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\ntier = cmfa\nT = 0.2\n# comment\n")
    rc = run_cli("concurrence", "--n", "10", "--config", str(cfg))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1].startswith("cmfa,10")


def test_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tier = cmfa\nT = 0.2\n")
    rc = run_cli("concurrence", "--n", "10", "--tier", "exact",
                 "--config", str(cfg))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1].startswith("exact,10")


def test_figure_command(tmp_path, capsys):
    rc = run_cli("figure", "--id", "1", "--out-dir", str(tmp_path))
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert "fig1.gp" in names
    assert any(n.startswith("fig1_T0.005") for n in names)
    gp = (tmp_path / "fig1.gp").read_text()
    assert "plot" in gp and str(tmp_path) not in gp   # relative paths only
