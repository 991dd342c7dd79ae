import json
import os
import runpy
import sys

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


@pytest.mark.parametrize("command", ["moments", "concurrence"])
def test_point_json_keys_are_the_csv_header(command, capsys):
    argv = (command, "--n", "12", "--T", "0.2", "--tier", "cmfa")
    assert run_cli(*argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert run_cli(*argv, "--out-format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"] == {}
    (point,) = doc["points"]
    assert list(point) == header.split(",")
    assert ("C" in point) == (command == "concurrence")
    # the same cells: empty in the CSV where the JSON has null
    assert ["" if x is None else str(x) for x in point.values()] == \
        row.split(",")


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


def test_limit_temp_under_an_open_top_band_is_none(capsys):
    # two bands, the upper one still open at t_max: the probes reach no
    # end of the last band, so there is no limit (the lower band's end is
    # not one)
    argv = ("limit-temp", "--tier", "cspa", "--n", "100", "--b", "1.0",
            "--t-max", "0.02", "--probes", "40")
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert "band: 0.0079563352 .. open" in out
    assert "limit: none" in out and "limit: 0" not in out
    assert run_cli(*argv, "--out-format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["intervals"]) == 2 and doc["intervals"][1][1] is None
    assert doc["limit"] is None


def test_limit_temp_without_entanglement_says_so(capsys):
    # far above b_c no probe is entangled: the zero-entanglement marker
    assert run_cli("limit-temp", "--n", "20", "--b", "3",
                   "--probes", "5") == 0
    assert capsys.readouterr().out == (
        "no entanglement found on the T probe grid (zero-entanglement "
        "marker)\n")


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


@pytest.mark.parametrize("argv, code", [
    # every cspa point is a breakdown (a sweep of them exits 3 too)
    pytest.param(("--T", "0.01", "--tier", "cspa"), 3, id="breakdown"),
    # every cmfa point at T = 0 is an error
    pytest.param(("--T", "0", "--tier", "cmfa"), 3, id="error"),
    # cmfa is not applicable at gamma < 0
    pytest.param(("--T", "0.1", "--gamma", "-0.5", "--tier", "cmfa"), 4,
                 id="not-applicable"),
])
def test_compare_without_a_common_ok_point_exits_by_the_statuses(argv, code,
                                                                capsys):
    assert run_cli("compare", "--n", "20", *argv, "--tier-b", "exact",
                   "--grid", "b:0:0.5:3") == code
    assert capsys.readouterr().err == "no grid point where both tiers are ok\n"


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


@pytest.mark.parametrize("argv, line", [
    (("limit-temp", "--b", "0.3"), "probes = 2.5"),
    (("concurrence",), "T = abc"),
    (("concurrence",), "tier = foo"),
])
def test_config_bad_values_are_invalid_arguments(tmp_path, capsys, argv,
                                                 line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(*argv, "--n", "20", "--config", str(cfg)) == 2
    assert "invalid arguments" in capsys.readouterr().err


def test_config_line_without_a_value_is_invalid_arguments(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 0.1\nn 20\n")
    assert run_cli("concurrence", "--n", "20", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (
        "invalid arguments: bad config line: n 20\n")


def test_unreadable_config_is_invalid_arguments(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli("concurrence", "--n", "20", "--T", "0.1",
                   "--config", str(missing)) == 2
    assert capsys.readouterr().err.startswith(
        "invalid arguments: cannot read config file: ")


def test_config_value_of_an_option_without_default(tmp_path, capsys):
    # t_min defaults to None: the config value is parsed as the flag's is
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_min = 0.01\n")
    argv = ("limit-temp", "--n", "20", "--b", "0.3", "--probes", "12")
    assert run_cli(*argv, "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run_cli(*argv, "--t-min", "0.01") == 0
    assert from_config == capsys.readouterr().out
    assert from_config.startswith("band: 0.01 ..")


def test_config_supplies_a_required_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 20\n")
    argv = ("concurrence", "--b", "0.5", "--T", "0.1")
    assert run_cli(*argv, "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run_cli(*argv, "--n", "20") == 0
    assert from_config == capsys.readouterr().out
    # a flag still wins over the file
    assert run_cli(*argv, "--n", "12", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("exact,12,")


def test_required_option_missing_from_flags_and_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 0.1\n")
    with pytest.raises(SystemExit) as exit_:
        run_cli("concurrence", "--b", "0.5", "--config", str(cfg))
    assert exit_.value.code == 2
    assert "required: --n" in capsys.readouterr().err


def test_figure_command(tmp_path, capsys):
    rc = run_cli("figure", "--id", "1", "--out-dir", str(tmp_path))
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert "fig1.gp" in names
    assert any(n.startswith("fig1_T0.005") for n in names)
    gp = (tmp_path / "fig1.gp").read_text()
    assert "plot" in gp and str(tmp_path) not in gp   # relative paths only


@pytest.mark.parametrize("argv", [
    ("concurrence", "--n", "10", "--T", "0.1"),
    ("sweep", "--n", "10", "--T", "0.1", "--grid", "b:0:1:5"),
    ("figure", "--id", "1"),
])
def test_out_dir_below_a_regular_file_is_invalid_arguments(argv, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    # the out-dir is made before any point is evaluated, and one that
    # cannot be made exits 2, where it was a traceback after every point
    from xxzent import sweep
    calls = []
    monkeypatch.setattr(sweep, "evaluate_run",
                        lambda *args: calls.append(args))
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "sub"
    assert run_cli(*argv, "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid arguments: cannot write {out_dir}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("argv, name", [
    (("concurrence", "--n", "10", "--T", "0.1"), "point.csv"),
    (("figure", "--id", "1"), "fig1.gp"),
])
def test_unwritable_output_file_is_invalid_arguments(argv, name, tmp_path,
                                                     capsys):
    # a directory where the output file goes: the write fails, exit 2
    (tmp_path / name).mkdir()
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid arguments: cannot write {tmp_path}")
    assert err.endswith(f"Is a directory: '{tmp_path / name}'\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("limit-temp", "--b", "0.3", "--t-min", "0"),
    ("limit-temp", "--b", "0.3", "--t-min", "0.5", "--t-max", "0.1"),
    ("limit-field", "--T", "0.1", "--b-min", "2", "--b-max", "0"),
    ("limit-temp", "--b", "0.3", "--probes", "0"),
    ("limit-field", "--T", "0.1", "--probes", "1"),
])
def test_limit_scans_reject_bad_grids(argv, capsys):
    assert run_cli(*argv, "--n", "20") == 2
    assert "invalid arguments" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ("sweep",),
    ("compare", "--tier-b", "cmfa"),
])
def test_workers_below_one_are_invalid_arguments(argv, workers, capsys):
    assert run_cli(*argv, "--n", "8", "--T", "0.2", "--grid", "b:0:1:3",
                   "--workers", workers) == 2
    assert capsys.readouterr().err == (
        "invalid arguments: workers must be >= 1\n")


def test_sweep_grid_of_three_fields_is_invalid_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--n", "8", "--T", "0.1", "--grid", "b:0:1")
    assert exc.value.code == 2
    assert "grid must be axis:min:max:count[:log]" in capsys.readouterr().err


def test_sweep_grid_rejects_infinite_ends(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--n", "8", "--grid", "b:0:inf:3")
    assert exc.value.code == 2
    assert "grid ends must be finite" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["xxzent", "concurrence", "--n", "4",
                                      "--T", "0.5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("xxzent", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tier,n,v,gamma,b,T")


def test_tier_is_chosen_by_tier_alone(tmp_path, capsys):
    # there is no --mode alias: the flag and the config key are rejected
    argv = ("concurrence", "--n", "20", "--T", "0.1", "--b", "0.5",
            "--tier", "exact")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--mode", "spa")
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = spa\n")
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "invalid arguments" in capsys.readouterr().err


def test_limit_scan_without_a_defined_probe_says_so(capsys):
    # every probe is below the CSPA T*: three breakdowns, which exit 3 as
    # the same grid swept does
    argv = ("limit-temp", "--n", "20", "--b", "0", "--tier", "cspa",
            "--t-min", "0.01", "--t-max", "0.05", "--probes", "3")
    assert run_cli(*argv) == 3
    assert capsys.readouterr().out == (
        "no T probe was defined (every probe's status was breakdown, "
        "not-applicable or error)\n")
    assert run_cli(*argv, "--out-format", "json") == 3
    assert json.loads(capsys.readouterr().out) == {
        "tier": "cspa", "axis": "T", "intervals": [], "limit": None}
    assert run_cli("sweep", "--n", "20", "--b", "0", "--tier", "cspa",
                   "--grid", "T:0.01:0.05:3:log") == 3
    capsys.readouterr()
    # CMFA at gamma < 0: every probe not-applicable, which exits 4
    assert run_cli("limit-temp", "--n", "20", "--gamma", "-0.5", "--b", "0.3",
                   "--tier", "cmfa", "--probes", "3") == 4
    assert capsys.readouterr().out.startswith("no T probe was defined")


@pytest.mark.parametrize("argv", [
    ("limit-temp", "--b", "0.3", "--probes", "3"),
    ("limit-field", "--T", "0.1", "--probes", "3"),
    ("concurrence", "--T", "0.1"),
    ("moments", "--T", "0.1"),
    ("sweep", "--T", "0.1", "--grid", "b:0:1:3"),
])
def test_bruteforce_cap_is_invalid_arguments(argv, capsys):
    # past n = 18 the command is refused before any point is evaluated,
    # with the oracle's own message
    assert run_cli(*argv, "--n", "19", "--tier", "bruteforce") == 2
    assert capsys.readouterr().err == (
        "invalid arguments: brute force capped at n = 18: the first point "
        "at n = 18 builds its sector table in about 11 s and 460 MB, and "
        "each n past it costs several times more\n")


def test_ok_row_never_holds_empty_values(capsys):
    # just above a validity grid's T*, the integrand is NaN at the worst
    # point the grid missed; such a point printed as ok with empty values,
    # then as error. The line scan finds that point: it is a breakdown
    rc = run_cli("concurrence", "--n", "20", "--gamma", "1", "--b", "0",
                 "--T", "0.0792998", "--tier", "cspa")
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("status: breakdown (CSPA breakdown: ")


@pytest.mark.parametrize("gamma, grid_t_star", [(1.0, 0.0792996),
                                                (0.5, 0.0397661)])
def test_sweep_across_t_star_breaks_down_below_it(capsys, gamma,
                                                  grid_t_star):
    # T from below the T* of the old 256 x 64 validity grid to just below
    # the line scan's: every point is a breakdown. T* itself is stepped
    # over (a point a hair above it refines to the panel cap before it
    # reads error); at twice T* the point is ok, with every value
    from xxzent.cspa import breakdown_temperature
    from xxzent.model import ModelParams
    t_star = breakdown_temperature(
        ModelParams(n=20, gamma=gamma, b=0.0, T=0.1), tol=1e-12)
    gap = t_star - grid_t_star
    assert gap > 0

    def rows(*argv):
        run_cli(*argv, "--n", "20", "--gamma", str(gamma), "--b", "0",
                "--tier", "cspa")
        header, *lines = capsys.readouterr().out.splitlines()
        return [dict(zip(header.split(","), line.split(",")))
                for line in lines]

    below = rows("sweep", "--grid",
                 f"T:{grid_t_star - gap}:{t_star * (1 - 1e-9)}:10")
    assert sum(float(row["T"]) > grid_t_star for row in below) >= 2
    assert {row["status"] for row in below} == {"breakdown"}
    [above] = rows("concurrence", "--T", str(2 * t_star))
    assert above["status"] == "ok"
    assert all(above.values()), above
