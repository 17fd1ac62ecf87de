"""End-to-end tests of the command-line front end."""

import json

import numpy as np
import pytest

from eigendetect import performance
from eigendetect.cli import main, parse_grid, parse_snr
from eigendetect.errors import DomainError, NumericError
from eigendetect.performance import pfa, pmd
from eigendetect.spiked import DetectorDesign
from eigendetect.tracy_widom import dump_table_csv


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            pairs[parts[0]] = parts[1]
    return pairs


# --- flag parsing ----------------------------------------------------------------

def test_parse_snr_forms():
    assert parse_snr("0.01") == 0.01
    assert parse_snr("-20dB") == pytest.approx(0.01, rel=1e-12)
    assert parse_snr("-10DB") == pytest.approx(0.1, rel=1e-12)
    assert parse_snr("3dB") == pytest.approx(10 ** 0.3, rel=1e-12)
    with pytest.raises(DomainError):
        parse_snr("-0.5")


def test_parse_grid_forms():
    g = parse_grid("0.001:0.5:20log")
    assert g.size == 20 and g[0] == pytest.approx(0.001) and g[-1] == pytest.approx(0.5)
    assert np.allclose(np.diff(np.log(g)), np.diff(np.log(g))[0])
    lin = parse_grid("0.1:0.9:5lin")
    assert np.allclose(lin, np.linspace(0.1, 0.9, 5))
    assert parse_grid("1:10:4").size == 4  # lin is the default
    with pytest.raises(DomainError):
        parse_grid("1:2")
    with pytest.raises(DomainError):
        parse_grid("5:1:3log")


# --- threshold / pfa / pmd ----------------------------------------------------------

def test_threshold_roundtrips_through_pfa(capsys):
    rc, out, _ = run_cli(capsys, "threshold", "--k", "50", "--n", "1000", "--pfa", "0.01")
    assert rc == 0
    gamma = float(parse_kv(out)["gamma"])
    assert abs(pfa(gamma, DetectorDesign(50, 1000)) - 0.01) <= 1e-6


def test_threshold_with_snr_prints_pmd(capsys):
    rc, out, _ = run_cli(
        capsys, "threshold", "--k", "50", "--n", "1000", "--pfa", "0.01", "--snr", "-20dB"
    )
    assert rc == 0
    kv = parse_kv(out)
    gamma, pm = float(kv["gamma"]), float(kv["pmd"])
    # gamma is printed to 10 significant digits, so recompute at that precision
    assert pm == pytest.approx(pmd(gamma, DetectorDesign(50, 1000), 1.5), rel=1e-6)


def test_threshold_rejects_bad_pfa(capsys):
    rc, _, err = run_cli(capsys, "threshold", "--k", "50", "--n", "1000", "--pfa", "1.5")
    assert rc == 2
    assert "pfa must lie in (0,1)" in err


def test_pfa_pmd_subcommands_consistent(capsys):
    # the CLI prints the library's value at 10 significant digits, so the text matches
    rc, out, _ = run_cli(capsys, "pfa", "--k", "50", "--n", "1000", "--gamma", "2.5")
    assert rc == 0
    assert out == "pfa %.10g\n" % pfa(2.5, DetectorDesign(50, 1000))
    rc, out, _ = run_cli(
        capsys, "pmd", "--k", "50", "--n", "1000", "--gamma", "2.5", "--t1", "1.5"
    )
    assert rc == 0
    assert out == "pmd %.10g\n" % pmd(2.5, DetectorDesign(50, 1000), 1.5)


def test_signal_flags_are_exclusive(capsys):
    rc, _, err = run_cli(
        capsys, "pmd", "--k", "50", "--n", "1000", "--gamma", "2.5",
        "--t1", "1.5", "--snr", "0.01",
    )
    assert rc == 2 and "only one of" in err
    rc, _, err = run_cli(capsys, "pmd", "--k", "50", "--n", "1000", "--gamma", "2.5")
    assert rc == 2 and "exactly one of" in err


# --- identify -------------------------------------------------------------------------

def test_identify_critical_snr(capsys):
    rc, out, _ = run_cli(capsys, "identify", "--k", "50", "--n", "1000")
    assert rc == 0
    kv = parse_kv(out)
    assert float(kv["critical_snr"]) == pytest.approx(0.004472, rel=1e-3)
    assert float(kv["critical_snr_db"]) == pytest.approx(-23.4949, abs=1e-3)


def test_identify_reports_critical_spike(capsys):
    rc, out, _ = run_cli(capsys, "identify", "--k", "10", "--n", "100")
    kv = parse_kv(out)
    assert float(kv["critical_t1"]) == pytest.approx(1.3162, abs=1e-4)


def test_identify_one_receiver_prints_critical_snr(capsys):
    # K = 1 admits no source (1 <= P < K), so like K >= N it prints no critical_t1
    rc, out, _ = run_cli(capsys, "identify", "--k", "1", "--n", "5")
    assert rc == 0
    kv = parse_kv(out)
    assert set(kv) == {"critical_snr", "critical_snr_db"}
    assert float(kv["critical_snr"]) == pytest.approx(5 ** -0.5, rel=1e-9)
    with pytest.raises(DomainError, match="K >= 2"):
        DetectorDesign(K=1, N=5)


def test_identify_min_samples(capsys):
    rc, out, _ = run_cli(capsys, "identify", "--k", "50", "--snr", "0.01")
    assert rc == 0
    assert int(parse_kv(out)["min_samples"]) == 201


def test_identify_requires_inputs(capsys):
    rc, _, err = run_cli(capsys, "identify", "--k", "50")
    assert rc == 2


# --- roc / lut -------------------------------------------------------------------------

def test_roc_csv_monotone(tmp_path, capsys):
    out_path = tmp_path / "roc.csv"
    rc, _, _ = run_cli(
        capsys, "roc", "--k", "50", "--n", "1000", "--snr", "-10dB",
        "--pfa-grid", "0.001:0.5:8log", "--out", str(out_path),
    )
    assert rc == 0
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert rows.shape == (8, 2)
    assert np.all(np.diff(rows[:, 1]) <= 0.0)  # pmd falls as pfa target rises


def test_lut_csv(tmp_path, capsys):
    out_path = tmp_path / "lut.csv"
    rc, _, _ = run_cli(
        capsys, "lut", "--k", "20,50,100", "--n", "1000",
        "--pfa", "0.1,0.01,0.001", "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "K,N,pfa,gamma"
    assert len(lines) == 10
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    for k in (20, 50, 100):
        block = data[data[:, 0] == k]
        assert np.all(np.diff(block[:, 2]) > 0.0)  # pfa ascending
        assert np.all(np.diff(block[:, 3]) < 0.0)  # gamma descending


@pytest.mark.parametrize(
    "argv",
    [
        ("roc", "--k", "50", "--n", "1000", "--snr", "-10dB", "--pfa-grid", "0.001:0.5:8log"),
        ("lut", "--k", "20,50", "--n", "1000", "--pfa", "0.1,0.01"),
        ("lut", "--k", "20,50", "--n", "1000", "--pfa", "0.1,0.01", "--snr", "-20dB"),
    ],
)
def test_table_stdout_matches_out_file(tmp_path, capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    path = tmp_path / "table.csv"
    rc, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert rc == 0
    assert out == path.read_text()
    if "--snr" in argv and argv[0] == "lut":
        assert out.splitlines()[0] == "K,N,pfa,gamma,snr,pmd"


def test_lut_failed_cells_named_on_stderr(capsys, monkeypatch):
    # (2, 7) cannot reach P_fa = 1e-5 and (950, 7) is no design (DomainError);
    # the good cells, (950, 1000) among them, are still printed
    rc, out, err = run_cli(capsys, "lut", "--k", "2,950", "--n", "7,1000", "--pfa", "1e-5")
    assert rc == 2
    assert out.splitlines()[0] == "K,N,pfa,gamma" and len(out.splitlines()) == 3
    assert out.splitlines()[1].startswith("2,1000,1e-05,")
    assert out.splitlines()[2].startswith("950,1000,1e-05,")
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: K=2 N=7 pfa=1e-05: ")
    assert lines[1].startswith("error: K=950 N=7 pfa=1e-05: ")
    # a cell whose inversion fails numerically alone exits 4
    invert = performance._invert

    def failing(law, levels):
        if law.design.K == 950:
            raise NumericError("threshold inversion did not meet the 1e-6 residual bound")
        return invert(law, levels)

    monkeypatch.setattr(performance, "_invert", failing)
    rc, out, err = run_cli(capsys, "lut", "--k", "950", "--n", "1000", "--pfa", "0.01")
    assert rc == 4
    assert out == "K,N,pfa,gamma\n" and err.startswith("error: K=950 N=1000 pfa=0.01: ")


# --- simulate ---------------------------------------------------------------------------

def test_simulate_h0_outputs_and_determinism(tmp_path, capsys):
    args = (
        "simulate", "--k", "20", "--n", "400", "--trials", "300",
        "--seed", "7", "--out", str(tmp_path / "a.csv"), "--dump", str(tmp_path / "d.csv"),
    )
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    ks1 = float(out.split()[1])
    assert 0.0 <= ks1 <= 0.2
    first = (tmp_path / "a.csv").read_bytes()
    dump_first = (tmp_path / "d.csv").read_bytes()
    rc, out, _ = run_cli(capsys, *args)
    assert (tmp_path / "a.csv").read_bytes() == first
    assert (tmp_path / "d.csv").read_bytes() == dump_first
    header = (tmp_path / "d.csv").read_text().splitlines()[0]
    assert header == "# K=20 N=400 seed=7 trials=300 modulation=none snr=0"


def test_simulate_with_scenario_file(tmp_path, capsys):
    doc = {"K": 20, "N": 400, "snr": 0.25, "sigma_v2": 1.0, "modulation": "qpsk"}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(
        capsys, "simulate", "--scenario", str(path), "--trials", "200", "--seed", "3"
    )
    assert rc == 0
    assert float(parse_kv(out)["ks"]) < 0.25


def _qpsk_scenario(tmp_path):
    doc = {"K": 8, "N": 60, "snr": 0.5, "sigma_v2": 1.0, "modulation": "qpsk"}
    path = tmp_path / "qpsk.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("modulation", ["gaussian", "uniform_complex"])
def test_simulate_modulation_conflicts_with_scenario(tmp_path, capsys, modulation):
    rc, out, err = run_cli(capsys, "simulate", "--scenario", _qpsk_scenario(tmp_path),
                           "--trials", "200", "--modulation", modulation)
    assert rc == 2 and out == ""
    assert err.startswith("error: --modulation applies only with --snr or --t1")
    assert "--scenario" in err


def test_simulate_modulation_needs_a_signal(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--k", "8", "--n", "60", "--trials", "200",
                           "--modulation", "qpsk")
    assert rc == 2 and out == ""
    assert err.startswith("error: --modulation applies only with --snr or --t1")


def test_simulate_wishart_sampler_takes_k_above_n_minus_p(tmp_path, capsys):
    # two sources at K=9, N=10: the Bartlett factor of K + P = 11 is 11 x 10, lower-trapezoidal
    for modulation in ("qpsk", "gaussian"):
        doc = {"K": 9, "N": 10, "sigma_v2": 1.0, "modulation": modulation, "Sigma": [4.0, 2.0],
               "H": [[[1, 0], [0, (-1) ** k]] for k in range(9)]}
        scenario = tmp_path / f"{modulation}.json"
        scenario.write_text(json.dumps(doc))
        args = ("simulate", "--scenario", str(scenario), "--trials", "200")
        rc, out, err = run_cli(capsys, *args)
        assert rc == 0 and out.startswith("ks ") and err == ""
        assert run_cli(capsys, *args) == (0, out, "")


def test_simulate_unresolved_eigensolve_exits_4(tmp_path, capsys):
    # two sources so strong that eigvalsh rounds lambda_min to <= 0 in some trials
    doc = {"K": 9, "N": 10, "sigma_v2": 1.0, "modulation": "gaussian", "Sigma": [1e14, 5e13],
           "H": [[[1, 0], [0, 1]] if k % 2 == 0 else [[0, 1], [1, 0]] for k in range(9)]}
    scenario = tmp_path / "strong.json"
    scenario.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "200",
                           "--seed", "1")
    assert rc == 4 and out == ""
    assert err.startswith("numeric error: run_trials: eigensolve left lambda_min <= 0")


def test_simulate_checks_the_law_before_any_trial(monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials called for a law that does not exist")

    monkeypatch.setattr("eigendetect.cli.run_trials", no_trials)
    rc, out, err = run_cli(
        capsys, "simulate", "--k", "50", "--n", "1000", "--trials", "1000", "--t1", "1.1"
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: t1=1.1 does not clear")


def test_simulate_scenario_geometry_conflict(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"K": 20, "N": 400, "snr": 0.25}))
    rc, _, err = run_cli(
        capsys, "simulate", "--scenario", str(path), "--k", "10", "--trials", "10"
    )
    assert rc == 2 and "contradicts" in err


# --- tw-table ----------------------------------------------------------------------------

def test_tw_table_dump(tmp_path, capsys):
    out_path = tmp_path / "tw.csv"
    rc, _, _ = run_cli(capsys, "tw-table", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,cdf,pdf"
    cells = lines[1].split(",")
    assert len(cells) == 3 and "e" in cells[1]
    # the command writes the packaged table that every other command reads
    dump_table_csv(tmp_path / "packaged.csv")
    assert out_path.read_bytes() == (tmp_path / "packaged.csv").read_bytes()


def test_io_failure_exit_code(capsys):
    rc, _, err = run_cli(capsys, "tw-table", "--out", "/nonexistent-dir/tw.csv")
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("pfa", "--k", "50", "--n", "1000", "--gamma", "nan"),
        ("pmd", "--k", "50", "--n", "1000", "--gamma", "2.5", "--t1", "inf"),
        ("threshold", "--k", "50", "--n", "1000", "--pfa", "0.01", "--snr", "nan"),
        ("identify", "--k", "50", "--snr", "nan"),
        ("identify", "--k", "50", "--snr", "infdB"),
        ("identify", "--k", "50", "--snr", "4000dB"),
        ("identify", "--k", "50", "--snr", "abc"),
        ("identify", "--k", "50", "--snr", "1e-300"),
        ("identify", "--k", "50", "--n", "1" + "0" * 309),
        ("threshold", "--k", "50", "--n", "1000", "--pfa", "1e-12"),
        ("pmd", "--k", "50", "--n", "1000", "--gamma", "2.5", "--t1", "1e200"),
        ("threshold", "--k", "50", "--n", "1000", "--pfa", "0.01", "--snr", "2000dB"),
        ("lut", "--k", "2,abc", "--n", "1000", "--pfa", "0.01"),
        ("lut", "--k", "2", "--n", "7", "--pfa", "1e-5"),
        ("roc", "--k", "50", "--n", "1000", "--t1", "2", "--pfa-grid", "0.001:0.5:3xyz"),
        ("roc", "--k", "50", "--n", "1000", "--t1", "2", "--pfa-grid", "0.001:0.5:3:4"),
        ("roc", "--k", "50", "--n", "1000", "--t1", "2", "--pfa-grid", "0:0.5:3log"),
        ("lut", "--k", ",", "--n", "1000", "--pfa", "0.01"),
        ("threshold", "--k", "abc", "--n", "1000", "--pfa", "0.01"),
        ("pfa", "--k", "50", "--n", "1000"),
        ("threshold", "--k", "2", "--n", "10", "--pfa", "0.97"),
        # counts whose arrays numpy refuses to allocate (73 TiB) before touching memory
        ("roc", "--k", "50", "--n", "1000", "--t1", "2", "--pfa-grid",
         "0.001:0.5:10000000000000log"),
        ("simulate", "--k", "20", "--n", "400", "--trials", "10000000000000"),
        ("simulate", "--k", "5", "--n", "50", "--trials", "100", "--modulation", "bogus"),
        # seeds outside 64 bits would wrap onto another seed's trials
        ("simulate", "--k", "4", "--n", "40", "--trials", "200", "--snr", "0dB",
         "--seed", "18446744073709551616"),
        ("simulate", "--k", "4", "--n", "40", "--trials", "200", "--seed", "-1"),
        # tw-table writes the packaged table: there is no solve to tune
        ("tw-table", "--out", "tw.csv", "--tolerance", "1e-10"),
        # simulate has one trial path per source model: there is no sampler to pick
        ("simulate", "--k", "20", "--n", "400", "--trials", "300", "--sampler", "direct"),
    ],
)
def test_bad_numbers_exit_2_without_nan(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert "nan" not in out
    if argv[0] != "lut":  # a lut with a failed cell still prints the good rows' table
        assert out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")


def test_threshold_high_aspect_ratio(capsys):
    rc, out, _ = run_cli(capsys, "threshold", "--k", "700", "--n", "1000", "--pfa", "0.01")
    assert rc == 0
    gamma = float(parse_kv(out)["gamma"])
    assert np.isfinite(gamma)
    assert abs(pfa(gamma, DetectorDesign(700, 1000)) - 0.01) <= 1e-6
