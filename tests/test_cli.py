"""CLI surface: every subcommand end to end, output shapes, exit codes."""

import hashlib
import json
import math

import pytest

import friabilis.cli as cli
from friabilis.arith import psi_exact
from friabilis.errors import ResourceLimitError
from friabilis.saddle import solve_alpha


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho(capsys):
    code, out, _ = run_cli(capsys, "rho", "--u", "3")
    assert code == 0
    assert float(out) == pytest.approx(0.048608388291131567, rel=1e-10)


def test_rho_domain_error(capsys):
    code, _, err = run_cli(capsys, "rho", "--u", "1e9")
    assert code == 2
    assert "error:" in err


def test_saddle_aligned(capsys):
    code, out, _ = run_cli(capsys, "saddle", "--x", "1000", "--y", "10")
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.splitlines())
    assert float(fields["alpha"]) == pytest.approx(solve_alpha(1000, 10), rel=1e-10)
    assert int(fields["psi_exact"]) == psi_exact(1000, 10)
    assert float(fields["u_bar"]) == pytest.approx(3.0, rel=1e-6)


def test_saddle_json(capsys):
    code, out, _ = run_cli(capsys, "saddle", "--x", "1e3", "--y", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {"alpha", "psi_saddle", "psi_dickman", "psi_exact"} <= set(payload)
    assert payload["psi_exact"] == psi_exact(1000, 10)


def test_saddle_json_omits_psi_exact_past_the_budget(capsys):
    code, out, _ = run_cli(capsys, "saddle", "--x", "1e12", "--y", "1e6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "psi_exact" not in payload
    assert payload["psi_saddle"] > 0


def test_divdist_summary(capsys):
    code, out, _ = run_cli(capsys, "divdist", "--n", "60")
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.splitlines())
    assert fields["n"] == "60"
    assert fields["tau"] == "12"
    assert float(fields["w"]) > 0


def test_divdist_atoms(capsys):
    code, out, _ = run_cli(capsys, "divdist", "--n", "60", "--atoms")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "value,mass_num,mass_den"
    assert len(lines) == 2 + 12
    first = lines[2].split(",")
    assert float(first[0]) == 0.0  # the divisor 1
    assert (first[1], first[2]) == ("1", "12")


def test_tail_json(capsys):
    code, out, _ = run_cli(capsys, "tail", "--n", "36", "--z", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 36
    assert payload["nudged"] is True
    assert payload["exact_tail"] == pytest.approx(4.0 / 9.0)
    assert payload["perron"] is None


def test_tail_with_perron(capsys):
    code, out, _ = run_cli(
        capsys, "tail", "--n", "60", "--z", "0.5", "--perron", "200,50000"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["perron"] - payload["exact_tail"]) < 1e-3


@pytest.mark.parametrize("T", ["nan", "inf", "-inf", "0.5"])
def test_tail_perron_rejects_bad_T(capsys, T):
    code, out, err = run_cli(capsys, "tail", "--n", "60", "--z", "0.5", f"--perron={T},100")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tail", "--n", "60", "--z", "nan"),
        ("rho", "--u", "nan"),
        ("average", "--x", "1000", "--y", "10", "--z-grid", "0,nan"),
        ("clt", "--x", "1000", "--y", "10", "--z-grid", "nan"),
        ("concentration", "--x", "1000", "--y", "10", "--thresholds", "0.1,nan"),
        ("average", "--x", "1000", "--y", "10", "--z-grid", "0,5", "--c5", "nan"),
        ("clt", "--x", "1000", "--y", "10", "--z-grid", "0,0.5", "--C", "nan"),
        ("clt", "--x", "1000", "--y", "10", "--z-grid", "0,0.5", "--w-min", "nan"),
        ("clt", "--x", "1000", "--y", "10", "--z-grid", "0,0.5", "--B", "nan"),
    ],
    ids=[
        "tail-z",
        "rho-u",
        "average-z-grid",
        "clt-z-grid",
        "concentration-thresholds",
        "average-c5",
        "clt-C",
        "clt-w-min",
        "clt-B",
    ],
)
def test_nan_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_tail_degenerate_n(capsys):
    code, _, err = run_cli(capsys, "tail", "--n", "1", "--z", "0.5")
    assert code == 2
    assert "error:" in err


def test_clt_out_file(tmp_path, capsys):
    path = tmp_path / "clt.csv"
    code, out, _ = run_cli(
        capsys, "clt", "--x", "1e4", "--y", "30", "--z-grid", "0,0.5", "--out", str(path)
    )
    assert code == 0
    assert out == ""  # file output suppresses stdout rows
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("z,n_tested,")
    assert len(lines) == 4


def test_clt_json(capsys):
    code, out, _ = run_cli(
        capsys, "clt", "--x", "1e4", "--y", "30", "--z-grid", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["kind"] == "clt"
    assert payload["meta"]["quantile_rank_error"] == 0.0


def test_clt_bad_config(capsys):
    code, _, err = run_cli(
        capsys, "clt", "--x", "1e4", "--y", "30", "--z-grid", "0", "--C", "0"
    )
    assert code == 2
    assert "error:" in err


def test_average_stdout(capsys):
    code, out, _ = run_cli(capsys, "average", "--x", "1e4", "--y", "30", "--z-grid", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "z,n_count,mean_tail,gaussian,normalized_gap,nudged"
    cells = lines[2].split(",")
    assert float(cells[2]) == pytest.approx(0.5, abs=0.02)


def test_average_empty_grid(capsys):
    code, _, err = run_cli(capsys, "average", "--x", "1e4", "--y", "30", "--z-grid", "")
    assert code == 2
    assert "error:" in err


def test_concentration(capsys):
    code, out, _ = run_cli(
        capsys,
        "concentration",
        "--x", "1e4",
        "--y", "30",
        "--k-list", "0,1",
        "--thresholds", "0.1,0.5",
        "--bins", "10",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["kind"] == "concentration"
    assert len(payload["rows"]) == 4
    assert payload["meta"]["model_means"]["1"] == pytest.approx(math.log(10**4))


def test_arcsine(capsys):
    code, out, _ = run_cli(capsys, "arcsine", "--x", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "v,empirical,limit,gap"
    assert len(lines) == 4  # default vs = 0.25, 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ("clt", "--x", "1e4", "--y", "30", "--z-grid", "0,0.5,1", "--sample-cap", "500"),
        ("arcsine", "--x", "10000", "--vs", "0.25,0.5,0.75"),
    ],
)
def test_stdout_csv_matches_out_file(tmp_path, capsys, argv):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, quiet, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and quiet == ""
    assert out.encode("utf-8") == path.read_bytes()


def test_resource_limit_exit_code(capsys, monkeypatch):
    def boom(config, B=1.0):
        raise ResourceLimitError("too large")

    monkeypatch.setattr(cli, "run_clt", boom)
    code, _, err = run_cli(capsys, "clt", "--x", "1e4", "--y", "30", "--z-grid", "0")
    assert code == 3
    assert "resource limit" in err


def test_memory_ceiling_exit_code(capsys, monkeypatch):
    from friabilis import arith

    monkeypatch.setattr(arith, "MEMORY_CEILING", 100 * arith.ROW_BYTES)
    code, out, err = run_cli(
        capsys, "concentration", "--x", "1e4", "--y", "30", "--k-list", "0", "--thresholds", "0.1"
    )
    assert code == 3
    assert out == ""
    assert "memory ceiling" in err


def test_arcsine_past_memory_ceiling_exit_code(capsys):
    # refused before any allocation: the sieve alone would need terabytes
    code, out, err = run_cli(capsys, "arcsine", "--x", "1e12")
    assert code == 3
    assert out == ""
    assert "memory ceiling" in err


def test_arcsine_benchmark_csv_digest(tmp_path):
    # the bytes the benchmark's `sieve` workload writes, which every change
    # to the arcsine kernels must keep
    path = tmp_path / "arcsine.csv"
    assert cli.main(["arcsine", "--x", "2e6", "--vs", "0.25,0.5", "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f5517f823747d45328166bba0bf95798daa8af9f31501d2c5413bf7c6f90506c"


# a run that writes only its CSV prints nothing
SILENT = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize(
    "argv,digest,stdout_digest",
    [
        (
            ["average", "--x", "100000000", "--y", "30", "--z-grid", "0,0.5,1,1.5", "--c5", "1.1"],
            "6731dc35e2451d31b6a02c2783064c25ca3ba6a1bc0c5b47b4604a077d138ec1",
            SILENT,
        ),
        (
            ["concentration", "--x", "10000000", "--y", "100", "--k-list", "0,1,2",
             "--thresholds", "0.1,0.25,0.5", "--json"],
            "acec1e6b9bfe3bfc4450cb0897939e7f304c6bad8653fa2863fd8034b56fcda7",
            # the model means and the sigma_n / sigma_bar histogram
            "cd1e6c7115db6a238df7d4ae4c993a9dfa87da62ea048384e93427fee86349fa",
        ),
        (
            ["clt", "--x", "1e5", "--y", "30", "--z-grid", "0,1"],
            "e13a3c5cda1b70437ca4f83683fd6306853e5b3ffe2c4a4ff37a89ff3c5ab59a",
            SILENT,
        ),
        (
            ["clt", "--x", "100000000", "--y", "30", "--z-grid", "0,0.5,1",
             "--sample-cap", "40000", "--seed", "31"],
            "d71dc736ca78f5e1891aec25d9fc93dc2c77234422cbc02eb3b8f5b4f8170456",
            SILENT,
        ),
    ],
    ids=["average", "concentration", "clt-full", "clt-sampled"],
)
def test_benchmark_csv_digest(argv, digest, stdout_digest, tmp_path, capsys):
    # the bytes the benchmark's `tails` and `concentration` workloads write
    # and print (the sampled clt at seed 31), and the full clt path at a
    # desk size
    path = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


def test_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
