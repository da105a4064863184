"""CLI surface: every subcommand end to end, output shapes, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math

import pytest

import friabilis.cli as cli
from friabilis.arith import psi_exact
from friabilis.errors import ResourceLimitError
from friabilis.experiments import AverageRunConfig, CltRunConfig, ConcentrationRunConfig
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


@pytest.mark.parametrize(
    "text,value",
    [
        ("9007199254740993e0", 2**53 + 1),  # float would give 2**53
        ("12345678901234567e3", 12345678901234567000),
        ("1e8", 10**8),
        ("2.5e1", 25),
        ("-3", -3),
        ("0x10", 16),
        ("1_000", 1000),
        (" 010 ", 10),
    ],
)
def test_int_arg_is_exact(text, value):
    assert cli._int_arg(text) == value


@pytest.mark.parametrize("text", ["1.5", "1e-1", "inf", "-inf", "nan", "sNaN", "ten", "1e5000"])
def test_int_arg_refuses_what_is_not_an_integer(text, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["divdist", "--n", text])
    assert exit_.value.code == 2
    assert "argument --n:" in capsys.readouterr().err


def test_divdist_reads_n_exactly(capsys):
    code, out, _ = run_cli(capsys, "divdist", "--n", "9007199254740993e0")
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.splitlines())
    assert fields["n"] == "9007199254740993"


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


# each run driver: the function it calls, the extra flags its minimal argv
# needs, and an argv that sets every field of its config away from its default
DRIVERS = {
    "clt": (
        "run_clt",
        "--z-grid 0,0.5",
        "--x 2e4 --y 31 --z-grid 0.25,1 --C 3.5 --B 0.5 --w-min 0.2 --seed 9 --sample-cap 77",
        CltRunConfig(
            x=20000, y=31, z_grid=(0.25, 1.0), C=3.5, B=0.5, w_min=0.2, seed=9, sample_cap=77
        ),
    ),
    "average": (
        "run_average",
        "--z-grid 0,0.5",
        "--x 2e4 --y 31 --z-grid=-0.5,1 --c5 2.5",
        AverageRunConfig(x=20000, y=31, z_grid=(-0.5, 1.0), c5=2.5),
    ),
    "concentration": (
        "run_concentration",
        "",
        "--x 2e4 --y 31 --k-list 1,3 --thresholds 0,0.2 --bins 7",
        ConcentrationRunConfig(x=20000, y=31, k_list=(1, 3), thresholds=(0.0, 0.2), bins=7),
    ),
}


def config_of(monkeypatch, command, argv):
    """The config that `command` hands its run driver."""
    seen = []

    def run(config):
        seen.append(config)
        raise ResourceLimitError("stop")

    monkeypatch.setattr(cli, DRIVERS[command][0], run)
    assert cli.main([command, *argv]) == 3
    return seen[0]


@pytest.mark.parametrize("command", sorted(DRIVERS))
def test_driver_flags_are_the_config_fields(command):
    subs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in subs.choices[command]._actions]
    names = [field.name for field in dataclasses.fields(DRIVERS[command][3])]
    assert dests == ["help", *names, "out", "json"]


@pytest.mark.parametrize("command", sorted(DRIVERS))
def test_driver_flags_left_out_keep_the_config_defaults(command, monkeypatch, capsys):
    _, required, _, full = DRIVERS[command]
    got = config_of(monkeypatch, command, ["--x", "1e4", "--y", "30", *required.split()])
    extra = {"z_grid": (0.0, 0.5)} if required else {}
    assert got == type(full)(x=10**4, y=30, **extra)


@pytest.mark.parametrize("command", sorted(DRIVERS))
def test_driver_flags_reach_every_config_field(command, monkeypatch, capsys):
    _, _, argv, want = DRIVERS[command]
    for field in dataclasses.fields(want):
        assert getattr(want, field.name) != field.default, field.name
    assert config_of(monkeypatch, command, argv.split()) == want


def test_clt_B_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "clt", "--x", "1e4", "--y", "30", "--z-grid", "0", "--B", "0")
    assert code == 2
    assert out == ""
    assert "B must be positive" in err


def test_resource_limit_exit_code(capsys, monkeypatch):
    def boom(config):
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
