import contextlib
import io
import os
from fractions import Fraction
from pathlib import Path

import pytest

from hkcluster.cli import main
from hkcluster.report import parse_report

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, buf.getvalue(), err.getvalue()


HKPR_ARGS = ["hkpr", "gen:karate", "--seed-node", "0", "--t", "2.0", "--eps", "0.1", "--seed", "42"]


def test_stochastic_reports_are_byte_identical():
    rc1, out1, _ = run_cli(HKPR_ARGS)
    rc2, out2, _ = run_cli(HKPR_ARGS)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3, _ = run_cli(HKPR_ARGS[:-1] + ["43"])
    assert rc3 == 0
    assert out3 != out1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "gen:karate", "--seed-node", "3", "--t", "3", "--eps", "0.2", "--seed", "7"],
        ["cluster-auto", "gen:two-cliques:8", "--seed-node", "1", "--eps", "0.1",
         "--sigma", "8", "--varsigma", "57", "--seed", "5"],
        ["sparsecut", "gen:two-cliques:6", "--samples", "3", "--eps", "0.1",
         "--sigma", "6", "--varsigma", "31", "--seed", "9"],
    ],
)
def test_every_stochastic_subcommand_is_reproducible(argv):
    rc1, out1, _ = run_cli(argv)
    rc2, out2, _ = run_cli(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_hkpr_exact_identity_at_t_zero():
    rc, out, _ = run_cli(["hkpr-exact", "gen:path:4", "--seed-node", "0", "--t", "0"])
    assert rc == 0
    doc = parse_report(out)
    assert doc["values"] == [["node", "value"], ["0", "1"]]
    assert doc["vector"]["sum"] == "1"


def test_cluster_recovers_planted_clique_via_cli():
    rc, out, _ = run_cli(
        ["cluster", "gen:two-cliques:20", "--seed-node", "3", "--phi", "0.0027",
         "--eps", "0.01", "--sigma", "20", "--varsigma", "381", "--seed", "7"]
    )
    assert rc == 0
    doc = parse_report(out)
    assert doc["sweep"]["best-set"] == " ".join(str(v) for v in range(20))
    assert doc["sweep"]["best-ratio"] == "1/381"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("hkpr_exact_path6.txt", ["hkpr-exact", "gen:path:6", "--seed-node", "2", "--t", "1.5"]),
        ("kmachine_basic.txt", ["kmachine", "--messages", "1000", "--cdeg", "100",
                                "--rounds", "10", "--k-grid", "2,4,8,10,16"]),
        ("sweep_exact_karate.txt", ["sweep-exact", "gen:karate", "--seed-node", "0",
                                    "--t", "3", "--max-prefix", "10"]),
        ("sweep_karate_tree.txt", ["sweep", "gen:karate", "--seed-node", "3", "--t", "3",
                                   "--eps", "0.2", "--seed", "7"]),
        ("cluster_two_cliques_chain.txt", ["cluster", "gen:two-cliques:20", "--seed-node", "3",
                                           "--phi", "0.0027", "--eps", "0.01", "--sigma", "20",
                                           "--varsigma", "381", "--seed", "7"]),
    ],
)
def test_golden_reports(name, argv):
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


def test_report_parses_back_losslessly():
    rc, out, _ = run_cli(HKPR_ARGS)
    doc = parse_report(out)
    assert doc[""] == "hkcluster run report"
    assert doc["graph"]["nodes"] == "34"
    assert doc["parameters"]["eps"] == "0.1 (flag)"
    assert doc["rounds"]["rounds"] == "6"
    values = doc["values"][1:]
    assert sum(Fraction(v) for _, v in values) == 1


def test_argument_errors_exit_two():
    rc, _, _ = run_cli(["hkpr", "gen:karate", "--seed-node", "0", "--t", "2.0", "--eps", "0.1"])
    assert rc == 2  # --seed is required
    rc, _, _ = run_cli(["no-such-command"])
    assert rc == 2


def test_graph_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    rc, out, err = run_cli(["hkpr", str(bad), "--seed-node", "0", "--t", "1", "--eps", "0.1", "--seed", "1"])
    assert rc == 1
    assert "self-loop" in err
    rc, _, err = run_cli(["hkpr", str(tmp_path / "missing.txt"), "--seed-node", "0",
                          "--t", "1", "--eps", "0.1", "--seed", "1"])
    assert rc == 1
    for spec in ["gen:path", "gen:cycle", "gen:clique", "gen:two-cliques", "gen:random"]:
        rc, _, err = run_cli(["hkpr-exact", spec, "--seed-node", "0", "--t", "1"])
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hkpr", "gen:karate", "--seed-node", "0", "--t", "nan", "--eps", "0.1", "--seed", "1"],
        ["hkpr", "gen:karate", "--seed-node", "0", "--t", "nan", "--eps", "0.1", "--seed", "1",
         "--serial"],
        ["hkpr-exact", "gen:karate", "--seed-node", "0", "--t", "inf"],
    ],
)
def test_non_finite_t_exits_one(argv):
    rc, out, err = run_cli(argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag,value",
    [("--c", "inf"), ("--c", "nan"), ("--beta", "inf"), ("--beta", "nan"),
     ("--beta", "0"), ("--beta", "-1")],
)
def test_bad_c_or_beta_exits_one(flag, value):
    rc, out, err = run_cli(HKPR_ARGS + [flag, value])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["kmachine", "--messages", "10", "--cdeg", "1", "--rounds", "1", "--k-grid", "0"],
        HKPR_ARGS + ["--k-grid", "0,2"],
    ],
)
def test_k_below_two_exits_one(argv):
    rc, out, err = run_cli(argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


CLUSTER_ARGS = ["cluster", "gen:two-cliques:6", "--seed-node", "1", "--phi", "0.1",
                "--eps", "0.1", "--sigma", "6", "--varsigma", "31", "--seed", "5"]
CLUSTER_AUTO_ARGS = ["cluster-auto", "gen:two-cliques:6", "--seed-node", "1", "--eps", "0.1",
                     "--sigma", "6", "--varsigma", "31", "--seed", "5"]


@pytest.mark.parametrize("base", [CLUSTER_ARGS, CLUSTER_AUTO_ARGS])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_c2_exits_one(base, value):
    rc, out, err = run_cli(base + ["--c2", value])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    rc, _, _ = run_cli(base)
    assert rc == 0


def test_disconnected_file_exit_one(tmp_path):
    bad = tmp_path / "disc.txt"
    bad.write_text("0 1\n2 3\n")
    rc, _, err = run_cli(["hkpr-exact", str(bad), "--seed-node", "0", "--t", "1"])
    assert rc == 1
    assert "disconnected" in err


def test_round_cap_env_override(tmp_path):
    os.environ["HKCLUSTER_ROUND_CAP"] = "2"
    try:
        rc, _, err = run_cli(HKPR_ARGS)  # needs 6 rounds
        assert rc == 1
        assert "non-termination" in err
    finally:
        del os.environ["HKCLUSTER_ROUND_CAP"]
    rc, _, _ = run_cli(HKPR_ARGS)
    assert rc == 0


def test_trace_flag_writes_rounds(tmp_path):
    trace = tmp_path / "trace.txt"
    rc, _, _ = run_cli(HKPR_ARGS + ["--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "round src dst bits"
    assert len(lines) > 1
    rounds = {int(l.split()[0]) for l in lines[1:]}
    assert max(rounds) <= 6


def test_k_grid_appends_table():
    rc, out, _ = run_cli(HKPR_ARGS + ["--k-grid", "2,4"])
    assert rc == 0
    doc = parse_report(out)
    assert doc["kmachine"][0] == ["k", "bound", "dominating-term"]
    assert len(doc["kmachine"]) == 3


def test_sparsecut_k_grid_appends_table_of_best_outcome():
    from hkcluster.kmachine import CostMeasurement, kmachine_table
    from hkcluster.report import fmt_real

    rc, out, _ = run_cli(
        ["sparsecut", "gen:two-cliques:6", "--samples", "1", "--eps", "0.1",
         "--sigma", "6", "--varsigma", "31", "--seed", "9", "--k-grid", "2,4"]
    )
    assert rc == 0
    doc = parse_report(out)
    ledger = CostMeasurement(
        total_messages=int(doc["rounds"]["messages"]),
        max_node_messages=int(doc["rounds"]["max-node-messages"]),
        rounds=int(doc["rounds"]["rounds"]),
    )
    assert doc["kmachine"] == [["k", "bound", "dominating-term"]] + [
        [str(k), fmt_real(b), d] for k, b, d in kmachine_table(ledger, [2, 4])
    ]


@pytest.mark.parametrize("command", ["hkpr-exact", "sweep-exact"])
@pytest.mark.parametrize(
    "flag", [["--mode", "strict"], ["--beta", "2"], ["--bandwidth-bits", "4"], ["--k-grid", "2"]]
)
def test_exact_subcommands_take_no_protocol_flags(command, flag):
    rc, _, _ = run_cli([command, "gen:karate", "--seed-node", "0", "--t", "1"] + flag)
    assert rc == 2


def test_serial_flag():
    rc, out, _ = run_cli(
        ["hkpr", "gen:karate", "--seed-node", "0", "--t", "2.0", "--eps", "0.2",
         "--seed", "4", "--serial"]
    )
    assert rc == 0
    doc = parse_report(out)
    assert doc["walks"]["execution"] == "serial"
    assert "rounds" not in doc


SERIAL_ARGS = ["hkpr", "gen:karate", "--seed-node", "0", "--t", "2.0", "--eps", "0.2",
               "--seed", "4", "--serial"]


@pytest.mark.parametrize(
    "flag",
    [["--k-grid", "2,4"], ["--trace", "trace.txt"], ["--mode", "strict"], ["--beta", "2"],
     ["--bandwidth-bits", "8"], ["--mode=paper"]],
)
def test_serial_rejects_protocol_flags(flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(SERIAL_ARGS + flag)
    assert rc == 2
    assert out == ""
    assert "usage:" in err and "--serial takes no " + flag[0].split("=")[0] in err
    assert not (tmp_path / "trace.txt").exists()
    rc, _, _ = run_cli(SERIAL_ARGS[:-1] + flag)
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [SERIAL_ARGS + ["--band", "8"],
     ["hkpr", "gen:karate", "--seed-node", "0", "--t", "2", "--ep", "0.2", "--seed", "4"]],
)
def test_flag_abbreviations_are_rejected(argv):
    """An abbreviated flag would slip past the --serial check, and be
    reported with its default's provenance."""
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert "usage:" in err


def test_strict_mode_reported():
    rc, out, _ = run_cli(HKPR_ARGS + ["--mode", "strict"])
    assert rc == 0
    doc = parse_report(out)
    assert int(doc["rounds"]["rounds"]) >= 6
    assert int(doc["rounds"]["congestion-events"]) >= 0
