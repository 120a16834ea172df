import io
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrisk import cli, experiments
from ibrisk.cli import main
from ibrisk.errors import CalibrationError, IbRiskError, InputError, ParameterError

T3_FILE = """\
# canonical 3-node fixture
2,1,8.0,2000-04-03
3,2,6.0,2000-04-03
"""


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.csv"
    path.write_text(T3_FILE)
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_ingest_writes_snapshot(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["ingest", "--input", t3_file, "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "nodes=3 edges=2"
    snapshot = (out / "network.csv").read_text()
    assert snapshot.startswith("# nodes=3 edges=2")
    assert (out / "run.cfg").exists()


def test_cascade_trace_ends_fully_distressed(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        ["cascade", "--input", t3_file, "--eta", 0.05, "--beta", 10, "--alpha", 0,
         "--seed-node", "1", "--out", out]
    )
    assert code == 0
    assert "defaults=3" in capsys.readouterr().out
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,node,h"
    final = [line for line in lines if line.startswith(lines[-1].split(",")[0] + ",")]
    assert [row.split(",")[2] for row in final] == ["1.0", "1.0", "1.0"]


def test_risk_summary_with_fund(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        ["risk", "--input", t3_file, "--eta", 0.05, "--alpha", 1, "--out", out]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "p^C=0.0 N=3 defaults_total=0"
    body = (out / "risk.csv").read_text().strip().splitlines()
    assert body[0] == "node,delta,cascade_risk,default_prob,debtrank"
    deltas = [line.split(",")[1] for line in body[1:-1]]
    assert deltas == ["0", "0", "0"]
    assert body[-1].startswith("SYSTEM,")


def test_risk_summary_without_fund(t3_file, tmp_path, capsys):
    code = run_cli(["risk", "--input", t3_file, "--alpha", 0, "--out", tmp_path / "o"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "p^C=0.5 N=3 defaults_total=3"


def test_roi_outputs(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["roi", "--input", t3_file, "--alpha", 0, "--out", out])
    assert code == 0
    header = (out / "roi.csv").read_text().splitlines()[0]
    assert header == "node,roi_nominal,roi_risk_adjusted,default_prob"


# argparse takes "-1e-3" after a flag for an option unless told that it
# is a number; both spellings must give the same bytes.
@pytest.mark.parametrize("value", ["-1e-3", "-1.5E+2", "-.5e1"])
def test_negative_exponent_flag_value(value, t3_file, tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run_cli(["roi", "--input", t3_file, "--roi-int", value, "--out", spaced]) == 0
    assert run_cli(["roi", "--input", t3_file, f"--roi-int={value}", "--out", joined]) == 0
    assert (spaced / "roi.csv").read_bytes() == (joined / "roi.csv").read_bytes()
    for out in (spaced, joined):
        assert f"roi_int={float(value)!r}\n" in (out / "run.cfg").read_text()


def test_every_float_flag_takes_a_negative_exponent():
    floats = [key for key, cast in cli._CASTS.items() if cast is float]
    assert len(floats) == 8
    for key in floats:
        args = cli.build_parser().parse_args(["risk", "--" + key.replace("_", "-"), "-2e-3"])
        assert getattr(args, key) == -2e-3


def test_sweep_alpha_csv(t3_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["sweep-alpha", "--input", t3_file, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "param_name,param_value,cascade_risk,avg_debtrank,"
        "market_roi_ra_weighted,market_roi_ra_unweighted"
    )
    assert len(lines) == 8  # header + default 7-point grid


def test_iso_csv(t3_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["iso", "--input", t3_file, "--eta", 0.05, "--eta-increases", "0.0,0.1", "--out", out]
    )
    assert code == 0
    lines = (out / "iso.csv").read_text().strip().splitlines()
    assert lines[0] == "eta_rel_increase,alpha_lo,alpha_hi,target_pc,achieved_pc"
    assert lines[1].split(",")[1:3] == ["0.0", "0.0"]


def test_synth_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--input", "synth:n_nodes=40,density=4", "--rng-seed", 7]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    assert (out1 / "network.csv").read_bytes() == (out2 / "network.csv").read_bytes()


def test_config_file_with_flag_override(t3_file, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("eta=0.05\nalpha=1\nbeta=10\n")
    out = tmp_path / "out"
    # Flag overrides the config's alpha=1 back to 0.
    code = run_cli(["risk", "--input", t3_file, "--config", cfg, "--alpha", 0, "--out", out])
    assert code == 0
    assert "p^C=0.5" in capsys.readouterr().out
    assert "alpha=0.0" in (out / "run.cfg").read_text()


# Reported like any unreadable file; the errno text comes from the OS.
def test_missing_input_file(tmp_path, capsys):
    source = tmp_path / "nope.csv"
    code = run_cli(["risk", "--input", source, "--out", tmp_path / "o"])
    assert code == InputError.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {source}: ")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_bad_parameter_range(t3_file, tmp_path):
    code = run_cli(["risk", "--input", t3_file, "--alpha", 2.0, "--out", tmp_path / "o"])
    assert code == ParameterError.exit_code


def test_infeasible_calibration(t3_file, tmp_path):
    code = run_cli(["risk", "--input", t3_file, "--beta", 1.0, "--eta", 0.5,
                    "--out", tmp_path / "o"])
    assert code == CalibrationError.exit_code


def test_identical_config_identical_bytes(t3_file, tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        run_cli(["risk", "--input", t3_file, "--alpha", 0, "--out", out])
        outs.append((out / "risk.csv").read_bytes())
    assert outs[0] == outs[1]


def test_snapshot_reload_pipeline(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(["ingest", "--input", t3_file, "--out", out])
    capsys.readouterr()
    code = run_cli(["risk", "--input", out / "network.csv", "--alpha", 0,
                    "--out", tmp_path / "o2"])
    assert code == 0
    assert "p^C=0.5" in capsys.readouterr().out


NODES_ABC = "# node a\n# node b\n# node c\n"
T3_SNAPSHOT = "# nodes=3 edges=2\n# node 1\n# node 2\n# node 3\n2,1,8.0\n3,2,6.0\n"
CYCLE_1E308 = "a,b,1e308\nb,c,1e308\nc,a,1e308\n"
ISOLATED_ZZ = "# nodes=4 edges=2\n" + NODES_ABC + "# node zz\na,b,5.0\nb,c,2.0\n"


# (command and flags, input, exit code, expected stderr). The input is
# a file body (text, or bytes that need not be UTF-8), an inline synth:
# spec, or None for the t3 edge list; "{input}" in the message stands
# for the input path, "{config}" in a flag or the message for a config
# file holding the case's line of CONFIG_LINES (text, or bytes), and
# "{out}" for the output directory, where a directory named in TAKEN
# stands in the way of a file the command writes.
CONFIG_LINES = {"unknown-config-key": "etta=0.1\n", "bad-config-bool": "trace=treu\n",
                "non-utf8-config": b"eta=0.1\xff\n", "config-line-without-eq": "eta=0.1\nbeta\n"}
TAKEN = {"risk-csv-taken": "risk.csv", "run-cfg-taken": "run.cfg"}
ERROR_CASES = {
    "nan-amount": (
        ["risk"], "# nodes=3 edges=3\n" + NODES_ABC + "a,b,nan\nb,c,-5.0\nc,c,1.0\n",
        InputError.exit_code, "{input}:5: amount must be strictly positive, got nan",
    ),
    "negative-amount": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,1.0\nb,c,-5.0\n",
        InputError.exit_code, "{input}:6: amount must be strictly positive, got -5.0",
    ),
    "zero-amount": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,0.0\nb,c,1.0\n",
        InputError.exit_code, "{input}:5: amount must be strictly positive, got 0.0",
    ),
    "self-loop": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,1.0\nc,c,1.0\n",
        InputError.exit_code, "{input}:6: self-loop on node 'c' rejected",
    ),
    "empty-node-id": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,,1.0\nb,c,1.0\n",
        InputError.exit_code, "{input}:5: empty node id",
    ),
    "duplicate-loan": (
        ["risk"], "# nodes=3 edges=1\n" + NODES_ABC + "a,b,1.0\na,b,2.0\n",
        InputError.exit_code, "{input}:6: duplicate loan 'a'->'b'",
    ),
    "duplicate-node": (
        ["risk"], "# nodes=2 edges=1\n# node a\n# node a\na,b,1.0\n",
        InputError.exit_code, "{input}:3: duplicate node 'a'",
    ),
    "header-edges": (
        ["risk"], "# nodes=3 edges=5\n" + NODES_ABC + "a,b,1.0\nb,c,1.0\n",
        InputError.exit_code, "{input}:1: header '# nodes=3 edges=5' disagrees with the body "
        "(nodes=3 edges=2)",
    ),
    "header-nodes": (
        ["risk"], "# nodes=2 edges=2\n" + NODES_ABC + "a,b,1.0\nb,c,1.0\n",
        InputError.exit_code, "{input}:1: header '# nodes=2 edges=2' disagrees with the body "
        "(nodes=3 edges=2)",
    ),
    "bad-eta-increase": (
        ["iso", "--eta-increases", "0.1,abc"], None,
        ParameterError.exit_code, "bad eta increase 'abc'",
    ),
    "bad-synth-int": (
        ["synth"], "synth:n_nodes=abc", ParameterError.exit_code, "bad synth spec n_nodes 'abc'",
    ),
    "p-exo-too-large": (
        ["risk", "--alpha", 0, "--p-exo", 0.4], None,
        ParameterError.exit_code, "set --p-exo to at most 1/(1 + max delta) = 0.3333333333333333",
    ),
    "p-exo-nan": (
        ["risk", "--p-exo", "nan"], None,
        ParameterError.exit_code, "exogenous probability must be finite and positive, got nan",
    ),
    "p-exo-nan-sweep": (
        ["sweep-eta", "--p-exo", "nan"], None,
        ParameterError.exit_code, "exogenous probability must be finite and positive, got nan",
    ),
    "synth-heterogeneity-nan": (
        ["synth"], "synth:n_nodes=8,heterogeneity=nan",
        ParameterError.exit_code, "heterogeneity exponent must exceed 1, got nan",
    ),
    "unknown-config-key": (
        ["risk", "--config", "{config}"], None,
        ParameterError.exit_code, "{config}: unknown config key 'etta'",
    ),
    "bad-config-bool": (
        ["risk", "--config", "{config}"], None,
        ParameterError.exit_code, "config key trace: bad bool 'treu'",
    ),
    "non-utf8-config": (
        ["risk", "--config", "{config}"], None,
        InputError.exit_code, "{config}:1: not valid UTF-8 text",
    ),
    "bad-float-flag": (
        ["risk", "--eta", "abc"], None,
        ParameterError.exit_code, "error: argument --eta: invalid float value: 'abc'",
    ),
    "unknown-flag": (
        ["risk", "--nope", 1], None,
        ParameterError.exit_code, "error: unrecognized arguments: --nope 1",
    ),
    "unknown-command": (
        ["bogus"], None,
        ParameterError.exit_code, "error: argument command: invalid choice: 'bogus'",
    ),
    "synth-rng-seed-key": (
        ["synth"], "synth:n_nodes=8,rng_seed=5",
        ParameterError.exit_code, "unknown synth spec key 'rng_seed'",
    ),
    "non-utf8-trades": (
        ["ingest"], b"2,1,8.0,2000-04-03\n3,2,6.0,2000-04-03 \xff\n",
        InputError.exit_code, "{input}:2: not valid UTF-8 text",
    ),
    "non-utf8-snapshot": (
        ["risk"], b"# nodes=2 edges=1\n# node a\n# node \xe9\na,\xe9,1.0\n",
        InputError.exit_code, "{input}:3: not valid UTF-8 text",
    ),
    "bad-window-start": (
        ["risk", "--window-start", "2020-13-01"], None,
        ParameterError.exit_code, "bad window start date '2020-13-01'",
    ),
    "bad-window-snapshot": (
        ["risk", "--window-start", "2020-13-01"], "# nodes=2 edges=1\na,b,1.0\n",
        ParameterError.exit_code, "bad window start date '2020-13-01'",
    ),
    "bad-window-synth": (
        ["risk", "--window-start", "2020-13-01"], "synth:n_nodes=8",
        ParameterError.exit_code, "bad window start date '2020-13-01'",
    ),
    "empty-network": (
        ["risk"], "# nodes=0 edges=0\n", InputError.exit_code, "cascade needs at least 2 nodes",
    ),
    "float-overflow": (
        ["risk"], "# nodes=3 edges=3\n" + NODES_ABC + "a,b,1e308\nb,a,1e308\nb,c,1e308\n",
        InputError.exit_code, "error: node 'a': balance overflows float64",
    ),
    # Every node's values are finite, but the sums over nodes that impact
    # and market ROI divide by are not.
    "overflow-total-risk": (
        ["risk", "--beta", 1.5], "# nodes=3 edges=3\n" + NODES_ABC + CYCLE_1E308,
        InputError.exit_code, "error: the total out-strength overflows float64",
    ),
    "overflow-total-roi": (
        ["roi", "--beta", 1.5], "# nodes=3 edges=3\n" + NODES_ABC + CYCLE_1E308,
        InputError.exit_code, "error: the total out-strength overflows float64",
    ),
    "overflow-total-balance": (
        ["roi", "--beta", 1.5], "# nodes=2 edges=1\na,b,1e308\n",
        InputError.exit_code, "error: the total balance overflows float64",
    ),
    "comment-only-trades": (
        ["ingest"], "# lender,borrower,amount,date\n",
        InputError.exit_code, "error: the input holds no trades",
    ),
    "risk-csv-taken": (
        ["risk"], None, InputError.exit_code, "error: cannot write {out}/risk.csv: Is a directory",
    ),
    "run-cfg-taken": (
        ["synth"], "synth:n_nodes=8",
        InputError.exit_code, "error: cannot write {out}/run.cfg: Is a directory",
    ),
    "roi-zero-balance": (
        ["roi"], "# nodes=3 edges=1\n" + NODES_ABC + "a,b,5.0\n",
        ParameterError.exit_code, "node 'c' has zero balance; ROI undefined",
    ),
    # A sweep writes market ROI, undefined with an isolated node, as roi does.
    "sweep-alpha-zero-balance": (
        ["sweep-alpha"], "# nodes=4 edges=2\n" + NODES_ABC + "# node zz\na,b,5.0\nb,c,2.0\n",
        ParameterError.exit_code, "error: node 'zz' has zero balance; ROI undefined",
    ),
    # Zero balance is checked at the ROI of a calibrated point, so a beta too
    # small for that point fails first; sweep-eta's first point (eta 0) calibrates.
    "roi-beta-before-zero-balance": (
        ["roi", "--beta", 1.01], ISOLATED_ZZ,
        CalibrationError.exit_code, "error: node 'a' has negative external assets (D=-0.2025)",
    ),
    "sweep-alpha-beta-before-zero-balance": (
        ["sweep-alpha", "--beta", 1.01], ISOLATED_ZZ,
        CalibrationError.exit_code, "error: node 'a' has negative external assets (D=-0.2025)",
    ),
    "sweep-eta-zero-balance-before-beta": (
        ["sweep-eta", "--beta", 1.01], ISOLATED_ZZ,
        ParameterError.exit_code, "error: node 'zz' has zero balance; ROI undefined",
    ),
    # A rate so large that ROI overflows fails naming the first node whose
    # ROI did, or the market ROI when only its sums overflow; no numpy
    # warning is printed (the suite turns warnings into errors, exit 5).
    "roi-rate-overflow": (
        ["roi", "--roi-int", "1e308", "--eta", 0.05], "synth:n_nodes=40",
        ParameterError.exit_code, "error: node 'n000': ROI overflows float64",
    ),
    "sweep-alpha-rate-overflow": (
        ["sweep-alpha", "--roi-int", "1e308", "--eta", 0.05], "synth:n_nodes=40",
        ParameterError.exit_code, "error: node 'n000': ROI overflows float64",
    ),
    "sweep-eta-rate-overflow": (
        ["sweep-eta", "--roi-int", "1e308"], "synth:n_nodes=40",
        ParameterError.exit_code, "error: node 'n000': ROI overflows float64",
    ),
    "roi-market-overflow": (
        ["roi", "--roi-int", "1e306", "--eta", 0.05], "synth:n_nodes=40",
        ParameterError.exit_code, "error: the market ROI overflows float64",
    ),
    # (1 + delta) * p_exo overflows to inf, which the same check rejects.
    "p-exo-overflow": (
        ["risk", "--p-exo", "1e308"], None, ParameterError.exit_code,
        "error: default probability exceeds 1 at node index 0 (delta=1, p_exo=1e+308); "
        "set --p-exo to at most 1/(1 + max delta) = 0.3333333333333333",
    ),
    "p-exo-subnormal": (
        ["risk", "--p-exo", "1e-320"], "synth:n_nodes=40", ParameterError.exit_code,
        "error: exogenous probability is subnormal: 1e-320 < 2.2250738585072014e-308",
    ),
    # A node's ROI is checked before the seed ensemble, so it is reported
    # though (1 + delta) * p_exo would exceed 1 at t3's node '3'.
    "roi-rate-overflow-before-p-exo": (
        ["roi", "--roi-int", "1e308", "--p-exo", 0.5], None,
        ParameterError.exit_code, "error: node '2': ROI overflows float64",
    ),
    "cascade-without-seed-node": (
        ["cascade"], None, ParameterError.exit_code, "error: --seed-node is required for cascade",
    ),
    "cascade-unknown-seed-node": (
        ["cascade", "--seed-node", "zz"], None,
        InputError.exit_code, "error: unknown node id 'zz'",
    ),
    "synth-snapshot-input": (
        ["synth"], "# nodes=2 edges=1\na,b,1.0\n",
        ParameterError.exit_code, "error: synth expects --input synth:k=v,... (or no input)",
    ),
    "synth-fragment-without-eq": (
        ["synth"], "synth:n_nodes", ParameterError.exit_code,
        "error: bad synth spec fragment 'n_nodes'",
    ),
    "synth-one-node": (
        ["synth"], "synth:n_nodes=1", ParameterError.exit_code, "error: need at least 2 nodes",
    ),
    "synth-core-fraction-zero": (
        ["synth"], "synth:core_fraction=0",
        ParameterError.exit_code, "error: core fraction must be in (0, 1]",
    ),
    "iso-negative-increase": (
        ["iso", "--eta-increases=-0.1"], None,
        ParameterError.exit_code, "error: eta increases must be nonnegative",
    ),
    "iso-decreasing-increases": (
        ["iso", "--eta-increases", "0.1,0.05"], None,
        ParameterError.exit_code, "error: eta increase grid must be strictly increasing",
    ),
    "config-line-without-eq": (
        ["risk", "--config", "{config}"], None,
        InputError.exit_code, "error: {config}:2: expected key=value",
    ),
    "synth-negative-rng-seed": (
        ["synth", "--rng-seed", "-1"], "synth:n_nodes=8",
        ParameterError.exit_code, "error: rng seed must be nonnegative, got -1",
    ),
    # Checked before any ensemble, so no message names an eta never given.
    "iso-nan-increase": (
        ["iso", "--eta-increases", "0,nan"], None,
        ParameterError.exit_code, "error: eta increases must be nonnegative",
    ),
    "iso-infinite-increase": (
        ["iso", "--eta-increases", "0,inf"], None,
        ParameterError.exit_code, "error: eta increases must be finite",
    ),
    # Every command checks every rate, though risk writes no ROI.
    "risk-rate-nan": (
        ["risk", "--roi-int", "nan"], None,
        ParameterError.exit_code, "error: roi_int must be finite",
    ),
    # Every command checks --eta-increases and --rng-seed, though only iso
    # and a synth: input use them.
    "ingest-eta-increase-text": (
        ["ingest", "--eta-increases", "abc"], None,
        ParameterError.exit_code, "error: bad eta increase 'abc'",
    ),
    "ingest-snapshot-eta-increase-nan": (
        ["ingest", "--rng-seed", "-1", "--eta-increases", "nan"], T3_SNAPSHOT,
        ParameterError.exit_code, "error: eta increases must be nonnegative",
    ),
    "risk-eta-increase-inf": (
        ["risk", "--eta-increases", "0,inf"], None,
        ParameterError.exit_code, "error: eta increases must be finite",
    ),
    "synth-eta-increase-negative": (
        ["synth", "--eta-increases=-0.1"], "synth:n_nodes=8",
        ParameterError.exit_code, "error: eta increases must be nonnegative",
    ),
    "cascade-eta-increases-decreasing": (
        ["cascade", "--eta-increases", "0.1,0.05"], None,
        ParameterError.exit_code, "error: eta increase grid must be strictly increasing",
    ),
    "ingest-negative-rng-seed": (
        ["ingest", "--rng-seed", "-1"], None,
        ParameterError.exit_code, "error: rng seed must be nonnegative, got -1",
    ),
    "iso-snapshot-negative-rng-seed": (
        ["iso", "--rng-seed", "-2"], T3_SNAPSHOT,
        ParameterError.exit_code, "error: rng seed must be nonnegative, got -2",
    ),
    "bad-window-start-text": (
        ["risk", "--window-start", "abc"], "synth:n_nodes=50",
        ParameterError.exit_code, "error: bad window start date 'abc'",
    ),
    "bad-window-end": (
        ["risk", "--window-end", "2020-13-01"], None,
        ParameterError.exit_code, "error: bad window end date '2020-13-01'",
    ),
    "risk-synth-fragment-without-eq": (
        ["risk"], "synth:n_nodes=50,foo",
        ParameterError.exit_code, "error: bad synth spec fragment 'foo'",
    ),
    "risk-unknown-synth-key": (
        ["risk"], "synth:n_nodes=50,bogus=1",
        ParameterError.exit_code, "error: unknown synth spec key 'bogus'",
    ),
    "risk-synth-one-node": (
        ["risk"], "synth:n_nodes=1", ParameterError.exit_code, "error: need at least 2 nodes",
    ),
    "synth-edge-list-input": (
        ["synth"], None,
        ParameterError.exit_code, "error: synth expects --input synth:k=v,... (or no input)",
    ),
    # Flags are checked before the input is loaded, the window dates with it.
    "cascade-seed-node-before-window": (
        ["cascade", "--window-start", "abc"], None,
        ParameterError.exit_code, "error: --seed-node is required for cascade",
    ),
    # iso calibrates every target before its first ensemble; a raise that
    # overflows a reserve or leaves negative external assets fails as a
    # risk run at that eta does.
    "iso-increase-overflows-reserve": (
        ["iso", "--eta", 0.005, "--eta-increases", "0,1e308"], "synth:n_nodes=50",
        InputError.exit_code, "error: node 'n000': reserve overflows float64",
    ),
    "iso-increase-infeasible": (
        ["iso", "--eta", 0.05, "--eta-increases", "0,100"], None,
        CalibrationError.exit_code, "error: node '2' has negative external assets (D=-332)",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_exit_codes(case, t3_file, tmp_path, capsys):
    command, body, expected_code, message = ERROR_CASES[case]
    source = t3_file
    if isinstance(body, bytes):
        source = tmp_path / "snapshot.csv"
        source.write_bytes(body)
    elif body is not None and body.startswith("synth:"):
        source = body
    elif body is not None:
        source = tmp_path / "snapshot.csv"
        source.write_text(body)
    config = tmp_path / "run.conf"
    lines = CONFIG_LINES.get(case, "")
    config.write_bytes(lines if isinstance(lines, bytes) else lines.encode())
    flags = [str(flag).format(config=config) for flag in command[1:]]
    out = tmp_path / "o"
    if case in TAKEN:
        (out / TAKEN[case]).mkdir(parents=True)
    code = run_cli([command[0], "--input", source, *flags, "--out", out])
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.count("\n") == 1, err  # one line, no traceback
    assert message.format(input=source, config=config, out=out) in err


def test_missing_input_flag(tmp_path, capsys):
    assert run_cli(["risk", "--out", tmp_path / "o"]) == ParameterError.exit_code
    assert capsys.readouterr().err == "error: --input is required for this command\n"


# Every command checks its flags, then loads its input, and only then makes
# the output directory: a fault in either leaves no directory. cascade's
# --seed-node is a flag, so no input is read without it.
@pytest.mark.parametrize("args, message", [
    (["risk", "--input", "synth:n_nodes=50", "--window-start", "abc"],
     "bad window start date 'abc'"),
    (["risk", "--input", "synth:n_nodes=50", "--window-end", "2020-13-01"],
     "bad window end date '2020-13-01'"),
    (["risk", "--input", "synth:n_nodes=50,foo"], "bad synth spec fragment 'foo'"),
    (["risk", "--input", "synth:n_nodes=50,bogus=1"], "unknown synth spec key 'bogus'"),
    (["risk", "--input", "synth:n_nodes=1"], "need at least 2 nodes"),
    (["synth", "--input", "foo.csv"], "synth expects --input synth:k=v,... (or no input)"),
    (["risk"], "--input is required for this command"),
    (["cascade", "--input", "synth:n_nodes=50"], "--seed-node is required for cascade"),
])
def test_fault_leaves_no_output_directory(args, message, tmp_path, capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("the input was loaded")

    if args[0] == "cascade":
        monkeypatch.setattr(cli, "load_network", no_load)
    out = tmp_path / "o"
    assert run_cli([*args, "--out", out]) == ParameterError.exit_code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A command that fails once its input has loaded removes the output
# directory it made, while that is still empty, and so each missing parent
# it made for it; it never removes one that was there before, even an
# empty one. Nested, ``o`` is the parent of the ``--out`` o/a/b.
@pytest.mark.parametrize("args, code, message", [
    (["risk", "--beta", "1.01"], CalibrationError.exit_code,
     "node 'n001' has negative external assets (D=-0.978413)"),
    (["risk", "--p-exo", "2"], ParameterError.exit_code, "default probability exceeds 1"),
    (["iso", "--eta", "0.005", "--eta-increases", "0,1e308"], InputError.exit_code,
     "node 'n000': reserve overflows float64"),
])
@pytest.mark.parametrize("nested, existing", [(False, False), (False, True), (True, False),
                                              (True, True)],
                         ids=["made", "existing", "nested-made", "nested-existing"])
def test_failed_run_removes_only_its_own_empty_directory(args, code, message, nested, existing,
                                                         tmp_path, capsys):
    out = tmp_path / "o"
    if existing:
        out.mkdir()
    target = out / "a" / "b" if nested else out
    assert run_cli([args[0], "--input", "synth:n_nodes=50", *args[1:], "--out", target]) == code
    assert message in capsys.readouterr().err
    assert out.exists() == existing
    assert not existing or not any(out.iterdir())


# The errno text after these prefixes comes from the operating system.
def test_output_path_is_a_file(t3_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert run_cli(["risk", "--input", t3_file, "--out", out]) == InputError.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert err.count("\n") == 1, err


# The input is loaded before the output directory is made, so its error wins.
def test_input_error_comes_before_output_path_error(tmp_path, capsys):
    out, source = tmp_path / "taken", tmp_path / "nope.csv"
    out.write_text("")
    assert run_cli(["risk", "--input", source, "--out", out]) == InputError.exit_code
    assert capsys.readouterr().err.startswith(f"error: cannot read {source}: ")


def test_input_path_is_a_directory(tmp_path, capsys):
    source = tmp_path / "dir"
    source.mkdir()
    assert run_cli(["risk", "--input", source, "--out", tmp_path / "o"]) == InputError.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {source}: ")
    assert err.count("\n") == 1, err


def test_config_comment_line_skipped(t3_file, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# a comment\neta=0.01\n")
    out = tmp_path / "out"
    assert run_cli(["risk", "--input", t3_file, "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert "eta=0.01\n" in (out / "run.cfg").read_text()



# At eta 0.01, raising the reserve by 1000% clears every cascade of t3,
# while even a full fund (1.4 against loans of 8 and 6) leaves p^C at 0.5.
def test_iso_saturated_point(tmp_path, capsys):
    source = tmp_path / "t3.csv"
    source.write_text(T3_SNAPSHOT)
    out = tmp_path / "out"
    args = ["iso", "--input", source, "--eta", 0.01, "--eta-increases", "0,1,10", "--out", out]
    assert run_cli(args) == 0
    assert capsys.readouterr().out == "iso points=3 saturated=1\n"
    assert (out / "iso.csv").read_text().splitlines()[3] == "10.0,1.0,1.0,0.0,0.5"


# Logged as "WARNING isolated node 'zz'" on stderr when run as a script
# (see test_failure_ends_stderr_with_one_error_line for that format).
def test_ingest_warns_of_isolated_node(tmp_path, capsys, caplog):
    source = tmp_path / "snapshot.csv"
    source.write_text(ISOLATED_ZZ)
    assert run_cli(["ingest", "--input", source, "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().out == "nodes=4 edges=2\n"
    assert caplog.record_tuples == [("ibrisk.cli", logging.WARNING, "isolated node 'zz'")]


def test_every_flag_has_help():
    actions = [action for action in cli.build_parser()._actions if action.dest != "help"]
    assert len(actions) == 18  # the command and 17 flags
    assert all(action.help for action in actions)


def test_config_bools(t3_file, tmp_path):
    for text, value in [("1", True), ("TRUE", True), ("yes", True), ("0", False),
                        ("False", False), ("NO", False)]:
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"trace={text}\n")
        out = tmp_path / text
        assert run_cli(["ingest", "--input", t3_file, "--config", cfg, "--out", out]) == 0
        assert f"trace={value}\n" in (out / "run.cfg").read_text()


# Every command that writes ROI or market ROI checks the balances first.
@pytest.mark.parametrize("command", ["roi", "sweep-eta", "sweep-alpha"])
def test_roi_zero_balance_fails_before_ensemble(command, tmp_path, capsys, monkeypatch):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    source = tmp_path / "snapshot.csv"
    source.write_text("# nodes=3 edges=1\n" + NODES_ABC + "a,b,5.0\n")
    code = run_cli([command, "--input", source, "--out", tmp_path / "o"])
    assert code == ParameterError.exit_code
    assert capsys.readouterr().err == "error: node 'c' has zero balance; ROI undefined\n"


# risk writes no ROI, so finite rates whose ROI overflows (the roi, sweep-eta and
# sweep-alpha rows of ERROR_CASES) leave it at exit 0 with the same bytes.
@pytest.mark.parametrize("rate", ["1e308", "1e306"])
def test_risk_ignores_roi_rates(rate, tmp_path, capsys):
    args = ["risk", "--input", "synth:n_nodes=40", "--eta", "0.05"]
    assert run_cli([*args, "--out", tmp_path / "default"]) == 0
    assert run_cli([*args, "--roi-int", rate, "--out", tmp_path / "rate"]) == 0
    assert capsys.readouterr().err == ""
    risk_csv = [(tmp_path / out / "risk.csv").read_bytes() for out in ("default", "rate")]
    assert risk_csv[0] == risk_csv[1]


# Every command checks every scalar flag, also one it does not use, before
# it makes the output directory or reads any input.
def _fails_before_loading(command, flag, value, t3_file, tmp_path, monkeypatch):
    def nothing_runs(*args, **kwargs):
        raise AssertionError("the input was loaded or the seed ensemble ran")

    monkeypatch.setattr(cli, "load_network", nothing_runs)
    monkeypatch.setattr(experiments, "run_ensemble", nothing_runs)
    source = "synth:" if command == "synth" else t3_file
    out = tmp_path / "o"
    code = run_cli([command, "--input", source, flag, value, "--out", out])
    assert not out.exists()
    return code


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_bad_p_exo_fails_before_loading(command, t3_file, tmp_path, capsys, monkeypatch):
    code = _fails_before_loading(command, "--p-exo", "nan", t3_file, tmp_path, monkeypatch)
    assert code == ParameterError.exit_code
    assert capsys.readouterr().err == (
        "error: exogenous probability must be finite and positive, got nan\n"
    )


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("flag, value, message", [
    ("--eta-increases", "abc", "bad eta increase 'abc'"),
    ("--eta-increases", "0,nan", "eta increases must be nonnegative"),
    ("--rng-seed", "-1", "rng seed must be nonnegative, got -1"),
])
def test_bad_flag_fails_before_loading(command, flag, value, message, t3_file, tmp_path, capsys,
                                       monkeypatch):
    code = _fails_before_loading(command, flag, value, t3_file, tmp_path, monkeypatch)
    assert code == ParameterError.exit_code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_eta_increase_is_named_before_a_missing_input(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["iso", "--input", tmp_path / "missing.csv", "--eta-increases", "abc", "--out", out]
    assert run_cli(args) == ParameterError.exit_code
    assert capsys.readouterr().err == "error: bad eta increase 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_bad_alpha_fails_before_loading(command, t3_file, tmp_path, capsys, monkeypatch):
    code = _fails_before_loading(command, "--alpha", "2", t3_file, tmp_path, monkeypatch)
    assert code == ParameterError.exit_code
    assert capsys.readouterr().err == "error: alpha must be in [0, 1], got 2.0\n"


# A failing command's last stderr line is its one error line; warnings
# logged before it, such as a skipped blank line, come first. Run as a
# script, as logging under pytest does not reach stderr.
def test_failure_ends_stderr_with_one_error_line(tmp_path):
    source = tmp_path / "trades.csv"
    source.write_text("2,1,8.0,2000-04-03\n\n3,2,6.0,2000-04-03\n")
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, "-m", "ibrisk.cli", "ingest", "--input", str(source),
         "--window-start", "2021-01-01", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == InputError.exit_code
    assert run.stderr == (
        f"WARNING {source}:2: blank line skipped\n"
        "error: no transactions fall inside the requested window\n"
    )


def test_unexpected_exception_exits_internal(t3_file, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "evaluate_point", broken)
    code = run_cli(["risk", "--input", t3_file, "--out", tmp_path / "o"])
    assert code == IbRiskError.exit_code
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_risk_on_edgeless_snapshot(tmp_path, capsys):
    source = tmp_path / "snapshot.csv"
    source.write_text("# nodes=3 edges=0\n" + NODES_ABC)
    code = run_cli(["risk", "--input", source, "--out", tmp_path / "o"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "p^C=0.0 N=3 defaults_total=0"
    system = (tmp_path / "o" / "risk.csv").read_text().strip().splitlines()[-1]
    assert system.split(",")[-1] == "0.0"  # impact


# Flag values as a user may type them: normal, subnormal, huge, zero,
# negative, exponent form, nan and inf.
FLAG_TEXT = st.one_of(
    st.sampled_from(["0.05", "10", "1.5", "0", "-0", "-0.5", "-1e-3", "2.5E-3", "1e-310",
                     "5e-324", "1e308", "1.7976931348623157e308", "nan", "-nan", "inf",
                     "-inf", "1e400", "0.001", "1", "0.5"]),
    st.floats().map(repr),
    st.floats(min_value=-2.0, max_value=20.0).map(lambda x: f"{x:E}"),
)
FLOAT_FLAGS = ("beta", "eta", "alpha", "p-exo", "roi-int", "roi-ext", "roi-e", "roi-f")
SNAPSHOT_5 = (
    "# nodes=5 edges=6\n# node a\n# node b\n# node c\n# node d\n# node e\n"
    "a,b,5.0\nb,c,2.0\nb,d,1.0\nc,d,3.0\nd,e,1.5\ne,a,4.0\n"
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["risk", "roi", "sweep-eta", "sweep-alpha", "iso", "cascade"]),
    flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), FLAG_TEXT, max_size=4),
    increases=st.none() | st.lists(FLAG_TEXT, min_size=1, max_size=3).map(",".join),
)
def test_flag_strings_fail_cleanly_or_give_finite_csvs(command, flags, increases):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "snapshot.csv"
        source.write_text(SNAPSHOT_5)
        out = Path(tmp) / "o"
        args = [command, "--input", str(source), "--out", str(out), "--seed-node", "c"]
        args += [f"--{key}={value}" for key, value in flags.items()]
        if increases is not None:
            args.append(f"--eta-increases={increases}")
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), \
                redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(args)
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4), stderr.getvalue()
        if code:
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert stderr.getvalue().startswith("error: ")
            return
        assert stderr.getvalue() == ""
        for csv in out.glob("*.csv"):
            for line in csv.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:  # a node id
                        continue
                    assert math.isfinite(value), (csv.name, line)
