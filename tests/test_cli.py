import pytest

from ibrisk import cli, experiments
from ibrisk.cli import EXIT_BAD_ARGS, EXIT_CALIBRATION, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main

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
    assert run_cli(["ingest", "--input", t3_file, "--out", out]) == EXIT_OK
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
    assert code == EXIT_OK
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
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "p^C=0.0 N=3 defaults_total=0"
    body = (out / "risk.csv").read_text().strip().splitlines()
    assert body[0] == "node,delta,cascade_risk,default_prob,debtrank"
    deltas = [line.split(",")[1] for line in body[1:-1]]
    assert deltas == ["0", "0", "0"]
    assert body[-1].startswith("SYSTEM,")


def test_risk_summary_without_fund(t3_file, tmp_path, capsys):
    code = run_cli(["risk", "--input", t3_file, "--alpha", 0, "--out", tmp_path / "o"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "p^C=0.5 N=3 defaults_total=3"


def test_roi_outputs(t3_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["roi", "--input", t3_file, "--alpha", 0, "--out", out])
    assert code == EXIT_OK
    header = (out / "roi.csv").read_text().splitlines()[0]
    assert header == "node,roi_nominal,roi_risk_adjusted,default_prob"


def test_sweep_alpha_csv(t3_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["sweep-alpha", "--input", t3_file, "--out", out]) == EXIT_OK
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
    assert code == EXIT_OK
    lines = (out / "iso.csv").read_text().strip().splitlines()
    assert lines[0] == "eta_rel_increase,alpha_lo,alpha_hi,target_pc,achieved_pc"
    assert lines[1].split(",")[1:3] == ["0.0", "0.0"]


def test_synth_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--input", "synth:n_nodes=40,density=4", "--rng-seed", 7]
    assert run_cli(args + ["--out", out1]) == EXIT_OK
    assert run_cli(args + ["--out", out2]) == EXIT_OK
    assert (out1 / "network.csv").read_bytes() == (out2 / "network.csv").read_bytes()


def test_config_file_with_flag_override(t3_file, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("eta=0.05\nalpha=1\nbeta=10\n")
    out = tmp_path / "out"
    # Flag overrides the config's alpha=1 back to 0.
    code = run_cli(["risk", "--input", t3_file, "--config", cfg, "--alpha", 0, "--out", out])
    assert code == EXIT_OK
    assert "p^C=0.5" in capsys.readouterr().out
    assert "alpha=0.0" in (out / "run.cfg").read_text()


def test_missing_input_file(tmp_path):
    code = run_cli(["risk", "--input", tmp_path / "nope.csv", "--out", tmp_path / "o"])
    assert code == EXIT_INPUT


def test_bad_parameter_range(t3_file, tmp_path):
    code = run_cli(["risk", "--input", t3_file, "--alpha", 2.0, "--out", tmp_path / "o"])
    assert code == EXIT_BAD_ARGS


def test_infeasible_calibration(t3_file, tmp_path):
    code = run_cli(["risk", "--input", t3_file, "--beta", 1.0, "--eta", 0.5,
                    "--out", tmp_path / "o"])
    assert code == EXIT_CALIBRATION


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
    assert code == EXIT_OK
    assert "p^C=0.5" in capsys.readouterr().out


NODES_ABC = "# node a\n# node b\n# node c\n"


# (command and flags, input, exit code, expected stderr). The input is
# a file body (text, or bytes that need not be UTF-8), an inline synth:
# spec, or None for the t3 edge list; "{input}" in the message stands
# for the input path, and "{config}" in a flag or the message for a
# config file holding the case's line of CONFIG_LINES (text, or bytes).
CONFIG_LINES = {"unknown-config-key": "etta=0.1\n", "bad-config-bool": "trace=treu\n",
                "non-utf8-config": b"eta=0.1\xff\n"}
ERROR_CASES = {
    "nan-amount": (
        ["risk"], "# nodes=3 edges=3\n" + NODES_ABC + "a,b,nan\nb,c,-5.0\nc,c,1.0\n",
        EXIT_INPUT, "{input}:5: amount must be strictly positive, got nan",
    ),
    "negative-amount": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,1.0\nb,c,-5.0\n",
        EXIT_INPUT, "{input}:6: amount must be strictly positive, got -5.0",
    ),
    "zero-amount": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,0.0\nb,c,1.0\n",
        EXIT_INPUT, "{input}:5: amount must be strictly positive, got 0.0",
    ),
    "self-loop": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,b,1.0\nc,c,1.0\n",
        EXIT_INPUT, "{input}:6: self-loop on node 'c' rejected",
    ),
    "empty-node-id": (
        ["risk"], "# nodes=3 edges=2\n" + NODES_ABC + "a,,1.0\nb,c,1.0\n",
        EXIT_INPUT, "{input}:5: empty node id",
    ),
    "duplicate-loan": (
        ["risk"], "# nodes=3 edges=1\n" + NODES_ABC + "a,b,1.0\na,b,2.0\n",
        EXIT_INPUT, "{input}:6: duplicate loan 'a'->'b'",
    ),
    "duplicate-node": (
        ["risk"], "# nodes=2 edges=1\n# node a\n# node a\na,b,1.0\n",
        EXIT_INPUT, "{input}:3: duplicate node 'a'",
    ),
    "header-edges": (
        ["risk"], "# nodes=3 edges=5\n" + NODES_ABC + "a,b,1.0\nb,c,1.0\n",
        EXIT_INPUT, "{input}:1: header '# nodes=3 edges=5' disagrees with the body "
        "(nodes=3 edges=2)",
    ),
    "header-nodes": (
        ["risk"], "# nodes=2 edges=2\n" + NODES_ABC + "a,b,1.0\nb,c,1.0\n",
        EXIT_INPUT, "{input}:1: header '# nodes=2 edges=2' disagrees with the body "
        "(nodes=3 edges=2)",
    ),
    "bad-eta-increase": (
        ["iso", "--eta-increases", "0.1,abc"], None,
        EXIT_BAD_ARGS, "bad eta increase 'abc'",
    ),
    "bad-synth-int": (
        ["synth"], "synth:n_nodes=abc", EXIT_BAD_ARGS, "bad synth spec n_nodes 'abc'",
    ),
    "p-exo-too-large": (
        ["risk", "--alpha", 0, "--p-exo", 0.4], None,
        EXIT_BAD_ARGS, "set --p-exo to at most 1/(1 + max delta) = 0.3333333333333333",
    ),
    "p-exo-nan": (
        ["risk", "--p-exo", "nan"], None,
        EXIT_BAD_ARGS, "exogenous probability must be finite and positive, got nan",
    ),
    "p-exo-nan-sweep": (
        ["sweep-eta", "--p-exo", "nan"], None,
        EXIT_BAD_ARGS, "exogenous probability must be finite and positive, got nan",
    ),
    "synth-heterogeneity-nan": (
        ["synth"], "synth:n_nodes=8,heterogeneity=nan",
        EXIT_BAD_ARGS, "heterogeneity exponent must exceed 1, got nan",
    ),
    "unknown-config-key": (
        ["risk", "--config", "{config}"], None,
        EXIT_BAD_ARGS, "{config}: unknown config key 'etta'",
    ),
    "bad-config-bool": (
        ["risk", "--config", "{config}"], None,
        EXIT_BAD_ARGS, "config key trace: bad bool 'treu'",
    ),
    "non-utf8-config": (
        ["risk", "--config", "{config}"], None,
        EXIT_INPUT, "{config}:1: not valid UTF-8 text",
    ),
    "bad-float-flag": (
        ["risk", "--eta", "abc"], None,
        EXIT_BAD_ARGS, "error: argument --eta: invalid float value: 'abc'",
    ),
    "unknown-flag": (
        ["risk", "--nope", 1], None, EXIT_BAD_ARGS, "error: unrecognized arguments: --nope 1",
    ),
    "unknown-command": (
        ["bogus"], None, EXIT_BAD_ARGS, "error: argument command: invalid choice: 'bogus'",
    ),
    "synth-rng-seed-key": (
        ["synth"], "synth:n_nodes=8,rng_seed=5",
        EXIT_BAD_ARGS, "unknown synth spec key 'rng_seed'",
    ),
    "non-utf8-trades": (
        ["ingest"], b"2,1,8.0,2000-04-03\n3,2,6.0,2000-04-03 \xff\n",
        EXIT_INPUT, "{input}:2: not valid UTF-8 text",
    ),
    "non-utf8-snapshot": (
        ["risk"], b"# nodes=2 edges=1\n# node a\n# node \xe9\na,\xe9,1.0\n",
        EXIT_INPUT, "{input}:3: not valid UTF-8 text",
    ),
    "bad-window-start": (
        ["risk", "--window-start", "2020-13-01"], None,
        EXIT_BAD_ARGS, "bad window start date '2020-13-01'",
    ),
    "bad-window-snapshot": (
        ["risk", "--window-start", "2020-13-01"], "# nodes=2 edges=1\na,b,1.0\n",
        EXIT_BAD_ARGS, "bad window start date '2020-13-01'",
    ),
    "bad-window-synth": (
        ["risk", "--window-start", "2020-13-01"], "synth:n_nodes=8",
        EXIT_BAD_ARGS, "bad window start date '2020-13-01'",
    ),
    "empty-network": (
        ["risk"], "# nodes=0 edges=0\n", EXIT_INPUT, "cascade needs at least 2 nodes",
    ),
    "roi-zero-balance": (
        ["roi"], "# nodes=3 edges=1\n" + NODES_ABC + "a,b,5.0\n",
        EXIT_BAD_ARGS, "node 'c' has zero balance; ROI undefined",
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
    code = run_cli([command[0], "--input", source, *flags, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.count("\n") == 1, err  # one line, no traceback
    assert message.format(input=source, config=config) in err


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
        assert run_cli(["ingest", "--input", t3_file, "--config", cfg, "--out", out]) == EXIT_OK
        assert f"trace={value}\n" in (out / "run.cfg").read_text()


def test_roi_zero_balance_fails_before_ensemble(tmp_path, capsys, monkeypatch):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    source = tmp_path / "snapshot.csv"
    source.write_text("# nodes=3 edges=1\n" + NODES_ABC + "a,b,5.0\n")
    code = run_cli(["roi", "--input", source, "--out", tmp_path / "o"])
    assert code == EXIT_BAD_ARGS
    assert capsys.readouterr().err == "error: node 'c' has zero balance; ROI undefined\n"


@pytest.mark.parametrize("command", ["risk", "roi", "sweep-eta", "sweep-alpha"])
def test_bad_p_exo_fails_before_loading(command, t3_file, tmp_path, capsys, monkeypatch):
    def nothing_runs(*args, **kwargs):
        raise AssertionError("the input was loaded or the seed ensemble ran")

    monkeypatch.setattr(cli, "load_network", nothing_runs)
    monkeypatch.setattr(experiments, "run_ensemble", nothing_runs)
    code = run_cli([command, "--input", t3_file, "--p-exo", "nan", "--out", tmp_path / "o"])
    assert code == EXIT_BAD_ARGS
    assert capsys.readouterr().err == (
        "error: exogenous probability must be finite and positive, got nan\n"
    )


def test_unexpected_exception_exits_internal(t3_file, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "evaluate_point", broken)
    code = run_cli(["risk", "--input", t3_file, "--out", tmp_path / "o"])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_risk_on_edgeless_snapshot(tmp_path, capsys):
    source = tmp_path / "snapshot.csv"
    source.write_text("# nodes=3 edges=0\n" + NODES_ABC)
    code = run_cli(["risk", "--input", source, "--out", tmp_path / "o"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "p^C=0.0 N=3 defaults_total=0"
    system = (tmp_path / "o" / "risk.csv").read_text().strip().splitlines()[-1]
    assert system.split(",")[-1] == "0.0"  # impact
