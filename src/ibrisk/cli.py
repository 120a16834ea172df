"""Command-line surface: reproducible runs with CSV artifacts.

Commands: ingest, cascade, risk, roi, sweep-eta, sweep-alpha, iso,
synth. Parameters come from flags or a key=value config file (flags
win). Every run writes a ``run.cfg`` echo of the effective parameters
into the output directory, and all numeric CSV output uses round-trip
decimal formatting so identical configs produce identical bytes.

Exit codes: 0 success, 2 bad arguments, 3 input error, 4 calibration
infeasible, 5 internal error (an invariant violation or any other
unexpected exception). Every failure prints one line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import logging
import sys
from pathlib import Path

import numpy as np

from . import experiments, network, roi
from .calibration import CalibrationParams, calibrate
from .contagion import run_cascade
from .errors import CalibrationError, IbRiskError, InputError, ParameterError
from .network import FinancialNetwork
from .risk import check_p_exo

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_BAD_ARGS = ParameterError.exit_code
EXIT_INPUT = InputError.exit_code
EXIT_CALIBRATION = CalibrationError.exit_code
EXIT_INTERNAL = IbRiskError.exit_code

COMMANDS = ("ingest", "cascade", "risk", "roi", "sweep-eta", "sweep-alpha", "iso", "synth")

_DEFAULTS = {
    "beta": 10.0,
    "eta": 0.05,
    "alpha": 0.0,
    "p_exo": 0.001,
    "roi_int": 0.04,
    "roi_ext": 0.07,
    "roi_e": 0.03,
    "roi_f": 0.02,
    "rng_seed": 0,
    "out": "out",
}


def _fmt(value) -> str:
    """Round-trip decimal formatting for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibrisk",
        description="Interbank cascade-risk simulation with a Pigouvian rescue fund",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="edge-list/snapshot path or synth:k=v,... spec")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--window-start", help="aggregation window start (YYYY-MM-DD)")
    parser.add_argument("--window-end", help="aggregation window end (YYYY-MM-DD)")
    for key, default in _DEFAULTS.items():  # scalars of the type of their default
        parser.add_argument("--" + key.replace("_", "-"), type=type(default), dest=key)
    parser.add_argument("--seed-node", dest="seed_node", help="seed node id for cascade")
    parser.add_argument("--trace", action="store_true", default=None,
                        help="emit per-step distress trace CSV")
    parser.add_argument("--eta-increases", dest="eta_increases",
                        help="comma-separated relative eta increases for iso")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (flags win)."""
    config = dict(_DEFAULTS)
    config.update(
        {k: None for k in ("input", "window_start", "window_end", "seed_node", "eta_increases")}
    )
    config["trace"] = False
    if args.config:
        for key, text in _read_config_file(args.config).items():
            norm = key.replace("-", "_")
            if norm not in config:
                raise ParameterError(f"{args.config}: unknown config key {key!r}")
            cast = type(_DEFAULTS.get(norm))
            if cast in (float, int):
                try:
                    config[norm] = cast(text)
                except ValueError:
                    raise ParameterError(f"config key {key}: bad {cast.__name__} {text!r}") from None
            elif norm == "trace":
                config[norm] = text.lower() in ("1", "true", "yes")
            else:
                config[norm] = text
    for key in list(config):
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    return config


def _parse_number(cast, text: str, what: str):
    try:
        return cast(text)
    except ValueError:
        raise ParameterError(f"bad {what} {text!r}") from None


def _synthetic(text: str, rng_seed: int) -> FinancialNetwork:
    fields = {}
    body = text[len("synth:"):]
    if body:
        for chunk in body.split(","):
            if "=" not in chunk:
                raise ParameterError(f"bad synth spec fragment {chunk!r}")
            key, _, value = chunk.partition("=")
            fields[key.strip()] = value.strip()
    kwargs = {"rng_seed": rng_seed}
    casts = {f.name: type(f.default) for f in dataclasses.fields(experiments.SyntheticSpec)}
    for key, value in fields.items():
        if key not in casts:
            raise ParameterError(f"unknown synth spec key {key!r}")
        kwargs[key] = _parse_number(casts[key], value, f"synth spec {key}")
    return experiments.generate_synthetic(experiments.SyntheticSpec(**kwargs))


def load_network(config: dict) -> FinancialNetwork:
    source = config.get("input")
    if not source:
        raise ParameterError("--input is required for this command")
    if source.startswith("synth:"):
        return _synthetic(source, int(config["rng_seed"]))
    path = Path(source)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    if network.is_snapshot_file(path):
        return network.read_snapshot(path)
    trades = network.ingest_file(path)
    start, end = (
        _parse_number(dt.date.fromisoformat, config[key], key.replace("_", " ") + " date")
        if config[key] else None
        for key in ("window_start", "window_end")
    )
    return network.aggregate_window(trades, start, end)


def _write_run_cfg(config: dict, out_dir: Path) -> None:
    with open(out_dir / "run.cfg", "w", encoding="utf-8") as handle:
        handle.writelines(f"{key}={_fmt(config[key])}\n" for key in sorted(config)
                          if config[key] is not None)


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def _rates(config: dict) -> roi.RoiRates:
    return roi.RoiRates(*(config[name] for name in _field_names(roi.RoiRates)))


def _params(config: dict) -> CalibrationParams:
    return CalibrationParams(beta=config["beta"], eta=config["eta"], alpha=config["alpha"])


def cmd_ingest(config: dict, out_dir: Path) -> str:
    net = load_network(config)
    for warning in network.validate_network(net):
        logger.warning(warning)
    network.write_snapshot(net, out_dir / "network.csv")
    return f"nodes={net.n_nodes} edges={net.n_edges}"


def cmd_cascade(config: dict, out_dir: Path) -> str:
    net = load_network(config)
    if config["seed_node"] is None:
        raise ParameterError("--seed-node is required for cascade")
    seed = net.index_of(str(config["seed_node"]))
    cal = calibrate(net, _params(config))
    ens = run_cascade(cal, seed)
    rows = []
    for step, snapshot in enumerate(ens.trace):
        for idx, value in enumerate(snapshot[0]):
            rows.append([step, net.nodes[idx], float(value)])
    _write_csv(out_dir / "trace.csv", ["step", "node", "h"], rows)
    return f"seed={net.nodes[seed]} defaults={int(ens.defaulted[0].sum())} steps={ens.steps[0]}"


def cmd_risk(config: dict, out_dir: Path) -> str:
    check_p_exo(config["p_exo"])  # before the input is loaded
    net = load_network(config)
    cal = calibrate(net, _params(config))
    point = experiments.evaluate_point(cal, _rates(config), config["p_exo"])
    delta, p = point.delta, point.default_prob
    rows = [
        [net.nodes[i], int(delta[i]), float(point.cascade_risk_nodes[i]), float(p[i]),
         float(point.debtrank_nodes[i])]
        for i in range(net.n_nodes)
    ]
    rows.append(["SYSTEM", int(np.sum(delta)), point.cascade_risk_system, float(np.mean(p)),
                 point.avg_debtrank])
    _write_csv(
        out_dir / "risk.csv",
        ["node", "delta", "cascade_risk", "default_prob", "debtrank"],
        rows,
    )
    return (
        f"p^C={_fmt(point.cascade_risk_system)} N={net.n_nodes} "
        f"defaults_total={int(np.sum(delta))}"
    )


def cmd_roi(config: dict, out_dir: Path) -> str:
    check_p_exo(config["p_exo"])
    net = load_network(config)
    cal = calibrate(net, _params(config))
    # ROI is undefined at a zero balance: fail before the seed ensemble runs.
    roi.require_positive_balance(net.nodes, cal.balance)
    point = experiments.evaluate_point(cal, _rates(config), config["p_exo"])
    rows = [
        [net.nodes[i], float(point.roi_nominal[i]), float(point.roi_risk_adjusted[i]),
         float(point.default_prob[i])]
        for i in range(net.n_nodes)
    ]
    _write_csv(
        out_dir / "roi.csv",
        ["node", "roi_nominal", "roi_risk_adjusted", "default_prob"],
        rows,
    )
    return (
        f"p^C={_fmt(point.cascade_risk_system)} market_roi_ra={_fmt(point.market_roi_weighted)} "
        f"market_roi_ra_unweighted={_fmt(point.market_roi_unweighted)}"
    )


def _cmd_sweep(config: dict, out_dir: Path, varying: str) -> str:
    check_p_exo(config["p_exo"])
    net = load_network(config)
    grid = experiments.DEFAULT_ETA_GRID if varying == "eta" else experiments.DEFAULT_ALPHA_GRID
    fixed = config["alpha"] if varying == "eta" else config["eta"]
    spec = experiments.SweepSpec(
        varying=varying,
        grid=grid,
        fixed=fixed,
        beta=config["beta"],
        rates=_rates(config),
        p_exo=config["p_exo"],
    )
    rows = [dataclasses.astuple(row) for row in experiments.sweep(net, spec)]
    _write_csv(out_dir / "sweep.csv", _field_names(experiments.SweepRow), rows)
    return f"sweep={varying} points={len(rows)}"


def cmd_iso(config: dict, out_dir: Path) -> str:
    net = load_network(config)
    if config["eta_increases"]:
        grid = tuple(
            _parse_number(float, x, "eta increase")
            for x in str(config["eta_increases"]).split(",")
        )
    else:
        grid = experiments.DEFAULT_ETA_INCREASE_GRID
    points = experiments.iso_curve(
        net, eta0=config["eta"], eta_increase_grid=grid, beta=config["beta"]
    )
    rows = [dataclasses.astuple(p)[:-1] for p in points]  # all fields but saturated
    _write_csv(out_dir / "iso.csv", _field_names(experiments.IsoPoint)[:-1], rows)
    saturated = sum(1 for p in points if p.saturated)
    return f"iso points={len(points)} saturated={saturated}"


def cmd_synth(config: dict, out_dir: Path) -> str:
    source = config.get("input") or "synth:"
    if not source.startswith("synth:"):
        raise ParameterError("synth expects --input synth:k=v,... (or no input)")
    net = _synthetic(source, int(config["rng_seed"]))
    network.write_snapshot(net, out_dir / "network.csv")
    return f"nodes={net.n_nodes} edges={net.n_edges} rng_seed={config['rng_seed']}"


_HANDLERS = {
    "ingest": cmd_ingest,
    "cascade": cmd_cascade,
    "risk": cmd_risk,
    "roi": cmd_roi,
    "sweep-eta": lambda config, out: _cmd_sweep(config, out, "eta"),
    "sweep-alpha": lambda config, out: _cmd_sweep(config, out, "alpha"),
    "iso": cmd_iso,
    "synth": cmd_synth,
}


def execute_scenario(config: dict, command: str) -> str:
    """Run one command; returns the one-line summary. Raises on failure."""
    out_dir = Path(config["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    summary = _HANDLERS[command](config, out_dir)
    _write_run_cfg(config, out_dir)
    return summary


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        summary = execute_scenario(config, args.command)
    except IbRiskError as exc:
        kind = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # anything unexpected: one line, no traceback
        logger.debug("unexpected failure", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
