"""Command-line surface: reproducible runs with CSV artifacts.

Commands: ingest, cascade, risk, roi, sweep-eta, sweep-alpha, iso,
synth. Parameters come from flags or a key=value config file (flags
win). Each command checks every flag, used or not, then loads the input,
and only then makes the output directory: a bad flag or input leaves
none. Every run writes a ``run.cfg`` echo of the effective parameters
there; numeric CSV output uses round-trip decimals, so identical configs give identical bytes.

Exit codes: 0 success, 2 bad arguments, 3 input error, 4 calibration
infeasible, 5 internal error (an invariant violation or any other
unexpected exception). A failing command's last stderr line is its one
error line; warnings logged earlier, such as a skipped blank line, come before it.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import experiments, network, roi
from .calibration import CalibrationParams, calibrate
from .contagion import run_cascade
from .errors import IbRiskError, InputError, ParameterError
from .network import FinancialNetwork
from .risk import check_p_exo

logger = logging.getLogger(__name__)

# Every parameter, as name: (default, help). It gives the flag, the
# config-file key and the cast of both: the default's type, str for a
# None default, and a switch for False. run.cfg echoes every value that
# is not None.
_OPTIONS = {
    "input": (None, "edge-list/snapshot path, or synth:k=v,... with keys n_nodes, "
              "density, heterogeneity, core_fraction"),
    "window_start": (None, "aggregation window start (YYYY-MM-DD)"),
    "window_end": (None, "aggregation window end (YYYY-MM-DD)"),
    "beta": (10.0, "balance multiplier: B = beta * max(borrowed, lent)"),
    "eta": (0.05, "reserve fraction of the balance: E = eta * B"),
    "alpha": (0.0, "rescue-fund tax rate on the reserve, in [0, 1]"),
    "p_exo": (0.001, "exogenous default probability of each node"),
    "roi_int": (roi.RoiRates.roi_int, "return rate of in-network loans"),
    "roi_ext": (roi.RoiRates.roi_ext, "return rate of external assets"),
    "roi_e": (roi.RoiRates.roi_e, "return rate of the reserve"),
    "roi_f": (roi.RoiRates.roi_f, "return rate of the rescue-fund share"),
    "rng_seed": (0, "generator seed of a synth: input"),
    "out": ("out", "output directory"),
    "seed_node": (None, "seed node id for cascade"),
    "trace": (False, "echoed into run.cfg; no command reads it yet"),
    "eta_increases": (None, "comma-separated relative eta increases for iso"),
}
_CASTS = {key: str if default is None else type(default) for key, (default, _) in _OPTIONS.items()}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _fmt(value) -> str:
    """Round-trip decimal formatting for floats (np.float64 too); plain str otherwise."""
    return repr(float(value)) if isinstance(value, float) else str(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit 2, like every bad argument
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ibrisk",
        description="Interbank cascade-risk simulation with a Pigouvian rescue fund",
    )
    parser._negative_number_matcher = re.compile(r"-\.?\d")  # -1e-3 is a value, not a flag
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", help="key=value file of the parameters below; flags win")
    for key, (default, text) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if default is False:
            parser.add_argument(flag, action="store_true", default=None, help=text)
        else:
            parser.add_argument(flag, type=_CASTS[key], help=text)
    return parser


def _config_lines(lines, source: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates: undecodable bytes of the file
            raise InputError(f"{source}:{lineno}: not valid UTF-8 text") from None
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InputError(f"{source}:{lineno}: expected key=value")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (flags win)."""
    config = {key: default for key, (default, _) in _OPTIONS.items()}
    if args.config:
        for key, text in network._parse_file(args.config, _config_lines).items():
            norm = key.replace("-", "_")
            if norm not in config:
                raise ParameterError(f"{args.config}: unknown config key {key!r}")
            kind = _CASTS[norm]
            try:
                config[norm] = _BOOLS[text.lower()] if kind is bool else kind(text)
            except (KeyError, ValueError):
                raise ParameterError(f"config key {key}: bad {kind.__name__} {text!r}") from None
    config.update((key, flag) for key, flag in vars(args).items()
                  if key in config and flag is not None)
    return config


def _parse_number(cast, text: str, what: str):
    try:
        return cast(text)
    except ValueError:
        raise ParameterError(f"bad {what} {text!r}") from None


def _synthetic(text: str, rng_seed: int) -> FinancialNetwork:
    fields = {}
    for chunk in text[len("synth:"):].split(",") if text != "synth:" else ():
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ParameterError(f"bad synth spec fragment {chunk!r}")
        fields[key.strip()] = value.strip()
    casts = {f.name: type(f.default) for f in dataclasses.fields(experiments.SyntheticSpec)}
    del casts["rng_seed"]  # the seed comes from --rng-seed alone
    kwargs = {"rng_seed": rng_seed}
    for key, value in fields.items():
        if key not in casts:
            raise ParameterError(f"unknown synth spec key {key!r}")
        kwargs[key] = _parse_number(casts[key], value, f"synth spec {key}")
    return experiments.generate_synthetic(experiments.SyntheticSpec(**kwargs))


def load_network(config: dict, default: str | None = None) -> FinancialNetwork:
    """The network of ``--input``, which must start with ``default`` if given, or of ``default``."""
    source = config["input"] or default
    if not source:
        raise ParameterError("--input is required for this command")
    if not source.startswith(default or ""):
        raise ParameterError("synth expects --input synth:k=v,... (or no input)")
    start, end = (  # checked for every input, applied to edge lists alone
        _parse_number(dt.date.fromisoformat, config[key], key.replace("_", " ") + " date")
        if config[key] else None
        for key in ("window_start", "window_end")
    )
    if source.startswith("synth:"):
        return _synthetic(source, config["rng_seed"])
    path = Path(source)
    if network.is_snapshot_file(path):
        return network.read_snapshot(path)
    return network.aggregate_file(path, start, end)


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def _rates(config: dict) -> roi.RoiRates:
    return roi.RoiRates(*(config[name] for name in _field_names(roi.RoiRates)))


def _eta_increases(config: dict) -> tuple[float, ...]:
    text = config["eta_increases"]
    if not text:
        return experiments.DEFAULT_ETA_INCREASE_GRID
    return tuple(_parse_number(float, x, "eta increase") for x in text.split(","))


def _params(config: dict) -> CalibrationParams:
    return CalibrationParams(beta=config["beta"], eta=config["eta"], alpha=config["alpha"])


def cmd_ingest(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    for warning in network.validate_network(net):
        logger.warning(warning)
    network.write_snapshot(net, out_dir / "network.csv")
    return f"nodes={net.n_nodes} edges={net.n_edges}"


def cmd_cascade(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    seed = net.index_of(str(config["seed_node"]))
    ens = run_cascade(calibrate(net, _params(config)), seed)
    rows = ((step, node, h) for step, snapshot in enumerate(ens.trace)
            for node, h in zip(net.nodes, snapshot[0].tolist()))
    _write_csv(out_dir / "trace.csv", ["step", "node", "h"], rows)
    return f"seed={net.nodes[seed]} defaults={int(ens.defaulted[0].sum())} steps={ens.steps[0]}"


def cmd_risk(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    cal = calibrate(net, _params(config))
    point = experiments.evaluate_point(cal, None, config["p_exo"])  # risk writes no ROI
    delta, p, defaults = point.delta, point.default_prob, int(np.sum(point.delta))
    rows = [
        *zip(net.nodes, delta.tolist(), point.cascade_risk_nodes.tolist(), p.tolist(),
             point.debtrank_nodes.tolist()),
        ("SYSTEM", defaults, point.cascade_risk_system, float(np.mean(p)), point.avg_debtrank),
    ]
    _write_csv(
        out_dir / "risk.csv", ["node", "delta", "cascade_risk", "default_prob", "debtrank"], rows
    )
    return f"p^C={_fmt(point.cascade_risk_system)} N={net.n_nodes} defaults_total={defaults}"


def cmd_roi(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    cal = calibrate(net, _params(config))
    point = experiments.evaluate_point(cal, _rates(config), config["p_exo"])
    rows = zip(net.nodes, point.roi_nominal.tolist(), point.roi_risk_adjusted.tolist(),
               point.default_prob.tolist())
    _write_csv(
        out_dir / "roi.csv", ["node", "roi_nominal", "roi_risk_adjusted", "default_prob"], rows
    )
    return (
        f"p^C={_fmt(point.cascade_risk_system)} market_roi_ra={_fmt(point.market_roi_weighted)} "
        f"market_roi_ra_unweighted={_fmt(point.market_roi_unweighted)}"
    )


def _cmd_sweep(config: dict, net: FinancialNetwork, out_dir: Path, varying: str) -> str:
    grid = experiments.DEFAULT_ETA_GRID if varying == "eta" else experiments.DEFAULT_ALPHA_GRID
    rows = experiments.sweep(net, _params(config), varying, grid, _rates(config), config["p_exo"])
    _write_csv(out_dir / "sweep.csv", _field_names(experiments.SweepRow),
               map(dataclasses.astuple, rows))
    return f"sweep={varying} points={len(rows)}"


def cmd_iso(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    points = experiments.iso_curve(net, config["eta"], _eta_increases(config), config["beta"])
    rows = (dataclasses.astuple(p)[:-1] for p in points)  # all fields but saturated
    _write_csv(out_dir / "iso.csv", _field_names(experiments.IsoPoint)[:-1], rows)
    return f"iso points={len(points)} saturated={sum(p.saturated for p in points)}"


def cmd_synth(config: dict, net: FinancialNetwork, out_dir: Path) -> str:
    network.write_snapshot(net, out_dir / "network.csv")
    return f"nodes={net.n_nodes} edges={net.n_edges} rng_seed={config['rng_seed']}"


_HANDLERS = {
    "ingest": cmd_ingest,
    "cascade": cmd_cascade,
    "risk": cmd_risk,
    "roi": cmd_roi,
    "sweep-eta": lambda config, net, out: _cmd_sweep(config, net, out, "eta"),
    "sweep-alpha": lambda config, net, out: _cmd_sweep(config, net, out, "alpha"),
    "iso": cmd_iso,
    "synth": cmd_synth,
}
COMMANDS = tuple(_HANDLERS)


def execute_scenario(config: dict, command: str) -> str:
    """Run one command; returns the one-line summary. Raises on failure."""
    check_p_exo(config["p_exo"])  # 1. every flag, for every command, used or not
    _params(config)
    _rates(config)
    experiments.check_eta_increases(_eta_increases(config))
    experiments.SyntheticSpec(rng_seed=config["rng_seed"])  # a negative seed, whatever the input
    if command == "cascade" and config["seed_node"] is None:
        raise ParameterError("--seed-node is required for cascade")
    net = load_network(config, "synth:" if command == "synth" else None)  # 2. the input
    out_dir = Path(config["out"])  # 3. the output, once the input has loaded
    fresh = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    try:
        summary = _HANDLERS[command](config, net, out_dir)
        with open(out_dir / "run.cfg", "w", encoding="utf-8") as handle:
            handle.writelines(f"{key}={_fmt(config[key])}\n" for key in sorted(config)
                              if config[key] is not None)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    finally:  # a failed run leaves no empty directory of its own making
        while fresh and not any(fresh[0].iterdir()):
            fresh.pop(0).rmdir()
    return summary


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        summary = execute_scenario(config, args.command)
    except IbRiskError as exc:
        kind = "internal error" if exc.exit_code == IbRiskError.exit_code else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # anything unexpected: one line, no traceback
        logger.debug("unexpected failure", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return IbRiskError.exit_code
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
