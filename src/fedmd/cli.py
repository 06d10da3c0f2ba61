"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error. Failures
print a single machine-parseable line: ``fedmd: error: <category>: <message>``.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments, nn, protocol, transport
from .data import parse_idx
from .errors import (
    ChannelError,
    CodecError,
    ConfigError,
    DataError,
    DivergenceError,
    IdxParseError,
    ProtocolError,
    ShapeError,
)
from .metrics import MetricsLog

OUT_DIR_ENV = "FEDMD_OUT_DIR"


def _set_override(raw: dict, dotted: str, value_text: str) -> None:
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text
    node = raw
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {dotted!r} descends into non-object key {part!r}")
        node = nxt
    node[parts[-1]] = value


def parse_config(path: str, overrides: "list[str] | None" = None) -> experiments.ExperimentConfig:
    """Load a JSON config file and apply key=value overrides; the config checks itself."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value_text = item.partition("=")
        _set_override(raw, key.strip(), value_text)
    return experiments.config_from_dict(raw)


def _resolve_out_dir(cfg: experiments.ExperimentConfig) -> experiments.ExperimentConfig:
    if cfg.out_dir:
        return cfg
    out = os.environ.get(OUT_DIR_ENV) or os.path.join("runs", cfg.name)
    return replace(cfg, out_dir=out)


def _print_summary(log: MetricsLog, summary: dict) -> None:
    print(f"run {summary.get('name', '')}  seed={summary['seed']}  config={summary['config_hash']}")
    print("party  baseline    final     gain   pooled      gap")
    for k in log.parties():
        base = log.baseline_accuracy(k)
        final = log.final_accuracy(k)
        pooled = log.pooled_accuracy(k)
        pooled_s = f"{pooled:8.4f}" if pooled is not None else "       -"
        gap_s = f"{pooled - final:8.4f}" if pooled is not None else "       -"
        print(f"{k:5d} {base:9.4f} {final:8.4f} {final - base:8.4f} {pooled_s} {gap_s}")
    mean_gap = summary["mean_gap_to_pooled"]
    gap_txt = "-" if mean_gap is None else f"{mean_gap:.4f}"
    print(f"mean gain {summary['mean_gain']:.4f}   mean gap to pooled {gap_txt}")


def _cmd_run(args) -> int:
    cfg = _resolve_out_dir(parse_config(args.config, args.override))
    log, summary = experiments.run_experiment(cfg, transport_kind=args.transport)
    _print_summary(log, summary)
    print(f"wrote {cfg.out_dir}/metrics.csv")
    return 0


def _cmd_baseline(args) -> int:
    cfg = _resolve_out_dir(parse_config(args.config, args.override))
    cfg = replace(cfg, collab=replace(cfg.collab, rounds=0), pooled=args.kind == "pooled")
    log, summary = experiments.run_experiment(cfg)
    _print_summary(log, summary)
    return 0


def _cmd_gradcheck(args) -> int:
    report = nn.gradient_check(num_nets=args.nets, seed=args.seed)
    for kind in ("xent", "mae"):
        worst = max((c.max_rel_err for c in report.cases if c.loss == kind), default=0.0)
        print(f"{kind}: max relative error {worst:.3e} over "
              f"{sum(1 for c in report.cases if c.loss == kind)} nets")
    print(f"overall max relative error {report.max_rel_err:.3e} "
          f"(tolerance {nn.GRADCHECK_TOLERANCE:.0e})")
    return 0 if report.passed else 1


def _cmd_inspect_data(args) -> int:
    with open(args.path, "rb") as f:
        arr = parse_idx(f.read())
    print(f"shape: {'x'.join(str(s) for s in arr.shape)}")
    if arr.ndim == 1:
        values, counts = np.unique(arr.astype(np.int64), return_counts=True)
        print("label histogram:")
        for v, c in zip(values, counts):
            print(f"  {v}: {c}")
    else:
        print(f"value range: [{arr.min():.4f}, {arr.max():.4f}]")
    return 0


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"address must look like host:port, got {text!r}")
    return host, int(port)


def _cmd_serve(args) -> int:
    cfg = parse_config(args.config, args.override)
    task = experiments.build_task(cfg)
    m = cfg.collab.parties
    listener = transport.serve(_parse_addr(args.addr), backlog=m)
    print(f"serving {m} parties on {listener.address[0]}:{listener.address[1]}")
    try:
        protocol.server_loop((listener.accept() for _ in range(m)), cfg.collab, task.public.n, task.test.num_classes)
    finally:
        listener.close()
    print(f"completed {cfg.collab.rounds} rounds")
    return 0


def _cmd_join(args) -> int:
    cfg = _resolve_out_dir(parse_config(args.config, args.override))
    k = args.party
    if not 0 <= k < cfg.collab.parties:
        raise ConfigError(f"party id {k} outside 0..{cfg.collab.parties - 1}")
    task = experiments.build_task(cfg)
    party = protocol.make_party(
        k, cfg.architectures[k], task.privates[k], task.public.dim, task.test.num_classes, cfg.collab
    )
    # connect first, so that a failing prologue closes the channel and releases the server at once
    chan = transport.connect(_parse_addr(args.addr))
    try:
        rows = protocol.party_side([party], task.public, task.test, cfg.collab, lambda: {k: chan})
    finally:
        chan.close()
    log = MetricsLog(rows, seed=cfg.seed, config_hash=experiments.config_hash(cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, f"party_{k}.csv")
    with open(out_path, "w") as f:
        f.write(log.to_csv())
    baseline, *rounds = rows
    print(f"party {k} baseline accuracy {baseline.accuracy:.4f}")
    for r in rounds:
        print(f"round {r.round}: accuracy {r.accuracy:.4f}")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmd",
        description="Federated learning for independently designed classifiers "
        "via class-score consensus on a shared public dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("config")
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--transport", choices=("bus", "tcp"), default="bus")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("baseline", help="run only the transfer or pooled baselines")
    p.add_argument("config")
    p.add_argument("--kind", choices=("transfer", "pooled"), required=True)
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of the training gradients")
    p.add_argument("--nets", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("inspect-data", help="print shape and label histogram of an IDX file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect_data)

    p = sub.add_parser("serve", help="aggregate score reports for joining parties")
    p.add_argument("addr", help="host:port to listen on")
    p.add_argument("config")
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("join", help="participate as one party against a running server")
    p.add_argument("addr", help="host:port of the server")
    p.add_argument("party", type=int)
    p.add_argument("config")
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_join)
    return parser


_CATEGORIES = (
    (ConfigError, "config", 2),
    (DataError, "data", 1),
    (IdxParseError, "parse", 1),
    (CodecError, "codec", 1),
    (ChannelError, "channel", 1),
    (ProtocolError, "protocol", 1),
    (DivergenceError, "numeric", 1),
    (ShapeError, "shape", 1),
    (OSError, "io", 1),
)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except Exception as exc:
        for etype, category, code in _CATEGORIES:
            if isinstance(exc, etype):
                message = " ".join(str(exc).split())
                print(f"fedmd: error: {category}: {message}", file=sys.stderr)
                return code
        message = " ".join(str(exc).split())
        print(f"fedmd: error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
