"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error. Failures
print a single machine-parseable line: ``fedmd: error: <category>: <message>``.
"""

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import experiments, protocol, transport
from .data import parse_idx
from .errors import ChannelError, ConfigError, IdxParseError, ProtocolError
from .metrics import MetricsLog


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
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value_text = item.partition("=")
        _set_override(raw, key.strip(), value_text)
    return experiments.config_from_dict(raw)


def _resolve_out_dir(cfg: experiments.ExperimentConfig) -> experiments.ExperimentConfig:
    return cfg if cfg.out_dir else replace(cfg, out_dir=os.path.join("runs", cfg.name))


def _print_summary(log: MetricsLog, summary: dict) -> None:
    print(f"run {summary['name']}  seed={summary['seed']}  config={summary['config_hash']}")
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


def _parse_addr(text: str, lowest_port: int) -> tuple[str, int]:
    """``host:port`` with a port in ``lowest_port``..65535; port 0 lets ``serve`` pick a free one."""
    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise ConfigError(f"address must look like host:port, got {text!r}")
    if not lowest_port <= int(port) <= 65535:
        raise ConfigError(f"port must lie in {lowest_port}..65535, got {port}")
    return host, int(port)


def _cmd_serve(args) -> int:
    addr = _parse_addr(args.addr, 0)
    cfg = parse_config(args.config, args.override)
    m = cfg.collab.parties
    # bind first, so that a busy address is refused before any data is drawn
    listener = transport.serve(addr, backlog=m)
    try:
        task = experiments.build_task(cfg)
        print(f"serving {m} parties on {listener.address[0]}:{listener.address[1]}")
        protocol.server_loop((listener.accept() for _ in range(m)), cfg.collab, task.public.n, task.test.num_classes)
    finally:
        listener.close()
    print(f"completed {cfg.collab.rounds} rounds")
    return 0


def _cmd_join(args) -> int:
    addr = _parse_addr(args.addr, 1)
    cfg = _resolve_out_dir(parse_config(args.config, args.override))
    k = args.party
    if not 0 <= k < cfg.collab.parties:
        raise ConfigError(f"party id {k} outside 0..{cfg.collab.parties - 1}")
    task = experiments.build_task(cfg)
    party = protocol.make_party(k, cfg.architectures[k], task.privates[k], cfg.collab)
    # connect first, so that a failing prologue closes the channel and releases the server at once
    chan = transport.connect(addr)
    try:
        rows = protocol.prologue([party], task.public, task.test, cfg.collab)
        rows += protocol.party_loop([party], task.public, task.test, cfg.collab, {k: chan})
    finally:
        chan.close()
    log = MetricsLog(rows)
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
    (IdxParseError, "parse", 1),
    (ChannelError, "channel", 1),
    (ProtocolError, "protocol", 1),
    (OSError, "io", 1),
)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # fedmd names each numeric failure itself; the filter is process-wide, so it covers the server thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except Exception as exc:
        message = " ".join(str(exc).split())
        for etype, category, code in _CATEGORIES:
            if isinstance(exc, etype):
                print(f"fedmd: error: {category}: {message}", file=sys.stderr)
                return code
        print(f"fedmd: error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
