"""CLI tests: exit codes, config handling, subcommands, and networked serve/join."""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from fedmd import cli, experiments, protocol, transport
from fedmd.errors import ChannelError, ConfigError

from idx_util import encode_idx
from metrics_util import metrics_from_csv

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

TINY = {
    "name": "cli-tiny",
    "parties": 2,
    "rounds": 1,
    "seed": 0,
    "subset_size": 32,
    "digest_epochs": 2,
    "digest_batch_size": 16,
    "revisit_epochs": 1,
    "revisit_batch_size": 8,
    "patience": 5,
    "max_epochs": 10,
    "transfer_batch_size": 16,
    "data": {
        "kind": "blobs",
        "classes": 3,
        "dim": 4,
        "spread": 1.0,
        "public_spread": 2.0,
        "public_per_class": 30,
        "pool_per_class": 12,
        "test_per_class": 30,
    },
    "partition": {"mode": "iid", "per_class": 3},
    "architectures": [[8], [8]],
    "pooled": False,
}


def write_config(tmp_path, extra=None):
    raw = dict(TINY)
    raw.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_no_arguments_usage_exit_2(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exit_2():
    assert cli.main(["frobnicate"]) == 2


def test_parse_config_minimal_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"parties": 2, "rounds": 1}))
    cfg = cli.parse_config(str(path))
    assert cfg.collab.subset_size == 5000
    assert cfg.collab.weights == (0.5, 0.5)


def test_parse_config_override_validation(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(ConfigError, match="subset_size"):
        cli.parse_config(path, ["subset_size=0"])
    cfg = cli.parse_config(path, ["rounds=3", "data.spread=2.5"])
    assert cfg.collab.rounds == 3
    assert cfg.data.spread == 2.5


def test_parse_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.parse_config(str(tmp_path / "nope.json"))


def test_run_writes_outputs_and_prints_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    path = write_config(tmp_path, {"out_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "mean gain" in out
    csv_text = (tmp_path / "out" / "metrics.csv").read_text()
    log = metrics_from_csv(csv_text)
    log.validate()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("mean_gain", "per_party_gain", "mean_gap_to_pooled", "config_hash", "seed"):
        assert key in summary


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    path = write_config(tmp_path)
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "envout" / "metrics.csv").exists()


def test_config_error_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"subset_size": 0})
    assert cli.main(["run", path]) == 2
    assert "fedmd: error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        'rounds="abc"',
        'data.dim="7"',
        "lr=null",
        'seed="x"',
        "partition.per_class=abc",
        'architectures=[["x"]]',
        'weights=["a", "b"]',
        "subset_size=1.5",
    ],
)
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, monkeypatch, override):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "out"))
    path = write_config(tmp_path)
    assert cli.main(["baseline", path, "--kind", "transfer", "-o", override]) == 2
    assert "fedmd: error: config:" in capsys.readouterr().err


# NaN fails no ordered comparison, so each check must be written to fail it; the
# Adam decays and epsilon are fixed, so setting one is an unknown key
@pytest.mark.parametrize(
    "override",
    ["lr=NaN", "min_improvement=NaN", "min_improvement=-1", "weights=[NaN, 1]", "beta1=1.0", "beta2=NaN", "epsilon=0"],
)
def test_bad_optimizer_value_exit_2(tmp_path, capsys, monkeypatch, override):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "out"))
    path = write_config(tmp_path)
    assert cli.main(["baseline", path, "--kind", "transfer", "-o", override]) == 2
    assert "fedmd: error: config:" in capsys.readouterr().err


def test_baseline_transfer_kind(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "base"))
    path = write_config(tmp_path)
    assert cli.main(["baseline", path, "--kind", "transfer"]) == 0
    log = metrics_from_csv((tmp_path / "base" / "metrics.csv").read_text())
    assert all(r.round == "baseline" for r in log.rows)


def test_baseline_pooled_kind(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "pooled"))
    path = write_config(tmp_path)
    assert cli.main(["baseline", path, "--kind", "pooled"]) == 0
    log = metrics_from_csv((tmp_path / "pooled" / "metrics.csv").read_text())
    assert any(r.round == "pooled" for r in log.rows)


def test_gradcheck_exit_0(capsys):
    assert cli.main(["gradcheck", "--nets", "6"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_inspect_data_labels_histogram(tmp_path, capsys):
    labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.uint8)
    path = tmp_path / "labels.idx"
    path.write_bytes(encode_idx(labels))
    assert cli.main(["inspect-data", str(path)]) == 0
    out = capsys.readouterr().out
    assert "shape: 6" in out
    assert "0: 2" in out and "2: 3" in out


def test_inspect_data_images_shape(tmp_path, capsys):
    images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "images.idx"
    path.write_bytes(encode_idx(images))
    assert cli.main(["inspect-data", str(path)]) == 0
    assert "shape: 2x3x4" in capsys.readouterr().out


def test_inspect_data_malformed_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x0d\x01")
    assert cli.main(["inspect-data", str(path)]) == 1
    assert "fedmd: error: parse:" in capsys.readouterr().err


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def child_env():
    """The environment of a child ``python -m fedmd``, which finds fedmd in src/ whether or not it is installed."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_serve_names_the_party_and_round_of_an_undecodable_frame(tmp_path):
    cfg_path = write_config(tmp_path, {"parties": 1, "architectures": [[8]]})
    addr = ("127.0.0.1", free_port())
    server = subprocess.Popen(
        [sys.executable, "-m", "fedmd", "serve", "{}:{}".format(*addr), cfg_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        chan = transport.connect(addr, timeout=30.0)
        try:
            chan.send(transport.ScoreReport(0, 0, np.zeros((0, 3), dtype=np.float32)))
            assert isinstance(chan.recv(), transport.SubsetAnnouncement)
            chan._sock.sendall(struct.pack(">IBII", 9, 1, 7, 1))  # scores of protocol version 7
            _, err = server.communicate(timeout=30)
        finally:
            chan.close()
    finally:
        server.kill()
        server.communicate()
    assert server.returncode == 1
    lines = err.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("fedmd: error: protocol: party 0 round 1: undecodable scores: ")


def test_serve_join_matches_in_process_run(tmp_path):
    """Two real join processes against a serve process reproduce the bus-run metrics."""
    cfg_path = write_config(tmp_path, {"out_dir": str(tmp_path / "net")})
    cfg = cli.parse_config(cfg_path)
    reference, _ = experiments.run_experiment(cfg)

    port = free_port()
    addr = f"127.0.0.1:{port}"
    env_cmd = [sys.executable, "-m", "fedmd"]
    env = child_env()
    server = subprocess.Popen(
        env_cmd + ["serve", addr, cfg_path], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
    )
    try:
        joins = [
            subprocess.Popen(
                env_cmd + ["join", addr, str(k), cfg_path],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
            )
            for k in range(2)
        ]
        for proc in joins:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out.decode()
        out, _ = server.communicate(timeout=30)
        assert server.returncode == 0, out.decode()
    finally:
        server.kill()

    for k in range(2):
        party_log = metrics_from_csv((tmp_path / "net" / f"party_{k}.csv").read_text())
        mine = [r for r in reference.rows if r.party == k]
        assert len(party_log.rows) == len(mine)
        for got, want in zip(party_log.rows, mine):
            assert (got.round, got.party, got.accuracy, got.digest_loss, got.revisit_loss) == (
                want.round,
                want.party,
                want.accuracy,
                want.digest_loss,
                want.revisit_loss,
            )


def test_join_whose_prologue_fails_releases_the_server_and_the_other_join(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, {"out_dir": str(tmp_path / "net")})
    cfg = cli.parse_config(cfg_path)
    task = experiments.build_task(cfg)
    inner = protocol.transfer_learn

    def transfer_learn(parties, *args):  # party 0's prologue fails, party 1's runs
        if parties[0].id == 0:
            raise ValueError("boom")
        return inner(parties, *args)

    monkeypatch.setattr(protocol, "transfer_learn", transfer_learn)
    timeout = 20.0
    listener = transport.serve(("127.0.0.1", 0), backlog=2, timeout=timeout)
    addr = "{}:{}".format(*listener.address)
    done = {}

    def serve():
        t0 = time.perf_counter()
        try:
            accepted = (listener.accept() for _ in range(2))
            protocol.server_loop(accepted, cfg.collab, task.public.n, task.test.num_classes)
        except BaseException as exc:
            done["server"] = exc
        finally:
            done["server_s"] = time.perf_counter() - t0
            listener.close()

    threads = [
        threading.Thread(target=serve, daemon=True),
        threading.Thread(target=lambda: done.update(join_1=cli.main(["join", addr, "1", cfg_path])), daemon=True),
    ]
    for t in threads:
        t.start()
    assert cli.main(["join", addr, "0", cfg_path]) == 1
    for t in threads:
        t.join(timeout=2 * timeout)
        assert not t.is_alive()
    err = capsys.readouterr().err.splitlines()
    assert "fedmd: error: protocol: party 0 failed during transfer: boom" in err
    assert isinstance(done["server"], ChannelError)
    assert str(done["server"]) == "peer closed the channel"
    assert done["server_s"] < timeout / 4
    assert done["join_1"] == 1  # released by the server's close, not by a timeout
    assert any(line.startswith("fedmd: error: channel: ") for line in err)
