"""CLI tests: exit codes, config handling, subcommands, and networked serve/join."""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fedmd import cli, experiments, protocol, transport
from fedmd.errors import ChannelError, ConfigError

from idx_util import encode_idx
from metrics_util import metrics_from_csv

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")

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
    path.write_text(json.dumps({"parties": 2, "rounds": 1, "architectures": [[8], [8]]}))
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
    cfg = cli.parse_config(path, ["seed=4294967295"])  # the largest seed builds and draws its task
    assert cfg.seed == 4294967295 and experiments.build_task(cfg).public.n == 90


def test_parse_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.parse_config(str(tmp_path / "nope.json"))


def test_run_writes_outputs_and_prints_summary(tmp_path, capsys):
    path = write_config(tmp_path, {"out_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "mean gain" in out
    csv_text = (tmp_path / "out" / "metrics.csv").read_text()
    log = metrics_from_csv(csv_text)
    assert sorted(r.party for r in log.rows if r.round == "baseline") == log.parties()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("mean_gain", "per_party_gain", "mean_gap_to_pooled", "config_hash", "seed"):
        assert key in summary


def test_out_dir_defaults_to_runs_name_whatever_the_environment_holds(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDMD_OUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "runs" / "cli-tiny" / "metrics.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_baseline_subcommand_is_gone(tmp_path, capsys):
    path = write_config(tmp_path, {"out_dir": str(tmp_path / "out")})
    assert cli.main(["baseline", path, "--kind", "transfer"]) == 2
    assert "invalid choice: 'baseline'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, override):
    path = write_config(tmp_path)
    assert cli.main(["run", path, "-o", f"out_dir={tmp_path / 'out'}", "-o", override]) == 2
    assert "fedmd: error: config:" in capsys.readouterr().err


# NaN fails no ordered comparison, so each check must be written to fail it, and
# an infinite spread must fail before it draws non-finite features; the Adam
# decays and epsilon are fixed, so setting one is an unknown key
@pytest.mark.parametrize(
    "override",
    [
        "lr=NaN",
        "min_improvement=NaN",
        "min_improvement=-1",
        "weights=[NaN, 1]",
        "beta1=1.0",
        "beta2=NaN",
        "epsilon=0",
        "data.spread=Infinity",
        "data.public_spread=Infinity",
    ],
)
def test_bad_optimizer_value_exit_2(tmp_path, capsys, override):
    path = write_config(tmp_path)
    assert cli.main(["run", path, "-o", f"out_dir={tmp_path / 'out'}", "-o", override]) == 2
    assert "fedmd: error: config:" in capsys.readouterr().err


def test_a_diverging_run_prints_one_error_line_and_no_numpy_warning(tmp_path, capsys):
    path = write_config(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", path, "-o", f"out_dir={tmp_path / 'out'}", "-o", "lr=1e300"]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "fedmd: error: protocol: party 0 failed during transfer: non-finite training loss in epoch 0\n"


def test_baseline_transfer_kind(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["run", path, "-o", f"out_dir={tmp_path / 'base'}", "-o", "rounds=0", "-o", "pooled=false"]) == 0
    log = metrics_from_csv((tmp_path / "base" / "metrics.csv").read_text())
    assert all(r.round == "baseline" for r in log.rows)


def test_baseline_pooled_kind(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["run", path, "-o", f"out_dir={tmp_path / 'pooled'}", "-o", "rounds=0", "-o", "pooled=true"]) == 0
    log = metrics_from_csv((tmp_path / "pooled" / "metrics.csv").read_text())
    assert any(r.round == "pooled" for r in log.rows)


def test_gradcheck_exit_0(capsys):
    assert cli.main(["gradcheck", "--nets", "6"]) == 0
    assert "max relative error" in capsys.readouterr().out


# each is refused before any work: no net is checked and no socket opened.
# serve takes port 0 for any free port; a party must name the server's
BAD_COMMANDS = [
    (["gradcheck", "--nets", "0"], "gradient check needs at least one net, got 0"),
    (["gradcheck", "--nets", "-3"], "gradient check needs at least one net, got -3"),
    (["gradcheck", "--seed", "-1"], "gradient check seed must be >= 0, got -1"),
    (["join", "127.0.0.1:70000", "0"], "port must lie in 1..65535, got 70000"),
    (["join", "127.0.0.1:0", "0"], "port must lie in 1..65535, got 0"),
    (["serve", "127.0.0.1:99999"], "port must lie in 0..65535, got 99999"),
    (["serve", "127.0.0.1:65536"], "port must lie in 0..65535, got 65536"),
    (["serve", "nohost"], "address must look like host:port, got 'nohost'"),
    (["join", "127.0.0.1:5", "7"], "party id 7 outside 0..1"),
]


@pytest.mark.parametrize("args, message", BAD_COMMANDS, ids=[" ".join(args) for args, _ in BAD_COMMANDS])
def test_bad_command_arguments_exit_2_before_any_work(tmp_path, capsys, monkeypatch, args, message):
    def no_socket(*_args, **_kw):
        raise AssertionError("opened a socket")

    monkeypatch.setattr(transport, "serve", no_socket)
    monkeypatch.setattr(transport, "connect", no_socket)
    config = [] if args[0] == "gradcheck" else [write_config(tmp_path)]
    assert cli.main([*args, *config]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fedmd: error: config: {message}\n"


def committed(name):
    """The raw JSON of ``configs/<name>.json``."""
    with open(os.path.join(CONFIGS, f"{name}.json")) as f:
        return json.load(f)


NONIID = committed("noniid")


# a config is text, or an object written as JSON; every case ends before any training
BAD_CONFIGS = [
    (TINY, ["name.x=1"], "override 'name.x' descends into non-object key 'name'"),
    (TINY, ["rounds"], "override 'rounds' is not of the form key=value"),
    ("{", [], "is not valid JSON: Expecting property name enclosed in double quotes"),
    ("[]", [], "config root must be an object, got list"),
    ('{"parties": 2}', [], "config must set 'parties' and 'rounds'"),
    (TINY, ["partition.mode=x"], "unknown partition mode 'x'"),
    (TINY, ["partition.per_class=0"], "per_class must be >= 1, got 0"),
    (TINY, ["partition.subclass_map.a=0"], "partition.subclass_map keys must be subclass numbers, got ['a']"),
    (TINY, ['partition.subclass_map={"²": 0}'], "partition.subclass_map keys must be subclass numbers, got ['²']"),
    (TINY, ["partition.bogus=1"], "unknown partition key 'bogus'"),
    (TINY, ["data.kind=x"], "unknown data kind 'x'"),
    (TINY, ['data={"kind": "idx"}'], "data must set 'classes'"),
    (TINY, ['data={"kind": "idx", "classes": 0}'], "data.classes must be >= 1, got 0"),
    (TINY, ['data={"kind": "idx", "classes": 3}'], "data.public_images must name an IDX file"),
    (TINY, ["architectures=[[0], [8]]"], "hidden widths must be >= 1, got (0,)"),
    (TINY, ["data.spread=0"], "data.spread must be finite and positive, got 0"),
    (TINY, ["parties=0"], "parties must be >= 1, got 0"),
    (TINY, ["rounds=-1"], "rounds must be >= 0, got -1"),
    (TINY, ["digest_epochs=-1"], "digest_epochs must be >= 0, got -1"),
    (TINY, ["digest_batch_size=0"], "digest_batch_size must be >= 1, got 0"),
    (TINY, ["val_fraction=1"], "val_fraction must lie in [0, 1), got 1"),
    (TINY, ["weights=[0, 0]"], "consensus weights must not all be zero"),
    (TINY, ["weights=[1e308, 1e308]"], "consensus weights must have a finite sum"),
    (TINY, ["seed=-1"], "seed must lie in 0..4294967295, got -1"),
    (TINY, ["seed=4294967296"], "seed must lie in 0..4294967295, got 4294967296"),
    (TINY, ['partition.subclass_map={"0": 0}'], "subclass_map requires a noniid partition"),
    (NONIID, ["partition.per_class=1000"], "subclass 1 has 70 samples, need 1000"),
    (NONIID, ["partition.subclass_map.00=1"], "partition.subclass_map keys '0' and '00' both name subclass 0"),
]


@pytest.mark.parametrize(
    "config, overrides, message",
    BAD_CONFIGS,
    ids=[
        " ".join(o) if c is TINY else c if isinstance(c, str) else f"{c['name']} {' '.join(o)}"
        for c, o, _ in BAD_CONFIGS
    ],
)
def test_bad_config_exits_2_naming_the_fault(tmp_path, capsys, config, overrides, message):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    args = [f"out_dir={tmp_path / 'out'}", *overrides]
    assert cli.main(["run", str(path), *(x for o in args for x in ("-o", o))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fedmd: error: config: ") and message in err
    assert not (tmp_path / "out").exists()


def fields_of(raw, prefix=""):
    """The dotted key and value of each field of a raw config, ``data``'s and ``partition``'s included."""
    for key, value in raw.items():
        if key in ("data", "partition"):
            yield from fields_of(value, f"{key}.")
        else:
            yield prefix + key, value


# every field of both committed configs, set to a value of another JSON type:
# a number where the value is a string or null, else a string
WRONG_TYPES = [
    (name, key, 5 if value is None or isinstance(value, str) else "x")
    for name in ("blobs10", "noniid")
    for key, value in fields_of(committed(name))
]


@pytest.mark.parametrize(
    "name, key, value", WRONG_TYPES, ids=[f"{n} {k}={json.dumps(v)}" for n, k, v in WRONG_TYPES]
)
def test_a_field_of_the_wrong_type_exits_2_naming_its_key(tmp_path, capsys, name, key, value):
    path = os.path.join(CONFIGS, f"{name}.json")
    args = [f"out_dir={tmp_path / 'out'}", f"{key}={json.dumps(value)}"]
    assert cli.main(["run", path, *(x for o in args for x in ("-o", o))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"fedmd: error: config: {key} must be ")
    assert not (tmp_path / "out").exists()


def idx_files(tmp_path, **arrays):
    """A ``data`` section over IDX files of 2x3 images, 10 per class of 3; ``arrays`` replaces files' contents."""
    labels = np.repeat(np.arange(3), 10)
    files = {f"{split}_{part}": arr for split in ("public", "pool", "test")
             for part, arr in (("images", np.zeros((30, 2, 3))), ("labels", labels))}
    files.update(arrays)
    data = {"kind": "idx", "classes": 3}
    for key, arr in files.items():
        (tmp_path / f"{key}.idx").write_bytes(encode_idx(arr))
        data[key] = str(tmp_path / f"{key}.idx")
    return data


def swapped(data, a, b):
    return dict(data, **{a: data[b], b: data[a]})


# each loads before any training
@pytest.mark.parametrize(
    "config, message",
    [
        (
            lambda t: {"data": swapped(idx_files(t), "public_images", "public_labels")},
            "public_labels.idx holds a 1-d payload, expected images",
        ),
        (
            lambda t: {"data": dict(idx_files(t), pool_labels=str(t / "pool_images.idx"))},
            "pool_images.idx holds a 3-d payload, expected labels",
        ),
        (
            lambda t: {"data": idx_files(t, test_images=np.zeros((5, 2, 3)), test_labels=np.zeros(4))},
            "5 feature rows vs 4 labels",
        ),
        (
            # the pool holds subclasses 0..3, which the map covers; the test set also holds 4
            lambda t: {
                "data": dict(
                    idx_files(t, public_labels=np.repeat(np.arange(2), 15), pool_images=np.zeros((12, 2, 3)),
                              pool_labels=np.repeat(np.arange(4), 3), test_labels=np.repeat(np.arange(5), 6)),
                    classes=5,
                ),
                "partition": {"mode": "noniid", "per_class": 2, "subclass_map": {"0": 0, "1": 0, "2": 1, "3": 1}},
            },
            "subclass_map does not cover subclasses [4]",
        ),
        (
            # 4 subclasses in 2 superclasses, so the public set's labels must be superclasses 0 and 1
            lambda t: {
                "data": dict(
                    idx_files(t, pool_images=np.zeros((20, 2, 3)), pool_labels=np.repeat(np.arange(4), 5),
                              test_images=np.zeros((20, 2, 3)), test_labels=np.repeat(np.arange(4), 5)),
                    classes=4,
                ),
                "partition": {"mode": "noniid", "per_class": 2, "subclass_map": {"0": 0, "1": 0, "2": 1, "3": 1}},
            },
            "public_labels.idx holds label 2; labels must lie in [0, 2)",
        ),
        (
            lambda t: {"data": idx_files(t, pool_labels=np.repeat([0, 1, 3], 10))},
            "pool_labels.idx holds label 3; labels must lie in [0, 3)",
        ),
        (
            lambda t: {"data": idx_files(t, pool_images=np.zeros((30, 3, 3)))},
            "data.pool_images hold 9 values per image, data.public_images 6",
        ),
        (
            lambda t: {"data": idx_files(t, test_images=np.zeros((30, 1, 3)))},
            "data.test_images hold 3 values per image, data.public_images 6",
        ),
    ],
    ids=[
        "images-and-labels-swapped", "labels-are-images", "5-images-4-labels", "test-subclass-outside-the-map",
        "noniid-public-label-past-the-superclasses", "label-past-the-classes",
        "pool-images-of-another-size", "test-images-of-another-size",
    ],
)
def test_bad_idx_data_exits_2_naming_the_fault(tmp_path, capsys, config, message):
    path = write_config(tmp_path, {"out_dir": str(tmp_path / "out"), **config(tmp_path)})
    assert cli.main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fedmd: error: config: ") and message in err
    assert not (tmp_path / "out").exists()


def test_out_dir_under_a_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "out"
    assert cli.main(["run", write_config(tmp_path), "-o", f"out_dir={out_dir}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fedmd: error: io: cannot write run outputs under {out_dir}: [Errno 20] Not a directory")


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


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"\x00\x00\x08\x02\x00\x00\x00\x01", "truncated header (byte offset 8)"),
        (b"\x01\x00\x08\x01\x00\x00\x00\x01\x05", "bad magic prefix 0x0100 (byte offset 0)"),
        (b"\x00\x00\x08\x01\x00\x00\x00\x00", "dimension 0 is zero (byte offset 4)"),
    ],
    ids=["truncated-header", "bad-magic", "zero-dimension"],
)
def test_inspect_data_names_the_fault_and_its_offset(tmp_path, capsys, blob, message):
    path = tmp_path / "bad.idx"
    path.write_bytes(blob)
    assert cli.main(["inspect-data", str(path)]) == 1
    assert capsys.readouterr().err == f"fedmd: error: parse: {message}\n"


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
