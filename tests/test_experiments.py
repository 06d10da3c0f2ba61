"""Experiment-layer tests: configs, metrics log, summaries, baselines, file outputs."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fedmd import cli, experiments, nn
from fedmd.data import Dataset
from fedmd.errors import ConfigError, DataError
from fedmd.experiments import (
    BlobsSpec,
    ExperimentConfig,
    baseline_pooled,
    build_parties,
    build_task,
    config_from_dict,
    config_to_dict,
    run_experiment,
)
from fedmd.metrics import BASELINE, POOLED, MetricsLog, MetricsRow, summarize
from fedmd.protocol import CollaborationConfig, fit_private, make_party, transfer_learn

from idx_util import encode_idx
from metrics_util import metrics_from_csv


def tiny_config(seed=0, parties=2, rounds=1, pooled=False, **data_kw):
    data = dict(classes=3, dim=4, spread=1.0, public_spread=2.0,
                public_per_class=30, pool_per_class=12, test_per_class=30)
    data.update(data_kw)
    return ExperimentConfig(
        collab=CollaborationConfig(
            parties=parties, rounds=rounds, subset_size=32, digest_epochs=2,
            digest_batch_size=16, revisit_epochs=1, revisit_batch_size=8,
            patience=5, max_epochs=10, transfer_batch_size=16, seed=seed,
        ),
        data=BlobsSpec(**data),
        partition_mode="iid",
        per_class=3,
        architectures=((8,),) * parties,
        pooled=pooled,
        name="tiny",
    )


# --- metrics log -------------------------------------------------------------------


def test_metrics_csv_round_trip():
    log = MetricsLog(
        rows=[
            MetricsRow(BASELINE, 0, 0.5, None, None, 12.0),
            MetricsRow(1, 0, 0.625, 0.031, 0.911, 3.25),
            MetricsRow(POOLED, 0, 0.75, None, None, 8.0),
        ],
        config_hash="abc",
        seed=3,
    )
    back = metrics_from_csv(log.to_csv())
    assert back.rows == log.rows


def test_metrics_csv_header_is_stable():
    assert MetricsLog().to_csv().splitlines()[0] == "round,party,accuracy,digest_loss,revisit_loss,wall_ms"


def test_metrics_validation():
    log = MetricsLog(rows=[MetricsRow(1, 0, 0.5, 0.1, 0.1, 1.0)])
    with pytest.raises(DataError, match="baseline"):
        log.validate()
    with pytest.raises(ConfigError):
        MetricsRow(BASELINE, 0, 1.5, None, None, 0.0)


def test_summarize_zero_gain_when_no_rounds():
    log = MetricsLog(rows=[MetricsRow(BASELINE, k, 0.5, None, None, 0.0) for k in range(3)])
    s = summarize(log)
    assert s["per_party_gain"] == [0.0, 0.0, 0.0]
    assert s["mean_gain"] == 0.0
    assert s["mean_gap_to_pooled"] is None


def test_summarize_hand_built_log():
    log = MetricsLog(
        rows=[
            MetricsRow(BASELINE, 0, 0.5, None, None, 0.0),
            MetricsRow(BASELINE, 1, 0.6, None, None, 0.0),
            MetricsRow(1, 0, 0.7, 0.1, 0.2, 0.0),
            MetricsRow(1, 1, 0.7, 0.1, 0.2, 0.0),
        ]
    )
    s = summarize(log)
    assert s["per_party_gain"] == pytest.approx([0.2, 0.1])
    assert s["mean_gain"] == pytest.approx(0.15)


def test_summarize_matches_independent_recomputation():
    cfg = tiny_config(rounds=2, pooled=True)
    log, summary = run_experiment(cfg)
    # spreadsheet-style recomputation straight off the CSV text
    rows = [ln.split(",") for ln in log.to_csv().splitlines()[1:]]
    base, final, pooled = {}, {}, {}
    for cells in rows:
        party = int(cells[1])
        acc = float(cells[2])
        if cells[0] == "baseline":
            base[party] = acc
        elif cells[0] == "pooled":
            pooled[party] = acc
        else:
            rnd = int(cells[0])
            if party not in final or rnd >= final[party][0]:
                final[party] = (rnd, acc)
    gains = [final[k][1] - base[k] for k in sorted(base)]
    gaps = [pooled[k] - final[k][1] for k in sorted(pooled)]
    assert summary["per_party_gain"] == pytest.approx(gains)
    assert summary["mean_gain"] == pytest.approx(sum(gains) / len(gains))
    assert summary["mean_gap_to_pooled"] == pytest.approx(sum(gaps) / len(gaps))


def test_summarize_requires_baseline():
    with pytest.raises(DataError):
        summarize(MetricsLog(rows=[MetricsRow(1, 0, 0.5, 0.1, 0.1, 0.0)]))


# --- config serialization -------------------------------------------------------------


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def test_config_dict_round_trip():
    cfg = cli.parse_config(os.path.join(CONFIGS, "blobs10.json"), ["seed=7"])
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg
    cfg2 = cli.parse_config(os.path.join(CONFIGS, "noniid.json"), ["seed=3"])
    assert config_from_dict(config_to_dict(cfg2)) == cfg2


def test_config_minimal_applies_defaults():
    cfg = config_from_dict({"parties": 2, "rounds": 3})
    assert cfg.collab.subset_size == 5000
    assert cfg.collab.lr == 0.001
    assert cfg.collab.weights == (0.5, 0.5)
    assert len(cfg.architectures) == 2
    assert cfg.data == BlobsSpec()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"parties": 2, "rounds": 1, "bogus": 7})
    with pytest.raises(ConfigError, match="unknown data key"):
        config_from_dict({"parties": 2, "rounds": 1, "data": {"kind": "blobs", "x": 1}})


def test_config_validation_errors_name_constraint():
    with pytest.raises(ConfigError, match="subset_size"):
        config_from_dict({"parties": 2, "rounds": 1, "subset_size": 0})
    with pytest.raises(ConfigError, match="architectures"):
        config_from_dict({"parties": 3, "rounds": 1, "architectures": [[8]]})
    # a config built in code, or by replace, is checked the same way
    cfg = cli.parse_config(os.path.join(CONFIGS, "blobs10.json"))
    with pytest.raises(ConfigError, match="10 weights for 3 parties"):
        replace(cfg.collab, parties=3)
    with pytest.raises(ConfigError, match="3 architectures for 10 parties"):
        replace(cfg, architectures=cfg.architectures[:3])
    with pytest.raises(ConfigError, match="noniid partition requires subclass_map"):
        ExperimentConfig(cfg.collab, partition_mode="noniid", subclass_map=None)
    # data values that only build_task used to reject
    with pytest.raises(ConfigError, match="data.dim must be >= 1"):
        BlobsSpec(dim=0)
    with pytest.raises(ConfigError, match="data.public_per_class must be >= 1"):
        replace(cfg.data, public_per_class=0)
    with pytest.raises(ConfigError, match="data.public_per_class must be >= 1"):
        config_from_dict({"parties": 2, "rounds": 1, "data": {"kind": "blobs", "public_per_class": 0}})
    with pytest.raises(ConfigError, match="superclass indices must be contiguous"):
        ExperimentConfig(cfg.collab, partition_mode="noniid", subclass_map={0: 0, 1: 2})


# --- runs -----------------------------------------------------------------------------


def test_run_experiment_zero_rounds_emits_baseline_rows_only(tmp_path):
    cfg = tiny_config(rounds=0)
    from dataclasses import replace

    cfg = replace(cfg, out_dir=str(tmp_path / "out"))
    log, summary = run_experiment(cfg)
    csv_lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2  # header + one baseline row per party
    assert all(ln.startswith("baseline,") for ln in csv_lines[1:])
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "effective_config.json").exists()


def test_effective_config_reparses_equal(tmp_path):
    from dataclasses import replace

    cfg = replace(tiny_config(rounds=0), out_dir=str(tmp_path / "o"))
    run_experiment(cfg)
    raw = json.loads((tmp_path / "o" / "effective_config.json").read_text())
    assert config_from_dict(raw) == cfg


def test_single_party_pooled_equals_baseline():
    # with one party the pooled union is its own private set: same seeds, same data
    cfg = tiny_config(parties=1, rounds=0, pooled=True)
    log, _ = run_experiment(cfg)
    assert log.pooled_accuracy(0) == log.baseline_accuracy(0)


def test_pooled_rows_continue_from_prologue_snapshot(monkeypatch):
    # oracle: the pooled fit as it used to run, a fresh party through the whole prologue
    cfg = replace(tiny_config(parties=3, rounds=1, pooled=True), architectures=((8,), (6, 5), (4,)))
    fitted = {}

    def recording_fit_private(group, collab):
        fitted.update((party.id, party.net) for party in group)
        return fit_private(group, collab)

    monkeypatch.setattr(experiments, "fit_private", recording_fit_private)
    log, _ = run_experiment(cfg)
    task = build_task(cfg)
    pooled_private = Dataset(
        np.concatenate([d.features for d in task.privates]),
        np.concatenate([d.labels for d in task.privates]),
        task.test.num_classes,
    )
    for k, arch in enumerate(cfg.architectures):
        old = make_party(k, arch, pooled_private, task.public.dim, task.test.num_classes, cfg.collab)
        transfer_learn([old], task.public, cfg.collab)
        new_params = fitted[k].parameters()
        assert len(new_params) == len(old.net.parameters()) == 2 * (len(arch) + 1)
        assert all(np.array_equal(a, b) for a, b in zip(new_params, old.net.parameters()))
        assert log.pooled_accuracy(k) == nn.accuracy(old.net, task.test)


def test_pooled_without_snapshot_names_the_party():
    cfg = tiny_config(parties=2, pooled=True)
    task = build_task(cfg)
    with pytest.raises(ConfigError, match="party 0"):
        baseline_pooled(cfg, task, build_parties(cfg, task))


def test_pooled_rows_one_per_party():
    cfg = tiny_config(parties=2, rounds=1, pooled=True)
    log, _ = run_experiment(cfg)
    pooled_rows = [r for r in log.rows if r.round == POOLED]
    assert [r.party for r in pooled_rows] == [0, 1]
    log.validate()


def test_run_experiment_rerun_is_identical_modulo_wall_time():
    texts = []
    for _ in range(2):
        log, _ = run_experiment(tiny_config(rounds=2, pooled=True))
        stripped = [ln.rsplit(",", 1)[0] for ln in log.to_csv().splitlines()]
        texts.append(stripped)
    assert texts[0] == texts[1]


def test_noniid_run_and_probe():
    cfg = ExperimentConfig(
        collab=CollaborationConfig(
            parties=2, rounds=1, subset_size=32, digest_epochs=2, digest_batch_size=16,
            revisit_epochs=1, revisit_batch_size=8, patience=5, max_epochs=10,
            transfer_batch_size=16, seed=1,
        ),
        data=BlobsSpec(classes=4, dim=4, spread=1.0, public_per_class=30,
                       pool_per_class=16, test_per_class=20),
        partition_mode="noniid",
        per_class=4,
        subclass_map={0: 0, 1: 0, 2: 1, 3: 1},
        architectures=((8,), (8,)),
        pooled=False,
        name="noniid-tiny",
    )
    task = build_task(cfg)
    assert task.test.num_classes == 2
    assert task.assignment is not None
    probe = experiments.run_noniid_probe(cfg)
    assert len(probe.pre_unseen) == 2 and len(probe.post_unseen) == 2


def test_idx_task_runs_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    data = {"kind": "idx", "classes": 3}
    images = {}
    for split, per_class in (("public", 20), ("pool", 8), ("test", 10)):
        labels = np.repeat(np.arange(3), per_class)
        images[split] = np.clip(labels[:, None, None] * 90 + rng.integers(0, 60, (labels.size, 2, 3)), 0, 255)
        for part, arr in (("images", images[split]), ("labels", labels)):
            path = tmp_path / f"{split}-{part}.idx"
            path.write_bytes(encode_idx(arr))
            data[f"{split}_{part}"] = str(path)
    cfg = config_from_dict({
        "parties": 2, "rounds": 1, "subset_size": 16, "digest_batch_size": 8, "revisit_batch_size": 4,
        "max_epochs": 5, "patience": 2, "transfer_batch_size": 8, "data": data,
        "partition": {"mode": "iid", "per_class": 3}, "architectures": [[8], [6, 5]],
    })
    task = build_task(cfg)
    assert np.array_equal(task.public.features, (images["public"].reshape(60, 6) / 255.0).astype(np.float32))
    assert task.test.n == 30 and [p.n for p in task.privates] == [9, 9]
    log, _ = run_experiment(cfg)
    assert [(r.round, r.party) for r in log.rows] == [
        (BASELINE, 0), (BASELINE, 1), (1, 0), (1, 1), (POOLED, 0), (POOLED, 1)
    ]
    assert all(0.0 <= r.accuracy <= 1.0 for r in log.rows)
