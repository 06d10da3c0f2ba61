"""Experiment definitions: dataset assembly, baselines, and metrics emission.

A config fully determines a run. Synthetic tasks draw the public data and the
private pool as two unrelated blob tasks in the same feature space, mirroring
the public/private dataset asymmetry: a large labeled public task for the
transfer prologue and communication, a scarce private task for evaluation.
"""

import hashlib
import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, nn
from .data import (
    Dataset,
    PartitionPlan,
    load_idx_dataset,
    partition_iid,
    partition_noniid,
    synth_blobs,
    to_superclass,
)
from .errors import ConfigError
from .metrics import POOLED, MetricsLog, MetricsRow, summarize
from .protocol import CollaborationConfig, PartyState, fit_private, make_party, run_fedmd
from .protocol import transfer_learn  # noqa: F401  perfbench traces the prologue under this name too

# ten heterogeneous hidden-layer layouts, one per party in the canonical run
CANONICAL_WIDTHS: tuple[tuple[int, ...], ...] = (
    (32,),
    (64,),
    (32, 32),
    (64, 32),
    (128,),
    (48, 48),
    (96,),
    (64, 64),
    (32, 64),
    (96, 32),
)


@dataclass(frozen=True)
class BlobsSpec:
    classes: int = 6  # task classes (iid) or subclass count (noniid)
    dim: int = 16
    spread: float = 1.0
    public_spread: "float | None" = None  # default: same as spread; larger widens coverage
    public_per_class: int = 500
    pool_per_class: int = 40
    test_per_class: int = 200
    kind: str = "blobs"


@dataclass(frozen=True)
class IdxSpec:
    classes: int
    public_images: str = ""
    public_labels: str = ""
    pool_images: str = ""
    pool_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    kind: str = "idx"


@dataclass(frozen=True)
class ExperimentConfig:
    collab: CollaborationConfig
    data: "BlobsSpec | IdxSpec" = field(default_factory=BlobsSpec)
    partition_mode: str = "iid"
    per_class: int = 3
    subclass_map: "dict[int, int] | None" = None
    architectures: tuple[tuple[int, ...], ...] = ()
    pooled: bool = True
    out_dir: "str | None" = None
    name: str = "experiment"

    def validated(self) -> "ExperimentConfig":
        collab = self.collab.validated()
        archs = self.architectures
        if not archs:
            archs = tuple(
                CANONICAL_WIDTHS[k % len(CANONICAL_WIDTHS)] for k in range(collab.parties)
            )
        archs = tuple(tuple(int(w) for w in a) for a in archs)
        if len(archs) != collab.parties:
            raise ConfigError(
                f"{len(archs)} architectures for {collab.parties} parties"
            )
        for a in archs:
            if any(w < 1 for w in a):
                raise ConfigError(f"hidden widths must be >= 1, got {a}")
        if self.partition_mode not in ("iid", "noniid"):
            raise ConfigError(f"unknown partition mode {self.partition_mode!r}")
        if self.partition_mode == "noniid" and not self.subclass_map:
            raise ConfigError("noniid partition requires subclass_map")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        return replace(self, collab=collab, architectures=archs)

    @property
    def seed(self) -> int:
        return self.collab.seed


def derive_seed(seed: int, tag: str) -> int:
    """Deterministic child seed for one named purpose."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


@dataclass
class TaskData:
    """Everything a run consumes: public set, per-party privates, shared test set."""

    public: Dataset
    privates: list[Dataset]
    test: Dataset
    num_classes: int
    assignment: "tuple[dict[int, int], ...] | None" = None  # noniid: superclass -> subclass
    test_subclasses: "np.ndarray | None" = None  # noniid: original subclass of test rows
    remainder: "Dataset | None" = None


def _noniid_superclasses(mapping: dict[int, int]) -> int:
    supers = sorted(set(mapping.values()))
    if supers != list(range(len(supers))):
        raise ConfigError(f"superclass indices must be contiguous from 0, got {supers}")
    return len(supers)


def build_task(cfg: ExperimentConfig) -> TaskData:
    cfg = cfg.validated()
    seed = cfg.seed
    spec = cfg.data
    plan = PartitionPlan(
        cfg.partition_mode,
        cfg.collab.parties,
        cfg.per_class,
        derive_seed(seed, "partition"),
        cfg.subclass_map or {},
    )
    if spec.kind == "blobs":
        task_classes = (
            _noniid_superclasses(cfg.subclass_map) if cfg.partition_mode == "noniid" else spec.classes
        )
        public = synth_blobs(
            task_classes,
            spec.public_per_class,
            spec.dim,
            spec.public_spread if spec.public_spread is not None else spec.spread,
            derive_seed(seed, "public-task"),
            name="public",
        )
        pool = synth_blobs(
            spec.classes,
            spec.pool_per_class,
            spec.dim,
            spec.spread,
            derive_seed(seed, "private-task"),
            sample_stream=0,
            name="pool",
        )
        test_pool = synth_blobs(
            spec.classes,
            spec.test_per_class,
            spec.dim,
            spec.spread,
            derive_seed(seed, "private-task"),
            sample_stream=1,
            name="test",
        )
    elif spec.kind == "idx":
        public = load_idx_dataset(spec.public_images, spec.public_labels, spec.classes, "public")
        pool = load_idx_dataset(spec.pool_images, spec.pool_labels, spec.classes, "pool")
        test_pool = load_idx_dataset(spec.test_images, spec.test_labels, spec.classes, "test")
    else:
        raise ConfigError(f"unknown data kind {spec.kind!r}")

    if cfg.partition_mode == "iid":
        split = partition_iid(pool, plan)
        return TaskData(
            public,
            list(split.parties),
            test_pool,
            pool.num_classes,
            remainder=split.remainder,
        )
    split = partition_noniid(pool, plan)
    test = to_superclass(test_pool, split.subclass_to_superclass, split.num_superclasses)
    return TaskData(
        public,
        list(split.parties),
        test,
        split.num_superclasses,
        assignment=split.assignment,
        test_subclasses=test_pool.labels,
    )


def build_parties(cfg: ExperimentConfig, task: TaskData) -> list[PartyState]:
    cfg = cfg.validated()
    return [
        make_party(k, cfg.architectures[k], task.privates[k], task.public.dim, task.num_classes, cfg.collab)
        for k in range(cfg.collab.parties)
    ]


def baseline_pooled(cfg: ExperimentConfig, task: TaskData, parties: list[PartyState]) -> list[MetricsRow]:
    """Per-architecture accuracy had every private set been declassified.

    Each party's post-public network (``pretrained``, kept by its transfer
    prologue) is copied and fitted by ``fit_private`` on the union of all
    private sets, with the party's own ``transfer-private`` stream. The public
    phase is not repeated; it would use the same streams and give the same network.
    """
    cfg = cfg.validated()
    pooled_private = Dataset(
        np.concatenate([d.features for d in task.privates]),
        np.concatenate([d.labels for d in task.privates]),
        task.num_classes,
        name="pooled",
    )
    rows = []
    for party in sorted(parties, key=lambda p: p.id):
        if party.pretrained is None:
            raise ConfigError(f"party {party.id} has no post-public network; run its prologue first")
        t0 = time.perf_counter()
        pooled = replace(party, net=party.pretrained.copy(), private=pooled_private)
        fit_private(pooled, cfg.collab)
        acc = nn.accuracy(pooled.net, task.test)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(MetricsRow(POOLED, party.id, acc, None, None, wall_ms))
    return rows


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(
    cfg: ExperimentConfig,
    transport_kind: str = "bus",
    events: "list | None" = None,
) -> tuple[MetricsLog, dict]:
    """Full run: baselines, P rounds, optional pooled upper bound, file emission."""
    cfg = cfg.validated()
    task = build_task(cfg)
    parties = build_parties(cfg, task)
    log = run_fedmd(cfg.collab, parties, task.public, task.test, transport_kind, events=events)
    if cfg.pooled:
        log.rows.extend(baseline_pooled(cfg, task, parties))
    log.config_hash = config_hash(cfg)
    log.version = __version__
    log.validate()
    summary = summarize(log)
    summary["name"] = cfg.name
    summary["version"] = __version__
    summary["config"] = config_to_dict(cfg)
    if cfg.out_dir:
        write_outputs(cfg.out_dir, log, summary, cfg)
    return log, summary


def write_outputs(out_dir: str, log: MetricsLog, summary: dict, cfg: ExperimentConfig) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
            f.write(log.to_csv())
        with open(os.path.join(out_dir, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        with open(os.path.join(out_dir, "effective_config.json"), "w") as f:
            json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write run outputs under {out_dir}: {exc}") from exc


# --- config (de)serialization ---------------------------------------------------

_COLLAB_KEYS = (
    "parties",
    "rounds",
    "subset_size",
    "weights",
    "digest_epochs",
    "digest_batch_size",
    "revisit_epochs",
    "revisit_batch_size",
    "lr",
    "beta1",
    "beta2",
    "epsilon",
    "max_epochs",
    "patience",
    "min_improvement",
    "transfer_batch_size",
    "val_fraction",
    "distill",
    "seed",
)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat JSON-ready dict of the effective config, every default included."""
    out = {k: getattr(cfg.collab, k) for k in _COLLAB_KEYS}
    out["weights"] = None if cfg.collab.weights is None else list(cfg.collab.weights)
    out["data"] = asdict(cfg.data)
    out["partition"] = {
        "mode": cfg.partition_mode,
        "per_class": cfg.per_class,
        "subclass_map": (
            None
            if cfg.subclass_map is None
            else {str(k): v for k, v in sorted(cfg.subclass_map.items())}
        ),
    }
    out["architectures"] = [list(a) for a in cfg.architectures]
    out["pooled"] = cfg.pooled
    out["out_dir"] = cfg.out_dir
    out["name"] = cfg.name
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-shaped dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    known_top = set(_COLLAB_KEYS) | {
        "data",
        "partition",
        "architectures",
        "pooled",
        "out_dir",
        "name",
    }
    for key in raw:
        if key not in known_top:
            raise ConfigError(f"unknown config key {key!r}")
    collab_kwargs = {k: raw[k] for k in _COLLAB_KEYS if k in raw}
    if "parties" not in collab_kwargs or "rounds" not in collab_kwargs:
        raise ConfigError("config must set at least 'parties' and 'rounds'")
    if collab_kwargs.get("weights") is not None:
        collab_kwargs["weights"] = tuple(float(w) for w in collab_kwargs["weights"])
    collab = CollaborationConfig(**collab_kwargs)

    data_raw = dict(raw.get("data") or {})
    kind = data_raw.pop("kind", "blobs")
    if kind == "blobs":
        allowed = {f for f in BlobsSpec.__dataclass_fields__ if f != "kind"}
        for key in data_raw:
            if key not in allowed:
                raise ConfigError(f"unknown data key {key!r} for kind 'blobs'")
        data: "BlobsSpec | IdxSpec" = BlobsSpec(**data_raw)
    elif kind == "idx":
        allowed = {f for f in IdxSpec.__dataclass_fields__ if f != "kind"}
        for key in data_raw:
            if key not in allowed:
                raise ConfigError(f"unknown data key {key!r} for kind 'idx'")
        if "classes" not in data_raw:
            raise ConfigError("idx data requires 'classes'")
        data = IdxSpec(**data_raw)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")

    part_raw = dict(raw.get("partition") or {})
    mode = part_raw.pop("mode", "iid")
    per_class = part_raw.pop("per_class", 3)
    sub_raw = part_raw.pop("subclass_map", None)
    if part_raw:
        raise ConfigError(f"unknown partition key {sorted(part_raw)[0]!r}")
    subclass_map = None
    if sub_raw is not None:
        subclass_map = {int(k): int(v) for k, v in sub_raw.items()}

    archs = tuple(tuple(int(w) for w in a) for a in raw.get("architectures") or ())
    cfg = ExperimentConfig(
        collab=collab,
        data=data,
        partition_mode=mode,
        per_class=int(per_class),
        subclass_map=subclass_map,
        architectures=archs,
        pooled=bool(raw.get("pooled", True)),
        out_dir=raw.get("out_dir"),
        name=str(raw.get("name", "experiment")),
    )
    return cfg.validated()


@dataclass
class NonIidProbe:
    """Per-party accuracy on subclasses the party never trained on."""

    pre_unseen: list[float]
    post_unseen: list[float]
    baseline: list[float]
    final: list[float]


def run_noniid_probe(cfg: ExperimentConfig, transport_kind: str = "bus") -> NonIidProbe:
    """Run a noniid experiment and measure never-seen-subclass accuracy before and after."""
    cfg = cfg.validated()
    if cfg.partition_mode != "noniid":
        raise ConfigError("the probe needs a noniid config")
    task = build_task(cfg)
    parties = build_parties(cfg, task)
    m = cfg.collab.parties
    unseen_sets = []
    for k in range(m):
        seen = set(task.assignment[k].values())
        mask = ~np.isin(task.test_subclasses, sorted(seen))
        unseen_sets.append(task.test.take(np.flatnonzero(mask), name=f"unseen{k}"))
    pre = [0.0] * m

    def capture(party: PartyState) -> None:
        pre[party.id] = nn.accuracy(party.net, unseen_sets[party.id])

    log = run_fedmd(
        cfg.collab, parties, task.public, task.test, transport_kind, after_transfer=capture
    )
    post = [nn.accuracy(p.net, unseen_sets[p.id]) for p in sorted(parties, key=lambda p: p.id)]
    return NonIidProbe(
        pre_unseen=pre,
        post_unseen=post,
        baseline=[log.baseline_accuracy(k) for k in range(m)],
        final=[log.final_accuracy(k) for k in range(m)],
    )
