"""Experiment definitions: dataset assembly, baselines, and metrics emission.

A config fully determines a run. Synthetic tasks draw the public data and the
private pool as two unrelated blob tasks in the same feature space, mirroring
the public/private dataset asymmetry: a large labeled public task for the
transfer prologue and communication, a scarce private task for evaluation.
"""

import hashlib
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from . import __version__, nn
from .data import (
    Dataset,
    load_idx_dataset,
    partition_iid,
    partition_noniid,
    synth_blobs,
    to_superclass,
)
from .errors import ConfigError
from .metrics import POOLED, MetricsLog, MetricsRow, summarize
from .protocol import (
    CollaborationConfig,
    PartyState,
    fit_and_measure,
    fit_private,
    make_party,
    run_fedmd,
)
from .protocol import transfer_learn  # noqa: F401  perfbench traces the prologue under this name too


@dataclass(frozen=True)
class BlobsSpec:
    kind: ClassVar[str] = "blobs"  # the config's ``data.kind``

    classes: int = 6  # task classes (iid) or subclass count (noniid)
    dim: int = 16
    spread: float = 1.0
    public_spread: "float | None" = None  # default: same as spread; larger widens coverage
    public_per_class: int = 500
    pool_per_class: int = 40
    test_per_class: int = 200

    def __post_init__(self) -> None:
        for name in ("classes", "dim", "public_per_class", "pool_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"data.{name} must be >= 1, got {getattr(self, name)}")
        for name in ("spread", "public_spread"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"data.{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class IdxSpec:
    kind: ClassVar[str] = "idx"  # the config's ``data.kind``

    classes: int
    public_images: str = ""
    public_labels: str = ""
    pool_images: str = ""
    pool_labels: str = ""
    test_images: str = ""
    test_labels: str = ""

    def __post_init__(self) -> None:
        if self.classes < 1:
            raise ConfigError(f"data.classes must be >= 1, got {self.classes}")
        for f in fields(self)[1:]:  # the six file paths
            if not getattr(self, f.name):
                raise ConfigError(f"data.{f.name} must name an IDX file")


def _noniid_superclasses(mapping: dict[int, int]) -> int:
    supers = sorted(set(mapping.values()))
    if supers != list(range(len(supers))):
        raise ConfigError(f"superclass indices must be contiguous from 0, got {supers}")
    return len(supers)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: collaboration, data, partition and party models, checked when built.

    An invalid value raises ``ConfigError``, in ``replace`` too. ``architectures``
    (hidden widths, one tuple per party, required) is stored as int tuples.
    """

    collab: CollaborationConfig
    data: "BlobsSpec | IdxSpec" = field(default_factory=BlobsSpec)
    partition_mode: str = "iid"
    per_class: int = 3
    subclass_map: "dict[int, int] | None" = None
    architectures: tuple[tuple[int, ...], ...] = ()
    pooled: bool = True
    out_dir: "str | None" = None
    name: str = "experiment"

    def __post_init__(self) -> None:
        m = self.collab.parties
        archs = tuple(tuple(int(w) for w in a) for a in self.architectures)
        if len(archs) != m:
            raise ConfigError(f"{len(archs)} architectures for {m} parties")
        for a in archs:
            if any(w < 1 for w in a):
                raise ConfigError(f"hidden widths must be >= 1, got {a}")
        if self.partition_mode not in ("iid", "noniid"):
            raise ConfigError(f"unknown partition mode {self.partition_mode!r}")
        if self.partition_mode == "noniid":
            if not self.subclass_map:
                raise ConfigError("noniid partition requires subclass_map")
            _noniid_superclasses(self.subclass_map)
        elif self.subclass_map is not None:
            raise ConfigError("subclass_map requires a noniid partition")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        object.__setattr__(self, "architectures", archs)

    @property
    def seed(self) -> int:
        return self.collab.seed


def derive_seed(seed: int, tag: str) -> int:
    """Deterministic child seed for one named purpose."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


@dataclass
class TaskData:
    """Everything a run consumes: public set, per-party privates, shared test set."""

    public: Dataset
    privates: list[Dataset]
    test: Dataset  # its class count is the task's
    assignment: "tuple[dict[int, int], ...] | None" = None  # noniid: superclass -> subclass
    test_subclasses: "np.ndarray | None" = None  # noniid: original subclass of test rows


def build_task(cfg: ExperimentConfig) -> TaskData:
    """The run's public, private and test sets, drawn or loaded as ``cfg.data`` says.

    The pool is split among the parties with the config's own partition
    values; a noniid run relabels its test set with the superclasses of
    ``cfg.subclass_map``.
    """
    seed = cfg.seed
    spec = cfg.data
    num_supers = _noniid_superclasses(cfg.subclass_map) if cfg.partition_mode == "noniid" else None
    if isinstance(spec, BlobsSpec):
        public = synth_blobs(
            num_supers or spec.classes,
            spec.public_per_class,
            spec.dim,
            spec.public_spread if spec.public_spread is not None else spec.spread,
            derive_seed(seed, "public-task"),
        )
        pool = synth_blobs(
            spec.classes,
            spec.pool_per_class,
            spec.dim,
            spec.spread,
            derive_seed(seed, "private-task"),
            sample_stream=0,
        )
        test_pool = synth_blobs(
            spec.classes,
            spec.test_per_class,
            spec.dim,
            spec.spread,
            derive_seed(seed, "private-task"),
            sample_stream=1,
        )
    else:
        public = load_idx_dataset(spec.public_images, spec.public_labels, spec.classes)
        pool = load_idx_dataset(spec.pool_images, spec.pool_labels, spec.classes)
        test_pool = load_idx_dataset(spec.test_images, spec.test_labels, spec.classes)

    m, partition_seed = cfg.collab.parties, derive_seed(seed, "partition")
    if cfg.partition_mode == "iid":
        split = partition_iid(pool, m, cfg.per_class, partition_seed)
        return TaskData(public, list(split.parties), test_pool)
    split = partition_noniid(pool, m, cfg.per_class, partition_seed, cfg.subclass_map)
    test = to_superclass(test_pool, cfg.subclass_map, num_supers)
    return TaskData(
        public,
        list(split.parties),
        test,
        assignment=split.assignment,
        test_subclasses=test_pool.labels,
    )


def build_party(cfg: ExperimentConfig, task: TaskData, k: int) -> PartyState:
    """Party ``k`` of the run, with its architecture and private set, its network freshly drawn."""
    return make_party(k, cfg.architectures[k], task.privates[k], task.public.dim, task.test.num_classes, cfg.collab)


def build_parties(cfg: ExperimentConfig, task: TaskData) -> list[PartyState]:
    return [build_party(cfg, task, k) for k in range(cfg.collab.parties)]


def baseline_pooled(cfg: ExperimentConfig, task: TaskData, parties: list[PartyState]) -> list[MetricsRow]:
    """Per-architecture accuracy had every private set been declassified.

    Each party's post-public network (``pretrained``, kept by its transfer
    prologue) is copied and fitted by ``fit_private`` on the union of all
    private sets, with the party's own ``transfer-private`` stream; the copies
    train in one ``fit_and_measure`` call, phase ``pooled fit``, on the
    caller's thread. The public phase is not repeated; it would use the same
    streams and give the same network.
    """
    pooled_private = Dataset(
        np.concatenate([d.features for d in task.privates]),
        np.concatenate([d.labels for d in task.privates]),
        task.test.num_classes,
    )
    copies = []
    for party in sorted(parties, key=lambda p: p.id):
        if party.pretrained is None:
            raise ConfigError(f"party {party.id} has no post-public network; run its prologue first")
        copies.append(replace(party, net=party.pretrained.copy(), private=pooled_private))

    def fit(parties):
        fit_private(parties, cfg.collab)

    return fit_and_measure(copies, fit, task.test, POOLED, "pooled fit")


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(cfg: ExperimentConfig, transport_kind: str = "bus") -> tuple[MetricsLog, dict]:
    """Full run: baselines, P rounds, optional pooled upper bound, file emission."""
    task = build_task(cfg)
    return _run(cfg, task, build_parties(cfg, task), transport_kind)


def _run(cfg: ExperimentConfig, task: TaskData, parties: list[PartyState], transport_kind: str):
    """``run_fedmd`` over the built parties, then the pooled rows if ``cfg.pooled``; writes ``cfg.out_dir`` if set."""
    log = run_fedmd(cfg.collab, parties, task.public, task.test, transport_kind)
    if cfg.pooled:
        log.rows.extend(baseline_pooled(cfg, task, parties))
    log.config_hash = config_hash(cfg)
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

_COLLAB_KEYS = tuple(f.name for f in fields(CollaborationConfig))


# what a JSON value of each type is called in an error
_KINDS = {
    int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list", dict: "an object"
}


def _json(where: str, value, kind: type, optional: bool = False):
    """``value``, read from JSON, checked to be a ``kind`` or, if ``optional``, None; returns it.

    An int will do for a float; a bool is neither.
    """
    ok = isinstance(value, (int, float) if kind is float else kind)
    ok = ok and (kind is bool or not isinstance(value, bool))
    if not (ok or optional and value is None):
        raise ConfigError(f"{where} must be {_KINDS[kind]}{' or null' if optional else ''}, got {value!r}")
    return value


def _json_fields(cls, raw: dict, where: str = "") -> dict:
    """``raw``, with the value of each int, float, str or bool field of ``cls`` checked by ``_json``."""
    for f in fields(cls):
        if f.name in raw and f.type in _KINDS:
            _json(where + f.name, raw[f.name], f.type)
    return raw


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat JSON-ready dict of the effective config, every default included."""
    out = {k: getattr(cfg.collab, k) for k in _COLLAB_KEYS}
    out["weights"] = list(cfg.collab.weights)
    out["data"] = {**asdict(cfg.data), "kind": cfg.data.kind}
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
    """Build a config from a JSON-shaped dict, rejecting unknown keys and values of the wrong JSON type."""
    known_top = set(_COLLAB_KEYS) | {"data", "partition", "architectures", "pooled", "out_dir", "name"}
    for key in raw:
        if key not in known_top:
            raise ConfigError(f"unknown config key {key!r}")
    collab_kwargs = {k: raw[k] for k in _COLLAB_KEYS if k in raw}
    if "parties" not in collab_kwargs or "rounds" not in collab_kwargs:
        raise ConfigError("config must set at least 'parties' and 'rounds'")
    for i, w in enumerate(_json("weights", raw.get("weights"), list, optional=True) or ()):
        _json(f"weights[{i}]", w, float)
    collab = CollaborationConfig(**_json_fields(CollaborationConfig, collab_kwargs))

    data_raw = dict(_json("data", raw.get("data"), dict, optional=True) or {})
    kind = _json("data.kind", data_raw.pop("kind", "blobs"), str)
    spec = {c.kind: c for c in (BlobsSpec, IdxSpec)}.get(kind)
    if spec is None:
        raise ConfigError(f"unknown data kind {kind!r}")
    for key in data_raw:
        if key not in {f.name for f in fields(spec)}:
            raise ConfigError(f"unknown data key {key!r} for kind {kind!r}")
    if spec is IdxSpec and "classes" not in data_raw:
        raise ConfigError("idx data requires 'classes'")
    _json("data.public_spread", data_raw.get("public_spread"), float, optional=True)
    data = spec(**_json_fields(spec, data_raw, "data."))

    part_raw = dict(_json("partition", raw.get("partition"), dict, optional=True) or {})
    mode = part_raw.pop("mode", "iid")
    per_class = _json("partition.per_class", part_raw.pop("per_class", 3), int)
    sub_raw = _json("partition.subclass_map", part_raw.pop("subclass_map", None), dict, optional=True)
    if part_raw:
        raise ConfigError(f"unknown partition key {sorted(part_raw)[0]!r}")
    subclass_map = None
    if sub_raw is not None:
        if not all(str(k).isdigit() for k in sub_raw):
            raise ConfigError(f"partition.subclass_map keys must be subclass numbers, got {list(sub_raw)}")
        subclass_map = {int(k): _json(f"partition.subclass_map[{k!r}]", v, int) for k, v in sub_raw.items()}
    archs = _json("architectures", raw.get("architectures"), list, optional=True) or ()
    for i, arch in enumerate(archs):
        for j, width in enumerate(_json(f"architectures[{i}]", arch, list)):
            _json(f"architectures[{i}][{j}]", width, int)
    _json_fields(ExperimentConfig, raw)  # pooled, name

    return ExperimentConfig(
        collab=collab,
        data=data,
        partition_mode=mode,
        per_class=per_class,
        subclass_map=subclass_map,
        architectures=archs,
        pooled=raw.get("pooled", True),
        out_dir=_json("out_dir", raw.get("out_dir"), str, optional=True),
        name=raw.get("name", "experiment"),
    )


@dataclass
class NonIidProbe:
    """Per-party accuracy on subclasses the party never trained on."""

    pre_unseen: list[float]
    post_unseen: list[float]
    baseline: list[float]
    final: list[float]


def run_noniid_probe(cfg: ExperimentConfig, transport_kind: str = "bus") -> NonIidProbe:
    """Run a noniid experiment and measure never-seen-subclass accuracy before and after.

    "Before" is each party's network as its prologue left it (``transferred``).
    The run is ``run_experiment``'s, outputs included. A party that holds every
    subclass has none to be measured on: that is a ``ConfigError``, raised
    before any training.
    """
    if cfg.partition_mode != "noniid":
        raise ConfigError("the probe needs a noniid config")
    task = build_task(cfg)
    parties = build_parties(cfg, task)
    unseen_sets = []
    for k, assignment in enumerate(task.assignment):
        mask = ~np.isin(task.test_subclasses, sorted(set(assignment.values())))
        if not mask.any():
            raise ConfigError(f"party {k} holds every subclass, so it has no never-seen subclass to be probed on")
        unseen_sets.append(task.test.take(np.flatnonzero(mask)))
    log, _ = _run(cfg, task, parties, transport_kind)
    m = cfg.collab.parties
    pre = [nn.accuracy(p.transferred, unseen_sets[p.id]) for p in parties]
    post = [nn.accuracy(p.net, unseen_sets[p.id]) for p in parties]
    return NonIidProbe(
        pre_unseen=pre,
        post_unseen=post,
        baseline=[log.baseline_accuracy(k) for k in range(m)],
        final=[log.final_accuracy(k) for k in range(m)],
    )
