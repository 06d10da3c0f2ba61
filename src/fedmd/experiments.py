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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import ClassVar, get_args, get_origin, get_type_hints

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
class Partition:
    """The pool's split: ``per_class`` rows of each class per party; ``noniid`` classes are ``subclass_map``'s."""

    mode: str = "iid"
    per_class: int = 3
    subclass_map: "dict[int, int] | None" = None

    def __post_init__(self) -> None:
        if self.mode not in ("iid", "noniid"):
            raise ConfigError(f"unknown partition mode {self.mode!r}")
        if self.mode == "noniid":
            if not self.subclass_map:
                raise ConfigError("noniid partition requires subclass_map")
            _noniid_superclasses(self.subclass_map)
        elif self.subclass_map is not None:
            raise ConfigError("subclass_map requires a noniid partition")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: collaboration, data, partition and party models, checked when built.

    An invalid value raises ``ConfigError``, in ``replace`` too. ``architectures``
    (hidden widths, one tuple per party, required) is stored as int tuples.
    """

    collab: CollaborationConfig
    data: "BlobsSpec | IdxSpec" = field(default_factory=BlobsSpec)
    partition: Partition = field(default_factory=Partition)
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
        object.__setattr__(self, "architectures", archs)


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

    The partitioner picks each party's rows of the pool as ``cfg.partition``
    says. A noniid run relabels the pool and the test set with the
    superclasses of its ``subclass_map`` (the pool first, so an uncovered
    subclass is the first refusal) and scores on superclasses.
    """
    seed = cfg.collab.seed
    spec, part = cfg.data, cfg.partition
    num_supers = _noniid_superclasses(part.subclass_map) if part.mode == "noniid" else None
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
        public = load_idx_dataset(spec.public_images, spec.public_labels, num_supers or spec.classes)
        pool = load_idx_dataset(spec.pool_images, spec.pool_labels, spec.classes)
        test_pool = load_idx_dataset(spec.test_images, spec.test_labels, spec.classes)
        for split, d in (("pool", pool), ("test", test_pool)):
            if d.dim != public.dim:
                raise ConfigError(f"data.{split}_images hold {d.dim} values per image, data.public_images {public.dim}")

    m, partition_seed = cfg.collab.parties, derive_seed(seed, "partition")
    if part.mode == "iid":
        rows = partition_iid(pool, m, part.per_class, partition_seed)
        return TaskData(public, [pool.take(r) for r in rows], test_pool)
    relabeled = to_superclass(pool, part.subclass_map, num_supers)
    rows, assignment = partition_noniid(pool, m, part.per_class, partition_seed, part.subclass_map)
    return TaskData(
        public,
        [relabeled.take(r) for r in rows],
        to_superclass(test_pool, part.subclass_map, num_supers),
        assignment=assignment,
        test_subclasses=test_pool.labels,
    )


def build_parties(cfg: ExperimentConfig, task: TaskData) -> list[PartyState]:
    return [make_party(k, cfg.architectures[k], task.privates[k], cfg.collab) for k in range(cfg.collab.parties)]


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
    summary = {
        **summarize(log),
        "config_hash": config_hash(cfg),
        "seed": cfg.collab.seed,
        "name": cfg.name,
        "version": __version__,
        "config": config_to_dict(cfg),
    }
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


# --- config (de)serialization: one JSON object per config class, one key per field ---

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


def _read(cls, raw: dict, where: str, **given):
    """A ``cls`` from the JSON object ``raw`` at ``where`` (``""``, ``"data."``, ...), each value read by ``_value``.

    ``given`` holds fields already built; every other field without a default must be set.
    """
    name = where[:-1] or "config"
    hints = get_type_hints(cls)
    own = [f for f in fields(cls) if f.name not in given]
    for key in raw:
        if key not in {f.name for f in own}:
            kind = f" for kind {cls.kind!r}" if hasattr(cls, "kind") else ""
            raise ConfigError(f"unknown {name} key {key!r}{kind}")
    required = [f.name for f in own if f.default is MISSING and f.default_factory is MISSING]
    if not raw.keys() >= set(required):
        raise ConfigError(f"{name} must set {' and '.join(map(repr, required))}")
    return cls(**given, **{key: _value(where + key, value, hints[key]) for key, value in raw.items()})


def _value(where: str, value, hint):
    """``value``, read from JSON at ``where``, checked against the field type ``hint`` and built as one.

    A config class is read from an object or null (all defaults), a union of spec classes by
    ``kind`` (the first by default), a tuple from a list, a subclass map from number keys.
    """
    args = get_args(hint)
    if is_dataclass(hint) or args and all(map(is_dataclass, args)):
        raw = dict(_json(where, value, dict, optional=True) or {})
        if args:
            kind = _json(f"{where}.kind", raw.pop("kind", args[0].kind), str)
            hint = next((c for c in args if c.kind == kind), None)
            if hint is None:
                raise ConfigError(f"unknown {where} kind {kind!r}")
        return _read(hint, raw, where + ".")
    optional = type(None) in args
    if optional:  # ``X | None``
        hint, args = args[0], get_args(args[0])
    kind = get_origin(hint) or hint
    if _json(where, value, list if kind is tuple else kind, optional) is None:
        return None
    if kind is tuple:
        return tuple(_value(f"{where}[{i}]", v, args[0]) for i, v in enumerate(value))
    if kind is dict:
        if not all(str(k).isdecimal() for k in value):
            raise ConfigError(f"{where} keys must be subclass numbers, got {list(value)}")
        keys = {}
        for k in value:
            if keys.setdefault(int(k), k) != k:
                raise ConfigError(f"{where} keys {keys[int(k)]!r} and {k!r} both name subclass {int(k)}")
        return {int(k): _value(f"{where}[{k!r}]", v, args[1]) for k, v in value.items()}
    return value


def _to_json(value):
    """``value`` as ``_value`` reads it: a config class as an object (a spec's ``kind`` included), a tuple as a list."""
    if is_dataclass(value):
        out = {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
        return {**out, "kind": value.kind} if hasattr(value, "kind") else out
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v for k, v in sorted(value.items())}
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat JSON-ready dict of the effective config, every default included; ``config_from_dict`` reads it back."""
    out = _to_json(cfg)
    return {**out.pop("collab"), **out}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """A config from a JSON-shaped dict (``collab``'s fields at its top level), refusing unknown keys and types."""
    own = {f.name for f in fields(ExperimentConfig)} - {"collab"}
    collab = _read(CollaborationConfig, {k: v for k, v in raw.items() if k not in own}, "")
    return _read(ExperimentConfig, {k: v for k, v in raw.items() if k in own}, "", collab=collab)


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
    if cfg.partition.mode != "noniid":
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
