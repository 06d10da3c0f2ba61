"""Datasets: IDX ingestion, synthetic blob tasks, the partitioners that pick each party's rows, and the superclass relabel."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IdxParseError

IDX_TYPE_U8 = 0x08


@dataclass(frozen=True)
class Dataset:
    """A labeled feature matrix. Immutable after construction; safe to share."""

    features: np.ndarray  # [N, d] float32
    labels: np.ndarray  # [N] int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ConfigError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigError(f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def _read_be32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise IdxParseError("truncated header", len(data))
    return int.from_bytes(data[offset : offset + 4], "big")


def parse_idx(data: bytes) -> np.ndarray:
    """Decode one IDX byte stream into an array with the declared shape.

    Header: two zero bytes, a type code (only 0x08 unsigned byte is accepted),
    a dimension count, then one big-endian u32 size per dimension. Payloads
    with two or more dimensions are treated as images and scaled to [0, 1]
    by /255; 1-d payloads (label files) keep their raw values.
    """
    if len(data) < 4:
        raise IdxParseError("stream shorter than the 4-byte magic", len(data))
    if data[0] != 0 or data[1] != 0:
        raise IdxParseError(f"bad magic prefix {data[0]:#04x}{data[1]:02x}", 0)
    if data[2] != IDX_TYPE_U8:
        raise IdxParseError(f"unsupported type code {data[2]:#04x}", 2)
    ndim = data[3]
    if ndim == 0:
        raise IdxParseError("zero dimensions", 3)
    dims = []
    for i in range(ndim):
        size = _read_be32(data, 4 + 4 * i)
        if size == 0:
            raise IdxParseError(f"dimension {i} is zero", 4 + 4 * i)
        dims.append(size)
    start = 4 + 4 * ndim
    count = 1
    for size in dims:
        count *= size
    if len(data) - start < count:
        raise IdxParseError(
            f"payload needs {count} bytes but only {len(data) - start} remain", len(data)
        )
    if len(data) - start > count:
        raise IdxParseError("trailing bytes after payload", start + count)
    raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=start).reshape(dims)
    values = raw.astype(np.float32)
    if ndim >= 2:
        values /= 255.0
    return values


def load_idx_dataset(images_path: str, labels_path: str, num_classes: int) -> Dataset:
    """Read an IDX image/label file pair and flatten images to feature rows; labels must lie in [0, num_classes)."""
    with open(images_path, "rb") as f:
        images = parse_idx(f.read())
    with open(labels_path, "rb") as f:
        labels = parse_idx(f.read())
    if images.ndim < 2:
        raise ConfigError(f"{images_path} holds a 1-d payload, expected images")
    if labels.ndim != 1:
        raise ConfigError(f"{labels_path} holds a {labels.ndim}-d payload, expected labels")
    labels = labels.astype(np.int64)
    if labels.max() >= num_classes:
        raise ConfigError(f"{labels_path} holds label {labels.max()}; labels must lie in [0, {num_classes})")
    return Dataset(images.reshape(images.shape[0], -1), labels, num_classes)


def synth_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int,
    sample_stream: int = 0,
) -> Dataset:
    """Gaussian clusters around class centers drawn on the radius-4 hypersphere.

    Centers depend only on ``seed``; sample noise additionally depends on
    ``sample_stream``, so disjoint held-out draws from the same task use the
    same seed with a different stream.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ConfigError("num_classes, per_class and dim must all be >= 1")
    if spread <= 0:
        raise ConfigError(f"spread must be positive, got {spread}")
    center_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 1, sample_stream]))
    g = center_rng.standard_normal((num_classes, dim))
    centers = 4.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
    feats = np.empty((num_classes * per_class, dim), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        noise = sample_rng.standard_normal((per_class, dim))
        feats[c * per_class : (c + 1) * per_class] = (centers[c] + spread * noise).astype(
            np.float32
        )
        labels[c * per_class : (c + 1) * per_class] = c
    return Dataset(feats, labels, num_classes)


def partition_iid(source: Dataset, parties: int, per_class: int, seed: int) -> list[np.ndarray]:
    """Disjoint label-balanced picks: each party's rows of ``source``, exactly ``per_class`` of each class.

    ``parties`` and ``per_class`` come from a checked config (both >= 1);
    only the source is checked here.
    """
    m, n = parties, per_class
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    per_party: list[list[np.ndarray]] = [[] for _ in range(m)]
    for c in range(source.num_classes):
        rows = np.flatnonzero(source.labels == c)
        if len(rows) < m * n:
            raise ConfigError(
                f"class {c} has {len(rows)} samples, need {m * n} for {m} parties x {n}"
            )
        rows = rows[rng.permutation(len(rows))]
        for k in range(m):
            per_party[k].append(rows[k * n : (k + 1) * n])
    return [np.concatenate(chunks) for chunks in per_party]


def partition_noniid(
    source: Dataset, parties: int, per_class: int, seed: int, mapping: dict[int, int]
) -> tuple[list[np.ndarray], tuple[dict[int, int], ...]]:
    """Give each party one distinct subclass per superclass: its rows of ``source`` and its ``assignment``.

    ``mapping`` sends each subclass to its superclass, and ``assignment[k]``
    sends each superclass to party ``k``'s subclass of it. Assignment is seeded
    round-robin: within superclass ``s`` whose sorted subclasses are ``subs``,
    party ``k`` receives ``subs[(k + offset_s) % len(subs)]`` with a seeded
    per-superclass offset, then ``per_class`` rows of that subclass. The rows
    carry subclass labels; ``to_superclass`` relabels them and checks that
    ``mapping`` covers them. ``parties`` and ``per_class`` come from a checked
    config (both >= 1); the source is checked here.
    """
    supers = sorted(set(mapping.values()))  # 0..S-1, checked with the config
    m, n = parties, per_class
    groups = {s: sorted(sub for sub, sp in mapping.items() if sp == s) for s in supers}
    for s, subs in groups.items():
        if len(subs) < m:
            raise ConfigError(
                f"superclass {s} has {len(subs)} subclasses, cannot cover {m} parties"
            )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    assignment: list[dict[int, int]] = [{} for _ in range(m)]
    chosen_rows: list[list[np.ndarray]] = [[] for _ in range(m)]
    for s in supers:
        subs = groups[s]
        offset = int(rng.integers(len(subs)))
        for k in range(m):
            sub = subs[(k + offset) % len(subs)]
            assignment[k][s] = sub
        # draw after assigning so every party sees the same offset stream
        for k in range(m):
            sub = assignment[k][s]
            rows = np.flatnonzero(source.labels == sub)
            if len(rows) < n:
                raise ConfigError(f"subclass {sub} has {len(rows)} samples, need {n}")
            chosen_rows[k].append(rows[rng.permutation(len(rows))[:n]])
    return [np.concatenate(r) for r in chosen_rows], tuple(assignment)


def to_superclass(ds: Dataset, mapping: dict[int, int], num_superclasses: int) -> Dataset:
    """Relabel a subclass-labeled dataset with its superclass indices; ``mapping`` must cover its subclasses."""
    lut = np.full(ds.num_classes, -1, dtype=np.int64)
    for sub, sup in mapping.items():
        if 0 <= sub < ds.num_classes:
            lut[sub] = sup
    labels = lut[ds.labels]
    missing = np.unique(ds.labels[labels < 0])
    if missing.size:
        raise ConfigError(f"subclass_map does not cover subclasses {missing.tolist()}")
    return Dataset(ds.features, labels, num_superclasses)
