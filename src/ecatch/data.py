"""On-disk dataset format and in-memory container for pre-extracted embeddings.

Directory layout (all files required except image.f32):

* ``meta.json``      -- ``{"n_posts", "d_text", "d_img", "format_version": 1}``
* ``manifest.jsonl`` -- one object per post: ``{"id", "label", "timestamp",
  "has_image"}`` plus arbitrary extra fields; line k describes row k.
* ``text.f32``       -- n_posts x d_text float32, little-endian, row-major.
* ``image.f32``      -- n_posts x d_img float32; rows with has_image=false are
  ignored on read. If nothing exists at that path, every post is treated as
  image-absent; anything there that is not a regular file of the right size
  (a directory, say) raises ``DatasetError``.

Embeddings are stored as float32 but all in-memory computation is float64.
A loaded Dataset is immutable (arrays are marked read-only). Every missing or
malformed file raises ``DatasetError`` naming it. ``read_json`` reads every JSON
document the program takes from outside, here and in the modules above.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")
_MANIFEST_KEYS = ("id", "label", "timestamp", "has_image")
# Latest accepted timestamp (seconds). Window arithmetic adds a span to a
# timestamp in int64; this leaves about 4.6e18 s of headroom for it.
MAX_TIMESTAMP = 2**62


class DatasetError(ValueError):
    """Malformed dataset directory or invalid dataset operation."""


# How a top-level value of another type is reported, by the type asked for.
_WRONG_KIND = {dict: "is not a JSON object", list: "must be a JSON list"}
# What json.loads(text) calls, less its argument checks: one call a manifest line.
_decode = json.JSONDecoder().decode


def read_json(source: Path | str | bytes, where: str, error: type[Exception],
              kind: type = object):
    """The JSON ``kind`` in ``source`` (a file, or one document's text or bytes),
    or ``error`` with the prefix ``where``. Bytes must be UTF-8, where
    ``json.loads`` would also take UTF-16 and UTF-32.
    """
    try:
        if isinstance(source, Path):
            source = source.read_bytes()
        if isinstance(source, bytes):
            source = source.decode()
        value = _decode(source)
    # ValueError covers bad UTF-8 and bad JSON; RecursionError, deep nesting.
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{where}: {exc}") from exc
    if not isinstance(value, kind):
        raise error(f"{where} {_WRONG_KIND[kind]}")
    return value


class Dataset:
    """Ordered collection of posts backed by dense embedding matrices."""

    def __init__(
        self,
        ids: list[str],
        labels: np.ndarray,
        timestamps: np.ndarray,
        text: np.ndarray,
        image: np.ndarray,
        has_image: np.ndarray,
        extra: list[dict] | None = None,
        split: np.ndarray | None = None,
    ):
        self.ids = list(ids)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.text = np.asarray(text, dtype=np.float64)
        self.image = np.asarray(image, dtype=np.float64)
        self.has_image = np.asarray(has_image, dtype=bool)
        self.extra = extra if extra is not None else [{} for _ in ids]
        self.split = split
        for arr in (self.labels, self.timestamps, self.text, self.image, self.has_image):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def d_text(self) -> int:
        return self.text.shape[1]

    @property
    def d_img(self) -> int:
        return self.image.shape[1]

    def time_order(self, members) -> np.ndarray:
        """The post indices ``members`` sorted by (timestamp, index)."""
        idx = np.asarray(members, dtype=np.int64)
        return idx[np.lexsort((idx, self.timestamps[idx]))]

    # -- splits ----------------------------------------------------------
    def split_indices(self, name: str) -> np.ndarray:
        if self.split is None:
            raise DatasetError("splits have not been assigned")
        if name not in SPLIT_NAMES:
            raise DatasetError(f"unknown split {name!r}")
        return np.flatnonzero(self.split == SPLIT_NAMES.index(name))

    def train_mask(self) -> np.ndarray:
        if self.split is None:
            raise DatasetError("splits have not been assigned")
        return self.split == SPLIT_NAMES.index("train")

    def with_split(self, split: np.ndarray) -> "Dataset":
        split = np.asarray(split, dtype=np.int8)
        split.flags.writeable = False
        return Dataset(
            self.ids, self.labels, self.timestamps, self.text, self.image,
            self.has_image, self.extra, split,
        )


def _read_matrix(path: Path, n: int, d: int) -> np.ndarray:
    if not path.is_file():
        if os.path.lexists(path):
            raise DatasetError(f"{path.name} in {path.parent} is not a regular file")
        raise DatasetError(f"missing {path.name} in {path.parent}")
    expected = n * d * 4
    actual = path.stat().st_size
    if actual != expected:
        raise DatasetError(
            f"{path.name}: expected {expected} bytes for {n}x{d} float32, found {actual}"
        )
    raw = np.fromfile(path, dtype="<f4")
    return raw.reshape(n, d).astype(np.float64)


def _check_finite(mat: np.ndarray, rows: np.ndarray | None, name: str) -> None:
    sub = mat if rows is None else mat[rows]
    bad = ~np.isfinite(sub)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        if rows is not None:
            r = rows[r]
        raise DatasetError(f"{name}: non-finite value at ({int(r)}, {int(c)})")


def load_dataset(directory: str | Path) -> Dataset:
    """Load and validate a dataset directory; missing images become zero rows."""
    directory = Path(directory)
    meta = read_json(directory / "meta.json", "meta.json", DatasetError, dict)
    for key in ("n_posts", "d_text", "d_img", "format_version"):
        if key not in meta or isinstance(meta[key], bool) or not isinstance(meta[key], int):
            raise DatasetError(f"meta.json: missing or non-integer field {key!r}")
    if meta["format_version"] != FORMAT_VERSION:
        raise DatasetError(f"unsupported format_version {meta['format_version']}")
    n, d_text, d_img = meta["n_posts"], meta["d_text"], meta["d_img"]
    if n < 0 or d_text < 1 or d_img < 1:
        raise DatasetError("meta.json: n_posts must be >= 0 and dims positive")

    ids: list[str] = []
    labels: list[int] = []
    timestamps: list[int] = []
    has_image: list[bool] = []
    extra: list[dict] = []
    try:
        with (directory / "manifest.jsonl").open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                row = read_json(line, f"manifest line {lineno}", DatasetError, dict)
                if not isinstance(row.get("id"), str):
                    raise DatasetError(f"manifest line {lineno}: id must be a string")
                label = row.get("label")
                if isinstance(label, bool) or label not in (0, 1):
                    raise DatasetError(f"manifest line {lineno}: label must be 0 or 1")
                ts = row.get("timestamp")
                if isinstance(ts, bool) or not isinstance(ts, int) or ts < 0:
                    raise DatasetError(
                        f"manifest line {lineno}: timestamp must be a non-negative integer"
                    )
                if ts > MAX_TIMESTAMP:
                    raise DatasetError(
                        f"manifest line {lineno}: timestamp {ts} exceeds 2**62, beyond "
                        f"which window arithmetic may overflow int64"
                    )
                if not isinstance(row.get("has_image"), bool):
                    raise DatasetError(f"manifest line {lineno}: has_image must be a bool")
                ids.append(row["id"])
                labels.append(int(label))
                timestamps.append(ts)
                has_image.append(row["has_image"])
                extra.append({k: v for k, v in row.items() if k not in _MANIFEST_KEYS})
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"manifest.jsonl: {exc}") from exc
    if len(ids) != n:
        raise DatasetError(f"manifest has {len(ids)} rows but meta declares {n}")
    if len(set(ids)) != len(ids):
        dup = min(i for i, count in Counter(ids).items() if count > 1)
        raise DatasetError(f"duplicate post id {dup!r}")

    text = _read_matrix(directory / "text.f32", n, d_text)
    _check_finite(text, None, "text.f32")

    has_image_arr = np.asarray(has_image, dtype=bool)
    image_path = directory / "image.f32"
    if os.path.lexists(image_path):
        image = _read_matrix(image_path, n, d_img)
        present = np.flatnonzero(has_image_arr)
        _check_finite(image, present, "image.f32")
        image[~has_image_arr] = 0.0
    else:
        # No image matrix at all: every post is treated as image-absent.
        image = np.zeros((n, d_img), dtype=np.float64)
        has_image_arr = np.zeros(n, dtype=bool)

    return Dataset(ids, np.asarray(labels), np.asarray(timestamps), text, image,
                   has_image_arr, extra)


def write_dataset(ds: Dataset, directory: str | Path, force: bool = False) -> None:
    """Write ``ds`` in the directory layout accepted by :func:`load_dataset`."""
    directory = Path(directory)
    if directory.exists() and any(directory.iterdir()) and not force:
        raise DatasetError(f"refusing to write into non-empty directory {directory}")
    directory.mkdir(parents=True, exist_ok=True)

    meta = {
        "n_posts": ds.n,
        "d_text": ds.d_text,
        "d_img": ds.d_img,
        "format_version": FORMAT_VERSION,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    with (directory / "manifest.jsonl").open("w") as fh:
        for i in range(ds.n):
            row = {
                "id": ds.ids[i],
                "label": int(ds.labels[i]),
                "timestamp": int(ds.timestamps[i]),
                "has_image": bool(ds.has_image[i]),
            }
            for k in sorted(ds.extra[i]):
                row[k] = ds.extra[i][k]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    ds.text.astype("<f4").tofile(directory / "text.f32")
    image = np.where(ds.has_image[:, None], ds.image, 0.0)
    image.astype("<f4").tofile(directory / "image.f32")


def assign_splits(
    ds: Dataset,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> Dataset:
    """Deterministic random train/val/test assignment.

    Sizes are floor(f*N) for val and test; the remainder goes to train.
    """
    if ds.n == 0:
        raise DatasetError("cannot split an empty dataset")
    if any(f <= 0 for f in fractions):
        raise DatasetError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError(f"split fractions must sum to 1, got {sum(fractions)}")

    n_val = int(np.floor(fractions[1] * ds.n))
    n_test = int(np.floor(fractions[2] * ds.n))
    n_train = ds.n - n_val - n_test

    perm = np.random.default_rng(seed).permutation(ds.n)
    split = np.empty(ds.n, dtype=np.int8)
    split[perm[:n_train]] = 0
    split[perm[n_train:n_train + n_val]] = 1
    split[perm[n_train + n_val:]] = 2
    return ds.with_split(split)
