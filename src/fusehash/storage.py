"""On-disk formats: AMFH binary files, CSV import, and bundle directories.

Every AMFH file is magic ``b"AMFH"``, a u8 kind tag, a u16 format version,
a kind-specific little-endian payload, and a trailing CRC-32 over all
preceding bytes. Loads verify magic, kind, version, and checksum before
touching the payload, so a truncated or mangled file is rejected whole.
Writes go through a temporary file that replaces the target only once it
is complete, so an interrupted write never clobbers an existing file.

Types check themselves when built, so storing only serializes; loading turns
a value their constructors reject into a ``CorruptFileError`` naming the file.

Code and center files store each code as ``ceil(r/8)`` packed bytes with
zero padding bits; a set padding bit rejects the file. ``load_codes``
returns a read-only ``CodeMatrix`` that keeps those bytes for ranking.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .centers import HashCenterTable
from .exceptions import CorruptFileError, InvalidParameterError, NumericalError, ShapeError
from .kernel import AnchorSet
from .packing import CodeMatrix, _code_matrix, pack_codes, unpack_codes
from .synth import DatasetBundle
from .training import TrainedModel

MAGIC = b"AMFH"
FORMAT_VERSION = 1
KIND_FEATURES = 1
KIND_CODES = 2
KIND_MODEL = 3
KIND_CENTERS = 4

_HEADER = struct.Struct("<BH")  # kind, version; follows the 4 magic bytes
_CRC = struct.Struct("<I")


class _Cursor:
    """Sequential little-endian reader that rejects out-of-bounds access.

    Reads a ``memoryview``, so taking a chunk copies nothing; arrays are
    copied once, out of the file's bytes.
    """

    def __init__(self, buf: memoryview, path):
        self.buf = buf
        self.path = path  # named by every error
        self.pos = 0

    def take(self, count: int) -> memoryview:
        end = self.pos + count
        if count < 0 or end > len(self.buf):
            raise CorruptFileError(f"{self.path}: payload shorter than its declared contents")
        chunk = self.buf[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, *shape: int) -> np.ndarray:
        """An array of ``shape``. An empty one can declare a side too long
        for numpy, which rejects the file."""
        data = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8").copy()
        try:
            return data.reshape(shape)
        except ValueError as exc:
            raise CorruptFileError(f"{self.path}: array shape {shape} too large") from exc

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise CorruptFileError(f"{self.path}: payload longer than its declared contents")


def _write_file(path, kind: int, *parts) -> None:
    """Write an AMFH file through a flushed temporary file renamed over ``path``.

    ``parts`` are the payload's bytes-like pieces in order (C-contiguous
    arrays included); each is checksummed and written where it lies, so the
    payload is never joined into one copy.
    """
    head = MAGIC + _HEADER.pack(kind, FORMAT_VERSION)
    crc = zlib.crc32(head)
    for part in parts:
        crc = zlib.crc32(part, crc)
    target = Path(path)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as file:
            for part in (head, *parts, _CRC.pack(crc & 0xFFFFFFFF)):
                file.write(part)
            file.flush()
            os.fsync(file.fileno())
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _checked_payload(blob: bytes, kind: int, path) -> memoryview:
    """The payload of a verified file, as a view into ``blob``."""
    head = len(MAGIC) + _HEADER.size
    if len(blob) < head + _CRC.size:
        raise CorruptFileError(f"{path}: too short to be a valid file")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptFileError(f"{path}: bad magic bytes")
    view = memoryview(blob)
    (stored,) = _CRC.unpack(view[-_CRC.size :])
    if zlib.crc32(view[: -_CRC.size]) & 0xFFFFFFFF != stored:
        raise CorruptFileError(f"{path}: checksum mismatch")
    file_kind, version = _HEADER.unpack(blob[len(MAGIC) : head])
    if file_kind != kind:
        raise CorruptFileError(f"{path}: kind tag {file_kind}, expected {kind}")
    if version != FORMAT_VERSION:
        raise CorruptFileError(f"{path}: unsupported format version {version}")
    return view[head : -_CRC.size]


def _read_file(path, kind: int) -> _Cursor:
    """A cursor over the payload of the verified file at ``path``."""
    return _Cursor(_checked_payload(Path(path).read_bytes(), kind, path), path)


def store_features(matrix, path) -> None:
    """Write a (d, n) feature matrix as a kind-1 AMFH file."""
    data = np.ascontiguousarray(matrix, dtype="<f8")  # a C-order float64 matrix is not copied
    if data.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {data.shape}")
    _write_file(path, KIND_FEATURES, struct.pack("<QQ", *data.shape), data)


def _load_csv(path) -> np.ndarray:
    # One sample per row; transposed so samples become columns.
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise CorruptFileError(f"{path}: neither an AMFH file nor parseable CSV") from exc
    return rows.T.copy()


def load_features(path) -> np.ndarray:
    """Read a kind-1 AMFH file, or fall back to CSV when the magic is absent."""
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        return _load_csv(path)
    cur = _Cursor(_checked_payload(blob, KIND_FEATURES, path), path)
    data = cur.f64_array(cur.u64(), cur.u64())
    cur.done()
    return data


def store_codes(codes, path) -> None:
    """Write a sign-code matrix as a kind-2 AMFH file, one packed column at a time."""
    packed = pack_codes(codes)  # validates shape and the {-1, +1} alphabet
    header = struct.pack("<QQ", *np.shape(codes))
    _write_file(path, KIND_CODES, header, np.ascontiguousarray(packed.T))


def _packed_columns(cur: _Cursor, code_length: int, count: int) -> np.ndarray:
    """Read ``count`` packed codes into an item-major ``(ceil(r/8), count)`` uint8 matrix.

    Packed distances are exact only if padding bits are zero, so a set
    padding bit in the last byte row rejects the file.
    """
    bytes_per_code = (code_length + 7) // 8
    raw = cur.take(bytes_per_code * count)
    cur.done()
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(count, bytes_per_code).copy().T
    if code_length % 8 and np.any(packed[-1] >> (code_length % 8)):
        raise CorruptFileError(f"{cur.path}: nonzero padding bits after code bit {code_length}")
    return packed


def load_codes(path) -> CodeMatrix:
    """Read a kind-2 AMFH file as a read-only :class:`~fusehash.packing.CodeMatrix`.

    The matrix carries the packed bytes it was read from, so packing it for
    ranking or storing costs nothing; arrays derived from it do not carry
    them. A file with a nonzero padding bit raises ``CorruptFileError``.
    """
    cur = _read_file(path, KIND_CODES)
    code_length = cur.u64()
    count = cur.u64()
    if code_length < 1:
        raise CorruptFileError(f"{path}: non-positive code length")
    return _code_matrix(_packed_columns(cur, code_length, count), code_length)


def store_centers(table: HashCenterTable, path) -> None:
    """Write a hash-center table as a kind-4 AMFH file."""
    header = struct.pack(
        "<QQQQB", *table.centers.shape, table.seed, table.hadamard_order, table.is_exact
    )
    _write_file(path, KIND_CENTERS, header, np.ascontiguousarray(pack_codes(table.centers).T))


def load_centers(path) -> HashCenterTable:
    """Read a kind-4 AMFH file. The header's Hadamard order and exactness
    flag must be the ones the columns' shape gives, or the file is corrupt."""
    cur = _read_file(path, KIND_CENTERS)
    code_length = cur.u64()
    num_categories = cur.u64()
    seed = cur.u64()
    declared = (cur.u64(), cur.u8())  # the Hadamard order and the exact flag
    if code_length < 1 or num_categories < 1:
        raise CorruptFileError(f"{path}: non-positive center dimensions")
    packed = _packed_columns(cur, code_length, num_categories)
    table = HashCenterTable(centers=unpack_codes(packed, code_length), seed=seed)
    derived = (table.hadamard_order, int(table.is_exact))
    if declared != derived:
        raise CorruptFileError(
            f"{path}: header gives Hadamard order and exact flag {declared}, "
            f"but {code_length} x {num_categories} centers give {derived}"
        )
    return table


def store_model(model: TrainedModel, path) -> None:
    """Write a trained model as a kind-3 AMFH file.

    The model checked itself when built, so this only serializes. The objective
    trace is training telemetry and is not persisted; loads return an empty trace.
    """
    num_anchors = model.projections[0].shape[1]
    parts = [
        struct.pack("<QQQd", model.num_modalities, model.code_length, num_anchors, model.delta),
        np.ascontiguousarray(model.train_weights, dtype="<f8"),
    ]
    for anchor_set, proj in zip(model.anchor_sets, model.projections):
        anchors = np.ascontiguousarray(anchor_set.anchors, dtype="<f8")
        parts.append(
            struct.pack("<QdQ", anchors.shape[0], anchor_set.kernel_width, anchor_set.seed)
        )
        parts.append(anchors)
        parts.append(np.ascontiguousarray(proj, dtype="<f8"))
    _write_file(path, KIND_MODEL, *parts)


def load_model(path) -> TrainedModel:
    """Read a kind-3 AMFH file. A model its constructors reject raises
    ``CorruptFileError`` naming the file."""
    cur = _read_file(path, KIND_MODEL)
    num_modalities = cur.u64()
    code_length = cur.u64()
    num_anchors = cur.u64()
    delta = cur.f64()
    weights = cur.f64_array(num_modalities)
    try:
        projections = []
        anchor_sets = []
        for m in range(num_modalities):
            dim = cur.u64()
            kernel_width = cur.f64()
            seed = cur.u64()
            anchors = cur.f64_array(dim, num_anchors)
            anchor_sets.append(AnchorSet(anchors, kernel_width, modality_index=m, seed=seed))
            projections.append(cur.f64_array(code_length, num_anchors))
        cur.done()
        return TrainedModel(projections, anchor_sets, weights, delta)
    except (InvalidParameterError, ShapeError, NumericalError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc


def store_bundle(bundle: DatasetBundle, directory) -> None:
    """Write a dataset bundle as a directory of AMFH and text files."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = [
        f"num_modalities={len(bundle.modalities)}",
        f"num_samples={bundle.num_samples}",
    ]
    (path / "manifest.txt").write_text("\n".join(manifest) + "\n")
    for m, mat in enumerate(bundle.modalities):
        store_features(mat, path / f"mod{m}.amfh")
    label_lines = [" ".join(str(c) for c in sorted(s)) for s in bundle.labels]
    (path / "labels.txt").write_text("\n".join(label_lines) + "\n")
    for name, indices in (
        ("train", bundle.train_indices),
        ("query", bundle.query_indices),
        ("retrieval", bundle.retrieval_indices),
    ):
        lines = "\n".join(str(int(i)) for i in indices)
        (path / f"split.{name}.txt").write_text(lines + "\n")


def read_manifest(directory) -> dict[str, int]:
    """The bundle's ``key=value`` manifest; ``num_modalities`` and
    ``num_samples`` are required and at least 1, other keys (older bundles carry
    ``num_classes``) are kept but unused."""
    path = Path(directory) / "manifest.txt"
    if not path.is_file():
        raise CorruptFileError(f"{directory}: missing manifest.txt")
    values: dict[str, int] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorruptFileError(f"{path}: malformed manifest line {line!r}")
        key, _, value = line.partition("=")
        try:
            values[key.strip()] = int(value.strip())
        except ValueError as exc:
            raise CorruptFileError(f"{path}: non-integer manifest value {line!r}") from exc
    for key in ("num_modalities", "num_samples"):
        if key not in values:
            raise CorruptFileError(f"{path}: manifest misses key {key!r}")
        if values[key] < 1:
            raise CorruptFileError(f"{path}: {key} must be at least 1, got {values[key]}")
    return values


def load_labels(path) -> list[set[int]]:
    """One sample per line, space-separated category indices."""
    sets: list[set[int]] = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        try:
            sets.append({int(tok) for tok in stripped.split()} if stripped else set())
        except ValueError as exc:
            raise CorruptFileError(f"{path}: malformed label line {line!r}") from exc
    return sets


def _load_split(path, num_samples: int) -> np.ndarray:
    """A split file's sample indices, each in ``[0, num_samples)``."""
    text = Path(path).read_text().split()
    try:
        indices = np.array([int(tok) for tok in text], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CorruptFileError(f"{path}: malformed split index") from exc
    outside = indices[(indices < 0) | (indices >= num_samples)]
    if outside.size:
        raise CorruptFileError(
            f"{path}: split index {outside[0]} outside [0, {num_samples})"
        )
    return indices


def load_bundle(directory) -> DatasetBundle:
    path = Path(directory)
    manifest = read_manifest(path)
    modalities = [
        load_features(path / f"mod{m}.amfh")
        for m in range(manifest["num_modalities"])
    ]
    labels = load_labels(path / "labels.txt")
    if len(labels) != manifest["num_samples"]:
        raise CorruptFileError(
            f"{directory}: manifest declares {manifest['num_samples']} samples, "
            f"labels.txt holds {len(labels)}"
        )
    for m, mat in enumerate(modalities):
        if mat.shape[1] != len(labels):
            raise CorruptFileError(
                f"{directory}: mod{m}.amfh holds {mat.shape[1]} samples, "
                f"expected {len(labels)}"
            )
    return DatasetBundle(
        modalities=modalities,
        labels=labels,
        train_indices=_load_split(path / "split.train.txt", len(labels)),
        query_indices=_load_split(path / "split.query.txt", len(labels)),
        retrieval_indices=_load_split(path / "split.retrieval.txt", len(labels)),
    )
