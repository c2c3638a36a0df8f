"""Chunked image store: the incremental-checkpoint file format.

A local snapshot's image is stored as a sequence of fixed-size chunks
described by a ``chunks.json`` manifest.  A **full** snapshot carries
the whole image (``image.pkl``) plus a manifest listing every chunk's
hash; a **delta** snapshot carries only the chunks that changed since
the base interval (``chunk_<i>.bin``) plus a manifest that still lists
*every* chunk's hash.

Deltas exist only as the provider side of content-addressed staging:
the staging coordinator ships a delta's present chunks into the store
(:func:`load_chunks`), and the chunks it does not hold are already
there from earlier intervals.  Every interval on stable storage is
therefore self-contained — a full image, or a manifest whose chunks all
live in the store — and no reader ever walks a chain of directories.

These helpers are shared by the CRS components (capture side) and the
FILEM/staging paths (ship and fetch side), so the format lives in
exactly one place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.simenv.kernel import SimGen
from repro.snapshot import pack_hashes, unpack_hashes
from repro.util.errors import RestartError, SnapshotError
from repro.vfs import path as vpath
from repro.vfs.fsbase import FS

CHUNK_MANIFEST = "chunks.json"
DEFAULT_CHUNK_BYTES = 64 * 1024

KIND_FULL = "full"
KIND_DELTA = "delta"


def chunk_filename(index: int) -> str:
    return f"chunk_{index:06d}.bin"


def split_chunks(blob: bytes, chunk_bytes: int) -> list[bytes]:
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    return [blob[i : i + chunk_bytes] for i in range(0, len(blob), chunk_bytes)] or [
        b""
    ]


def hash_chunk(chunk: bytes) -> str:
    return hashlib.sha256(chunk).hexdigest()




@dataclass
class ChunkManifest:
    """Contents of a snapshot directory's ``chunks.json``."""

    kind: str
    chunk_bytes: int
    total_bytes: int
    #: every chunk's hash at this interval (full image shape)
    hashes: list[str] = field(default_factory=list)
    #: chunk indices physically present in this directory
    present: list[int] = field(default_factory=list)
    #: interval this delta diffs against (None for full images)
    base_interval: int | None = None
    interval: int = 0

    @property
    def n_chunks(self) -> int:
        return len(self.hashes)

    def to_json(self) -> bytes:
        # Serialized by hand: asdict() deep-copies every hash string,
        # and JSON-encoding thousands of 64-char strings per manifest
        # dominates capture cost.  Hashes travel as one packed hex
        # string; a full image's ``present`` (the whole range) packs to
        # null.
        present: "list[int] | None" = self.present
        if present == list(range(len(self.hashes))):
            present = None
        return json.dumps(
            {
                "kind": self.kind,
                "chunk_bytes": self.chunk_bytes,
                "total_bytes": self.total_bytes,
                "hashes": pack_hashes(self.hashes),
                "present": present,
                "base_interval": self.base_interval,
                "interval": self.interval,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_json(cls, raw: bytes) -> "ChunkManifest":
        try:
            data = json.loads(raw.decode())
            data["hashes"] = unpack_hashes(data.get("hashes", []))
            if data.get("present") is None:
                data["present"] = list(range(len(data["hashes"])))
            return cls(**data)
        except (ValueError, TypeError, KeyError) as exc:
            raise SnapshotError(f"bad chunk manifest: {exc}") from exc


def manifest_path(snapshot_dir: str) -> str:
    return vpath.join(snapshot_dir, CHUNK_MANIFEST)


def write_manifest(fs: FS, snapshot_dir: str, manifest: ChunkManifest) -> SimGen:
    yield from fs.write(manifest_path(snapshot_dir), manifest.to_json())
    return manifest


def read_manifest(fs: FS, snapshot_dir: str) -> SimGen:
    raw = yield from fs.read(manifest_path(snapshot_dir))
    return ChunkManifest.from_json(raw)


def read_image(fs: FS, snapshot_dir: str, image_file: str) -> SimGen:
    """Read a full snapshot directory's image bytes.

    The manifest is read first and its ``total_bytes`` checked against
    the image, so a truncated image fails here rather than in the
    unpickler.  Raises :class:`RestartError` for a delta directory:
    its clean chunks live in the content-addressed store, never next to
    it, so it can be restored only through a CAS fetch.
    """
    manifest = yield from read_manifest(fs, snapshot_dir)
    if manifest.kind != KIND_FULL:
        raise RestartError(
            f"{snapshot_dir} holds a {manifest.kind} image, not a full one"
        )
    blob = yield from fs.read(vpath.join(snapshot_dir, image_file))
    if len(blob) != manifest.total_bytes:
        raise RestartError(
            f"image at {snapshot_dir} is {len(blob)} bytes, manifest says "
            f"{manifest.total_bytes}"
        )
    return blob


def diff_chunks(hashes: list[str], base_hashes: list[str]) -> list[int]:
    """Indices of chunks that differ from (or extend past) the base."""
    return [
        i
        for i, digest in enumerate(hashes)
        if i >= len(base_hashes) or base_hashes[i] != digest
    ]


def write_delta(
    fs: FS,
    snapshot_dir: str,
    chunks: list[bytes],
    hashes: list[str],
    dirty: list[int],
    chunk_bytes: int,
    interval: int,
    base_interval: int,
) -> SimGen:
    """Write only the dirty chunks plus the manifest; returns manifest.

    The write cost is proportional to the dirty bytes — the point of
    incremental checkpointing.
    """
    total = sum(len(c) for c in chunks)
    for index in dirty:
        yield from fs.write(
            vpath.join(snapshot_dir, chunk_filename(index)), chunks[index]
        )
    manifest = ChunkManifest(
        kind=KIND_DELTA,
        chunk_bytes=chunk_bytes,
        total_bytes=total,
        hashes=list(hashes),
        present=sorted(dirty),
        base_interval=base_interval,
        interval=interval,
    )
    yield from write_manifest(fs, snapshot_dir, manifest)
    return manifest


def write_full_manifest(
    fs: FS,
    snapshot_dir: str,
    chunk_bytes: int,
    total_bytes: int,
    hashes: list[str],
    interval: int,
) -> SimGen:
    manifest = ChunkManifest(
        kind=KIND_FULL,
        chunk_bytes=chunk_bytes,
        total_bytes=total_bytes,
        hashes=list(hashes),
        present=list(range(len(hashes))),
        base_interval=None,
        interval=interval,
    )
    yield from write_manifest(fs, snapshot_dir, manifest)
    return manifest


def load_chunks(
    fs: FS,
    snapshot_dir: str,
    manifest: ChunkManifest,
    indices: list[int],
    image_file: str,
) -> SimGen:
    """Read selected chunk payloads out of one snapshot directory.

    Full directories store the image as a single file, so it is read
    once and sliced per the manifest's geometry; delta directories
    store individual chunk files and can only serve the indices listed
    in ``manifest.present``.  Returns ``{index: bytes}``.  This is the
    provider side of the CAS ship protocol.
    """
    want = sorted(set(indices))
    payloads: dict[int, bytes] = {}
    if not want:
        return payloads
    if manifest.kind == KIND_FULL:
        blob = yield from fs.read(vpath.join(snapshot_dir, image_file))
        chunks = split_chunks(blob, manifest.chunk_bytes)
        for index in want:
            if index >= len(chunks):
                raise SnapshotError(
                    f"chunk {index} out of range for {snapshot_dir}"
                )
            payloads[index] = chunks[index]
        return payloads
    present = set(manifest.present)
    for index in want:
        if index not in present:
            raise SnapshotError(
                f"chunk {index} not present in delta {snapshot_dir}"
            )
        payloads[index] = yield from fs.read(
            vpath.join(snapshot_dir, chunk_filename(index))
        )
    return payloads
