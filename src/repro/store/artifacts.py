"""The content-addressed artifact store: one persistent disk tier.

Artifacts live on disk, one file per artifact under a root directory
selected by ``REPRO_STORE`` (or the CLI's ``--store``).  Without a root
the store is disabled: every get misses and every put is dropped, so
each stage computes its value.  There is no in-process memo: a value is
reused across runs, pool workers and repeated calls in one process only
through the disk tier.

Keys are :class:`ArtifactKey` values — ``(stage, data fingerprint, config
fingerprint, schema version)``.  The disk layout shards by digest::

    <root>/<stage>/<digest[:2]>/<digest>.npz

The ``.npz`` suffix is a historical name: the file is the store's own
flat container, not a zip archive.  Its layout:

* an 8-byte magic, :data:`CONTAINER_MAGIC`, whose last two bytes are the
  format version (major, minor);
* the JSON header's length in bytes, a little-endian uint64;
* the JSON header: the full key (``schema``, ``stage``, ``data_fp``,
  ``config_fp``), the codec's ``meta``, and ``arrays``, one
  ``[name, dtype, shape, offset, nbytes]`` entry per payload array;
* the raw C-order bytes of each array, each starting on a 64-byte
  boundary; ``offset`` counts from the first boundary after the header.

:meth:`ArtifactStore.get` reads a file once and decodes its arrays as
read-only ``np.frombuffer`` views of those bytes; :meth:`headers` reads
the magic and the header only.  A header that does not match the
requesting key (schema bump, hash collision across layouts) is rejected
as *stale* and the value recomputed.  A file that is not this container
— a bad magic (e.g. an npz file an earlier layout wrote), a header or an
array extent past the end of the file, an unreadable header — is a
*corrupt* miss, counted under ``store.<stage>.corrupt``, recomputed and
overwritten, never misread.

Disk writes are atomic so parallel pool workers can write the same
artifact concurrently: a put builds the whole container in memory,
writes it in one go to a fresh ``.tmp-*`` sibling and ``os.replace``-s
that onto the artifact's path, so readers never see a torn file.
Object and structured dtypes are refused at put (no pickles on disk).

Store failures never fail a run: the disk tier is an accelerator, and
every exception on its path degrades to "compute it again".
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Container, Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.store.codecs import get_codec
from repro.store.fingerprint import STORE_SCHEMA

__all__ = [
    "CONTAINER_MAGIC",
    "STORE_ENV_VAR",
    "ArtifactKey",
    "ArtifactStore",
    "default_store",
]

#: Directory of the persistent disk tier; unset/empty = store disabled.
STORE_ENV_VAR = "REPRO_STORE"

#: First bytes of every artifact file: ``\x93REPRO`` then the container
#: format version 1.0.
CONTAINER_MAGIC = b"\x93REPRO\x01\x00"

#: Magic plus the header-length field.
_PREFIX = len(CONTAINER_MAGIC) + 8

#: Byte alignment of the array section and of each array in it.
_ALIGN = 64

#: Dtype kinds never written: objects (pickles) and structured records.
_REFUSED_KINDS = "OV"


@dataclass(frozen=True)
class ArtifactKey:
    """Content address of one stage artifact."""

    stage: str
    data_fp: str
    config_fp: str
    schema: str = STORE_SCHEMA

    def digest(self) -> str:
        """Filename-safe digest of the full key."""
        payload = f"{self.schema}|{self.stage}|{self.data_fp}|{self.config_fp}"
        return hashlib.blake2b(payload.encode(), digest_size=20).hexdigest()


class ArtifactStore:
    """Disk-backed get/put keyed by :class:`ArtifactKey`.

    Parameters
    ----------
    root:
        Disk-tier directory; ``None`` disables the store.
    """

    def __init__(self, root: "Optional[str | os.PathLike]" = None) -> None:
        self.root = Path(root) if root else None

    @property
    def persistent(self) -> bool:
        """Whether a disk tier is configured."""
        return self.root is not None

    # ----------------------------------------------------------------- paths
    def path_for(self, key: ArtifactKey) -> Optional[Path]:
        """Disk location of ``key``'s artifact (``None`` without a root)."""
        if self.root is None:
            return None
        digest = key.digest()
        return self.root.joinpath(key.stage, digest[:2], f"{digest}.npz")

    # ------------------------------------------------------------------- get
    def get(self, key: ArtifactKey) -> Optional[Any]:
        """Read ``key``'s artifact from disk; ``None`` on a miss.

        Misses include a disabled store, stale-schema and corrupt files,
        which are counted but never raised.
        """
        path = self.path_for(key)
        codec = get_codec(key.stage)
        if path is None or codec is None or not path.exists():
            return None
        try:
            header, arrays = _unpack(path.read_bytes())
            if (
                header.get("schema") != key.schema
                or header.get("stage") != key.stage
                or header.get("data_fp") != key.data_fp
                or header.get("config_fp") != key.config_fp
            ):
                obs.inc(f"store.{key.stage}.stale")
                return None
            value = codec.decode(arrays, header.get("meta"))
        except Exception:
            # Torn/truncated/foreign file: recompute rather than fail.
            obs.inc(f"store.{key.stage}.corrupt")
            return None
        obs.inc(f"store.{key.stage}.hit_disk")
        return value

    # ------------------------------------------------------------------ scan
    def headers(
        self, stage: str, skip: Container[Path] = ()
    ) -> Iterator[Tuple[Path, ArtifactKey, Any]]:
        """``(path, key, meta)`` of every readable ``stage`` artifact on disk.

        Reads only each file's header, never its arrays: the scan behind
        lookups by something other than the key (e.g. evidence bundles
        by their own fingerprints).  Paths in ``skip`` are not opened;
        unreadable files are passed over, as :meth:`get` would miss them.
        """
        if self.root is None:
            return
        for path in sorted((self.root / stage).glob("*/*.npz")):
            if path.name.startswith(".tmp-") or path in skip:
                continue
            try:
                header = _read_header(path)
                key = ArtifactKey(
                    stage=header["stage"],
                    data_fp=header["data_fp"],
                    config_fp=header["config_fp"],
                    schema=header["schema"],
                )
            except Exception:
                continue  # torn or foreign file: a miss for get() as well
            if key.stage == stage and key.schema == STORE_SCHEMA:
                yield path, key, header.get("meta")

    # ------------------------------------------------------------------- put
    def put(self, key: ArtifactKey, value: Any) -> None:
        """Write ``value`` under ``key`` on disk; a no-op without a root."""
        path = self.path_for(key)
        codec = get_codec(key.stage)
        if path is None or codec is None:
            return
        try:
            arrays, meta = codec.encode(value)
            header = {
                "schema": key.schema,
                "stage": key.stage,
                "data_fp": key.data_fp,
                "config_fp": key.config_fp,
                "meta": meta,
            }
            _write_atomic(path, _pack(header, arrays))
        except Exception:
            obs.inc(f"store.{key.stage}.write_errors")
            return
        obs.inc(f"store.{key.stage}.writes")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _pack(header: dict, arrays: Dict[str, Any]) -> bytearray:
    """The container bytes of ``header`` and ``arrays``.

    Each array's ``[name, dtype, shape, offset, nbytes]`` entry is added to
    ``header`` as ``header["arrays"]``.
    """
    entries, blobs, end = [], [], 0
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.kind in _REFUSED_KINDS:
            raise TypeError(f"array {name!r} has dtype {array.dtype}, which is not stored")
        flat = np.ascontiguousarray(array).reshape(-1)
        offset = _aligned(end)
        entries.append([name, array.dtype.str, list(array.shape), offset, flat.nbytes])
        blobs.append((offset, flat))
        end = offset + flat.nbytes
    header["arrays"] = entries
    text = json.dumps(header, allow_nan=True).encode()
    start = _aligned(_PREFIX + len(text))
    buffer = bytearray(start + end)
    buffer[:_PREFIX] = CONTAINER_MAGIC + len(text).to_bytes(8, "little")
    buffer[_PREFIX:_PREFIX + len(text)] = text
    body = np.frombuffer(buffer, np.uint8, end, start)
    for offset, flat in blobs:
        body[offset:offset + flat.nbytes] = flat.view(np.uint8)
    return buffer


def _header_length(prefix: bytes) -> int:
    """The header length a container's first ``_PREFIX`` bytes declare."""
    if prefix[:len(CONTAINER_MAGIC)] != CONTAINER_MAGIC or len(prefix) != _PREFIX:
        raise ValueError("not an artifact container (bad magic)")
    return int.from_bytes(prefix[len(CONTAINER_MAGIC):], "little")


def _unpack(data: bytes) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(header, arrays)`` of one container; arrays are views of ``data``."""
    header_end = _PREFIX + _header_length(data[:_PREFIX])
    if header_end > len(data):
        raise ValueError("header runs past the end of the file")
    header = json.loads(data[_PREFIX:header_end])
    start = _aligned(header_end)
    arrays = {}
    for name, dtype, shape, offset, nbytes in header["arrays"]:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if (
            dtype.kind in _REFUSED_KINDS
            or min(shape, default=0) < 0
            or nbytes != count * dtype.itemsize
            or offset < 0
            or start + offset + nbytes > len(data)
        ):
            raise ValueError(f"array {name!r} has a bad dtype or extent")
        arrays[name] = np.frombuffer(data, dtype, count, start + offset).reshape(shape)
    return header, arrays


def _read_header(path: Path) -> dict:
    """The JSON header of the container at ``path``; its arrays are not read."""
    with open(path, "rb") as handle:
        length = _header_length(handle.read(_PREFIX))
        text = handle.read(length)
    if len(text) != length:
        raise ValueError("header runs past the end of the file")
    return json.loads(text)


#: Flags of a new temp file: created here, never opened if it exists.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)

#: Names tried before a put gives up on finding a free temp file name.
_TEMP_ATTEMPTS = 100


def _temp_name() -> str:
    return f".tmp-{os.urandom(8).hex()}"


def _create_temp(directory: Path) -> Tuple[int, str]:
    """Create a new, empty ``.tmp-*`` file in ``directory``: ``(fd, path)``.

    A name already taken (say, a temp file a killed writer left behind)
    is passed over for a fresh one, as ``tempfile.mkstemp`` does; this
    skips ``mkstemp``'s argument handling, which costs more than the
    ``open`` itself.
    """
    for _ in range(_TEMP_ATTEMPTS):
        name = os.path.join(directory, _temp_name())
        try:
            return os.open(name, _TEMP_FLAGS, 0o600), name
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temp file name in {directory}")


def _write_atomic(path: Path, *parts) -> None:
    """Write the byte buffers ``parts``, in order, to ``path`` through a
    temp sibling and ``os.replace``.

    Readers see the old file or the whole new one, never a torn one; on
    any failure the temp file is removed.  The one writer of the store's
    files: artifacts and shards alike.
    """
    try:
        fd, tmp_name = _create_temp(path.parent)
    except FileNotFoundError:
        # First artifact in this shard directory (or the directory was
        # removed since): create it once, not on every put.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = _create_temp(path.parent)
    try:
        try:
            for part in parts:
                view = memoryview(part).cast("B")
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# The process default, rebuilt whenever the configured root changes (tests
# monkeypatch REPRO_STORE).
_DEFAULT: Optional[ArtifactStore] = None


def default_store() -> ArtifactStore:
    """The store configured by ``REPRO_STORE`` (disabled when unset)."""
    from repro.core.runtime import store_dir  # lazy: avoids a core import cycle

    root = store_dir()
    global _DEFAULT
    current = str(_DEFAULT.root) if _DEFAULT is not None and _DEFAULT.root else None
    if _DEFAULT is None or current != root:
        _DEFAULT = ArtifactStore(root)
    return _DEFAULT
