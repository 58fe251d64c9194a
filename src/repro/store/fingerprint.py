"""Content fingerprints for artifact addressing.

Every artifact the pipeline materializes is keyed by *what it was computed
from*: a data fingerprint (the exact float content of the input matrix) and
a config fingerprint (a canonical serialization of the governing
configuration object).  Two runs that would compute the same value produce
the same key; any change to either input produces a different one.

Both fingerprints use BLAKE2b — faster than sha1 on large buffers and with
a keyed/person-alizable construction we can use to domain-separate future
schema revisions.

``config_fingerprint`` canonicalizes before hashing: dataclasses become
``{field_name: value}`` mappings hashed under ``sort_keys=True``, so the
fingerprint is stable across dataclass *field order* (a refactor that
reorders fields must not invalidate a store full of artifacts).  Enums
hash by class and value, arrays by content, and unsupported types raise
instead of silently hashing an address-bearing ``repr``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

__all__ = [
    "STORE_SCHEMA",
    "Canonical",
    "canonical",
    "config_fingerprint",
    "data_fingerprint",
]

#: Artifact schema version, stamped into every key and on-disk artifact.
#: Bump it whenever the serialized layout of *any* stage changes: old
#: artifacts are then rejected (recomputed), never misread.
STORE_SCHEMA = "repro.store/v1"

_DIGEST_SIZE = 20  # bytes; 160-bit fingerprints, same width as the old sha1


def data_fingerprint(data: np.ndarray) -> str:
    """Content hash of a numeric array (shape + raw float bytes)."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=float))
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(repr(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class Canonical:
    """A config value already reduced to its canonical form and its JSON text.

    Fingerprints exactly like the value it was made from; build it once
    with :func:`canonical` when one config is folded into many keys.  As
    the whole payload, or as a value of a payload dict, it contributes its
    stored ``text`` instead of being serialized again.
    """

    form: Any
    text: str


def canonical(config: Any) -> Canonical:
    """``config`` canonicalized and serialized once, for reuse inside many fingerprints."""
    form = _canonical(config)
    return Canonical(form, _dumps(form))


def _canonical(obj: Any) -> Any:
    """Reduce a config object to a JSON-able canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj  # json round-trips floats (incl. nan/inf) via repr
    if isinstance(obj, Canonical):
        return obj.form
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": _canonical(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": data_fingerprint(obj)}
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if isinstance(obj, dict):
        return {"__dict__": {str(k): _canonical(v) for k, v in obj.items()}}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    raise TypeError(
        f"cannot fingerprint config value of type {type(obj).__name__}: {obj!r}"
    )


#: ``json.dumps(form, sort_keys=True, allow_nan=True)``, without building
#: an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, allow_nan=True).encode


def _serialize(config: Any) -> str:
    """``_dumps(_canonical(config))``, splicing in the text of :class:`Canonical` parts.

    Only the top level and the values of a top-level dict are spliced:
    that is where a key payload folds a config shared by many keys.  The
    dict branch writes what :func:`json.dumps` writes for ``_canonical``'s
    ``{"__dict__": {...}}`` form under ``sort_keys`` and the default
    separators.
    """
    if isinstance(config, Canonical):
        return config.text
    if isinstance(config, dict) and any(isinstance(v, Canonical) for v in config.values()):
        items = {str(k): v for k, v in config.items()}
        body = ", ".join(f"{_dumps(k)}: {_serialize(items[k])}" for k in sorted(items))
        return '{"__dict__": {' + body + "}}"
    return _dumps(_canonical(config))


def config_fingerprint(config: Any) -> str:
    """Canonical hash of a configuration object.

    Stable across dataclass field order (fields are serialized by name and
    hashed under ``sort_keys``), sensitive to class names, field values,
    enum members and array contents.  Raises :class:`TypeError` for types
    without a canonical form rather than hashing something unstable.
    """
    digest = hashlib.blake2b(_serialize(config).encode(), digest_size=_DIGEST_SIZE)
    return digest.hexdigest()
