"""Stage codecs: how each artifact kind serializes to arrays + JSON meta.

The disk tier stores one file per artifact in the store's flat container
(see :mod:`repro.store.artifacts`): named arrays plus a JSON header.  A
*codec* maps a stage's in-memory value to that representation and back:

* ``encode(value) -> (arrays, meta)`` — ``arrays`` is a dict of
  :class:`numpy.ndarray` payloads (numeric, bool or string dtypes; object
  and structured dtypes are refused at put), ``meta`` any JSON-able object.
* ``decode(arrays, meta) -> value`` — the inverse; must reconstruct a
  value bit-identical to the encoded one (arrays round-trip as their raw
  bytes, floats exactly through JSON's repr-based dumping).  Decoded
  arrays are read-only views of the file's bytes, so a decoder copies
  what its value may mutate.

Codecs are registered by the module that owns the stage's value type
(e.g. the spatial codec lives next to :class:`SpatialModel`), which keeps
the store free of upward imports.  A stage without a codec is never
stored: the disk tier silently skips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["Codec", "get_codec", "register_codec", "registered_stages"]

EncodeFn = Callable[[Any], Tuple[Dict[str, np.ndarray], Any]]
DecodeFn = Callable[[Dict[str, np.ndarray], Any], Any]


@dataclass(frozen=True)
class Codec:
    """Serializer pair for one artifact stage."""

    stage: str
    encode: EncodeFn
    decode: DecodeFn


_CODECS: Dict[str, Codec] = {}


def register_codec(stage: str, encode: EncodeFn, decode: DecodeFn) -> Codec:
    """Register (or replace — module reloads happen in tests) a stage codec."""
    codec = Codec(stage=stage, encode=encode, decode=decode)
    _CODECS[stage] = codec
    return codec


def get_codec(stage: str) -> Optional[Codec]:
    """The codec for ``stage``, or ``None`` when the stage is never stored."""
    return _CODECS.get(stage)


def registered_stages() -> Tuple[str, ...]:
    """Stages with a disk representation, sorted."""
    return tuple(sorted(_CODECS))
