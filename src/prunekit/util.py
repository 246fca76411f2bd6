"""Small shared utilities: seed derivation, canonical hashing, atomic writes."""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np


def derive_seed(root_seed: int, *tags) -> int:
    """Stable child seed from a root seed and a sequence of tags.

    Hash-based so that adding a new tagged stream never shifts existing ones.
    """
    material = ":".join([str(int(root_seed)), *[str(t) for t in tags]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def round_half_even(value: float, decimals: int = 2) -> float:
    """Decimal round-half-even, e.g. 0.125 -> 0.12, 0.135 -> 0.14."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_EVEN))


def round_half_away(values):
    """Round to nearest integer with halves away from zero (np.round is half-even)."""
    values = np.asarray(values)
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bytes_atomic(path, data: bytes) -> None:
    _atomic_write(path, data)


def write_text_atomic(path, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))
