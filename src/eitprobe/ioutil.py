"""Serialization helpers: canonical JSON, hashing, raw float64 vectors.

The package keeps no binary container format. The only binary files are
flat vectors of raw little-endian float64, whatever the host byte order.
Canonical JSON (sorted keys, compact separators, repr floats) is used
wherever a byte-stable file or hash is required.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def canonical_json_bytes(obj) -> bytes:
    """Serialize to byte-stable JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_of(obj) -> str:
    """sha256 of the canonical JSON encoding of ``obj``."""
    return sha256_hex(canonical_json_bytes(obj))


def write_f64(path: str | Path, values: np.ndarray) -> None:
    """Write a flat vector as raw little-endian float64."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    Path(path).write_bytes(arr.tobytes())


def read_f64(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    return np.frombuffer(data, dtype="<f8").copy()
