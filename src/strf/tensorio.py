"""Binary tensor files.

Layout, all little-endian:
  bytes 0..3   magic "STRF"
  byte  4      format version (0x01)
  byte  5      rank
  next 4*rank  u32 extents, outermost first
  rest         IEEE-754 single precision data, row-major

Readers reject anything with the wrong magic or version, and a payload
shorter or longer than the extents say.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import ContractError, DataError

MAGIC = b"STRF"
VERSION = 1
_MAX_RANK = 255


def header_size(rank: int) -> int:
    return len(MAGIC) + 2 + 4 * rank


def write_tensor(path: str, array: np.ndarray) -> None:
    """Serialize a float32 array to the file at ``path``."""
    # asarray keeps rank-0 inputs rank 0; ascontiguousarray would lift them to rank 1
    array = np.asarray(array, order="C")
    if array.dtype != np.float32:
        raise ContractError(f"tensor files hold single precision data, got {array.dtype}")
    if array.ndim > _MAX_RANK:
        raise ContractError(f"rank {array.ndim} exceeds the format limit of {_MAX_RANK}")
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<BB", VERSION, array.ndim)
    payload += struct.pack(f"<{array.ndim}I", *array.shape)
    payload += array.astype("<f4", copy=False).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(payload)


def read_tensor(path: str) -> np.ndarray:
    """Read the tensor in the file at ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(MAGIC) + 2
    if len(data) < start or data[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a tensor file (bad magic)")
    version, rank = struct.unpack("<BB", data[len(MAGIC) : start])
    if version != VERSION:
        raise DataError(f"{path}: unsupported tensor format version {version}")
    end = header_size(rank)
    if len(data) < end:
        raise DataError(f"{path}: truncated tensor header")
    dims = struct.unpack(f"<{rank}I", data[start:end])
    count = int(np.prod(dims, dtype=np.int64))
    if len(data) - end != 4 * count:
        raise DataError(f"{path}: expected a payload of {4 * count} bytes ({count} float32 values), "
                        f"got {len(data) - end}")
    return np.frombuffer(data, dtype="<f4", count=count, offset=end).reshape(dims).astype(np.float32, copy=True)
