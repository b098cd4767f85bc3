"""Minimal binary netpbm codecs: P6 color frames, P5 gray maps."""
from __future__ import annotations

import os
import re

import numpy as np

from .errors import DataError

# The three header tokens, each after any whitespace and '#' comments; the
# second and third are optional so that a short header still matches its
# leading tokens. A comment runs to the end of its line or of the data, and a
# token never starts with '#', so a match cannot backtrack into a comment.
_SKIP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_TOKEN = _SKIP + rb"([^\s#]\S*)"
_HEADER = re.compile(_TOKEN + rb"(?:" + _TOKEN + rb"(?:" + _TOKEN + rb")?)?")
# The header every writer emits: the three tokens as plain digits, each after
# whitespace, and the one whitespace byte that ends the header. Where it
# matches, the general pattern reads the same tokens and the same offset.
_PLAIN_HEADER = re.compile(rb"\s+(\d+)\s+(\d+)\s+(\d+)\s")


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write a (3, height, width) uint8 image as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3 or image.dtype != np.uint8:
        raise DataError(f"{path}: PPM writer expects (3, h, w) uint8, got {image.dtype} {image.shape}")
    _, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.transpose(1, 2, 0).tobytes())


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write a (height, width) uint8 image as binary PGM."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DataError(f"{path}: PGM writer expects (h, w) uint8, got {image.dtype} {image.shape}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_header(data: bytes, path: str) -> tuple[int, int, int, int]:
    """Width, height and maxval of the header after the 2-byte magic, and the
    payload offset: just past the single whitespace byte that ends the header."""
    match = _PLAIN_HEADER.match(data, 2)
    if match:
        w, h, maxval = match.groups()
        return int(w), int(h), int(maxval), match.end()
    match = _HEADER.match(data, 2)
    values = []
    for token in match.groups() if match else ():
        if token is None:
            break
        if not token.isdigit():
            raise DataError(f"{path}: malformed netpbm header token {token!r}")
        values.append(int(token))
    if len(values) < 3:
        raise DataError(f"{path}: truncated netpbm header")
    w, h, maxval = values
    return w, h, maxval, match.end() + 1


def _read_file(path: str) -> bytes:
    """The whole file: one open, reads until end of file, one close."""
    fd = os.open(path, os.O_RDONLY)
    try:
        # os.read allocates what it asks for and trims the unread rest; one
        # byte over the file's size trims one byte, where a fixed 16 KiB ask
        # fragmented the heap and raised a retrieval pass's peak by 4-9 MB
        size = os.fstat(fd).st_size + 1
        chunks = []
        while chunk := os.read(fd, size):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)  # a single chunk comes back as it is, uncopied


def _read_payload(path: str, magic: bytes, kind: str, channels: int) -> np.ndarray:
    """The pixels of a binary netpbm file as a read-only (channels, height,
    width) uint8 view of its channel-interleaved bytes."""
    data = _read_file(path)
    if not data.startswith(magic):
        raise DataError(f"{path}: not a binary {kind} (bad magic)")
    w, h, maxval, offset = read_header(data, path)
    if maxval != 255:
        raise DataError(f"{path}: unsupported {kind} maxval {maxval}")
    if w == 0 or h == 0:
        raise DataError(f"{path}: {kind} of width {w} and height {h} has no pixels")
    expected = w * h * channels
    if len(data) - offset < expected:
        got = max(0, len(data) - offset)
        raise DataError(f"{path}: {kind} payload is short ({got} of {expected} bytes)")
    # shape, dtype, buffer, offset, strides: one call, no copy of the payload
    return np.ndarray((channels, h, w), np.uint8, data, offset, (1, w * channels, channels))


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM as a read-only (3, height, width) uint8 view of the
    file's bytes; copy it to write to it."""
    return _read_payload(path, b"P6", "PPM", 3)


def read_pgm(path: str) -> np.ndarray:
    """Read a binary PGM as a read-only (height, width) uint8 view of the
    file's bytes; copy it to write to it."""
    return _read_payload(path, b"P5", "PGM", 1)[0]
