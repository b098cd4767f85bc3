"""Checkpoint directories: a manifest plus one tensor file per entry.

``manifest.tsv`` lists, per line: entry name, kind (param or buffer), dims
joined by 'x', the tensor file name, and the byte offset of the raw data
inside that file. Kept as text so a checkpoint can be inspected with any
pager. Round trips are bit exact.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .backbone import Network
from .tensorio import header_size, read_tensor, write_tensor

MANIFEST_NAME = "manifest.tsv"


def _entries(net: Network):
    for name, tensor in net.named_params():
        yield name, "param", tensor.data
    for name, array in net.named_buffers():
        yield name, "buffer", array


def save_checkpoint(net: Network, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    for index, (name, kind, array) in enumerate(_entries(net)):
        filename = f"{index:05d}.strf"
        write_tensor(os.path.join(directory, filename), np.asarray(array, dtype=np.float32))
        dims = "x".join(str(d) for d in array.shape)
        lines.append(f"{name}\t{kind}\t{dims}\t{filename}\t{header_size(array.ndim)}")
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(directory: str) -> dict[str, tuple[str, tuple[int, ...], str]]:
    """The checkpoint's entries as name -> (kind, dims, tensor file name)."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        fh = open(manifest_path, encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{manifest_path}: checkpoint manifest not found") from None
    except OSError as exc:
        raise DataError(f"{manifest_path}: cannot read checkpoint manifest: {exc.strerror}") from None
    stored = {}
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataError(f"{manifest_path}:{line_no}: expected 5 tab-separated fields")
            name, kind, dims_text, filename, _offset = parts
            try:
                dims = tuple(int(d) for d in dims_text.split("x")) if dims_text else ()
            except ValueError:
                raise DataError(
                    f"{manifest_path}:{line_no}: dims {dims_text!r} are not integers joined by 'x'"
                ) from None
            if name in stored:
                raise DataError(f"{manifest_path}:{line_no}: entry {name} is listed twice")
            stored[name] = (kind, dims, filename)
    return stored


def load_checkpoint(net: Network, directory: str) -> None:
    """Restore every parameter and buffer in place. The checkpoint must cover
    exactly the network's entries, with matching dims and finite values."""
    stored = read_manifest(directory)
    expected = {name: (kind, array) for name, kind, array in _entries(net)}
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataError(
            f"{directory}: checkpoint does not match the network "
            f"(missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
            f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''})"
        )
    for name, (kind, dims, filename) in stored.items():
        target_kind, target = expected[name]
        if kind != target_kind:
            raise DataError(f"{directory}: entry {name} is a {kind}, expected {target_kind}")
        if dims != target.shape:
            raise DataError(f"{directory}: entry {name} has dims {dims}, network expects {target.shape}")
        path = os.path.join(directory, filename)
        try:
            value = read_tensor(path)
        except OSError as exc:
            raise DataError(f"{path}: cannot read the tensor file for {name}: {exc.strerror}") from None
        if value.shape != target.shape:
            raise DataError(f"{directory}: file for {name} holds dims {value.shape}, manifest says {dims}")
        if not np.isfinite(value).all():
            raise DataError(f"{path}: entry {name} holds a non-finite value")
        target[...] = value.astype(target.dtype, copy=False)
