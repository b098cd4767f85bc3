import os

import numpy as np
import pytest

from strf.checkpoint import load_checkpoint, save_checkpoint
from strf.errors import ContractError, DataError
from strf.tensorio import read_tensor, write_tensor


def test_roundtrip_bit_exact(tmp_path, rng):
    for shape in ((), (5,), (3, 4), (2, 3, 4), (2, 1, 3, 2, 2)):
        x = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.bin"
        write_tensor(str(path), x)
        back = read_tensor(str(path))
        assert back.dtype == np.float32
        assert np.array_equal(back, x)
        assert back.shape == x.shape


def test_rejects_double_precision(tmp_path):
    with pytest.raises(ContractError):
        write_tensor(str(tmp_path / "t.bin"), np.zeros((2, 2), dtype=np.float64))


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(str(path), np.zeros(3, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_tensor(str(path))


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(str(path), np.zeros(3, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_tensor(str(path))


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(str(path), np.arange(6, dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError):
        read_tensor(str(path))


def test_little_endian_layout(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(str(path), np.array([1.0], dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"STRF"
    assert raw[4] == 1  # version
    assert raw[5] == 1  # rank
    assert raw[6:10] == (1).to_bytes(4, "little")
    assert raw[10:14] == np.float32(1.0).tobytes()


def _toy_net(seed=0):
    from strf.backbone import Network, resnet50_spec

    spec = resnet50_spec(
        classes=3, variant="p3d-c", strf_stages=(2,), variant_stages=(2,),
        width_div=16, blocks=(1, 1, 1, 1),
    )
    return Network(spec, seed=seed)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    source = _toy_net(seed=5)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(source, str(ckpt))
    target = _toy_net(seed=6)
    changed = any(
        not np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(source.named_params(), target.named_params())
    )
    assert changed  # different seed gives something to restore over
    load_checkpoint(target, str(ckpt))
    for (name, a), (_, b) in zip(source.named_params(), target.named_params()):
        assert np.array_equal(a.data, b.data), name
    for (name, a), (_, b) in zip(source.named_buffers(), target.named_buffers()):
        assert np.array_equal(a, b), name


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(_toy_net(), str(tmp_path / "nowhere"))


def test_checkpoint_name_mismatch_reported(tmp_path):
    net = _toy_net()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, str(ckpt))
    manifest = ckpt / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    lines[0] = lines[0].replace(lines[0].split("\t")[0], "stem.conv.renamed")
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_checkpoint(net, str(ckpt))
    assert "renamed" in str(err.value) or "missing" in str(err.value)


def test_checkpoint_dim_mismatch_reported(tmp_path):
    net = _toy_net()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, str(ckpt))
    manifest = ckpt / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    name, kind, dims, filename, offset = lines[0].split("\t")
    lines[0] = "\t".join([name, kind, "9x9", filename, offset])
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_checkpoint(net, str(ckpt))
    assert "9, 9" in str(err.value) or "9x9" in str(err.value)


def test_checkpoint_layout_on_disk(tmp_path):
    net = _toy_net()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, str(ckpt))
    lines = (ckpt / "manifest.tsv").read_text().strip().splitlines()
    assert all(len(line.split("\t")) == 5 for line in lines)
    names = [line.split("\t")[0] for line in lines]
    assert names[0] == "stem.conv.w"
    assert len(set(names)) == len(names)
    assert os.path.exists(ckpt / "00000.strf")
