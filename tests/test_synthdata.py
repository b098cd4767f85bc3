import os
import re

import numpy as np
import pytest

from strf.errors import ConfigError, ContractError, DataError
from strf.netpbm import read_header, read_pgm, read_ppm, write_pgm, write_ppm
from strf.synthdata import (
    SynthSpec,
    augment_clip,
    dataset_channel_mean,
    generate,
    identity_factors,
    load_manifest,
    load_tracklet,
    load_tracklets,
    make_batch,
)

from oracles import netpbm_tokens_loops


def tiny_spec(**kw):
    defaults = dict(
        identities=4,
        tracklets_per_identity=2,
        frames_per_tracklet=8,
        frame_height=32,
        frame_width=16,
        cameras=2,
        pairing="appearance",
        train_identities=2,
        seed=3,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


# -- netpbm codecs -----------------------------------------------------------

def test_ppm_round_trip(tmp_path, rng):
    image = rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint8)
    path = str(tmp_path / "frame.ppm")
    write_ppm(path, image)
    assert np.array_equal(read_ppm(path), image)


def test_pgm_round_trip(tmp_path, rng):
    image = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
    path = str(tmp_path / "map.pgm")
    write_pgm(path, image)
    assert np.array_equal(read_pgm(path), image)


def test_netpbm_readers_return_read_only_views(tmp_path, rng):
    path = str(tmp_path / "frame.ppm")
    write_ppm(path, rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint8))
    gray = str(tmp_path / "map.pgm")
    write_pgm(gray, rng.integers(0, 256, size=(4, 6)).astype(np.uint8))
    for image in (read_ppm(path), read_pgm(gray)):
        assert image.base is not None and not image.flags.writeable


def test_netpbm_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bogus.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(DataError, match="magic"):
        read_ppm(path)
    with pytest.raises(DataError, match="magic"):
        read_pgm(path)


def test_netpbm_rejects_truncated_payload(tmp_path):
    path = str(tmp_path / "short.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n4 4\n255\n\x00\x01")
    with pytest.raises(DataError, match="short"):
        read_ppm(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"P3\n1 1\n255\n0 0 0\n", "{path}: not a binary PPM (bad magic)"),
        (b"", "{path}: not a binary PPM (bad magic)"),
        (b"P6\n4 4\n255\n\x00\x01", "{path}: PPM payload is short (2 of 48 bytes)"),
        (b"P6 4 4 255", "{path}: PPM payload is short (0 of 48 bytes)"),
        (b"P6\n# c\n4 4\n255\n" + bytes(47), "{path}: PPM payload is short (47 of 48 bytes)"),
        (b"P6\n4 4\n15\n" + bytes(48), "{path}: unsupported PPM maxval 15"),
        (b"P6\n0 32\n255\n", "{path}: PPM of width 0 and height 32 has no pixels"),
        (b"P6\n16 0\n255\n" + bytes(48), "{path}: PPM of width 16 and height 0 has no pixels"),
    ],
)
def test_netpbm_read_errors_keep_their_messages(tmp_path, content, message):
    path = str(tmp_path / "frame.ppm")
    with open(path, "wb") as fh:
        fh.write(content)
    with pytest.raises(DataError, match=f"^{re.escape(message.format(path=path))}$"):
        read_ppm(path)


@pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (0, 0)])
def test_netpbm_rejects_an_empty_gray_map(tmp_path, width, height):
    path = str(tmp_path / "empty.pgm")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
    with pytest.raises(DataError, match=f"^{re.escape(path)}: PGM of width {width} and height {height} has no pixels$"):
        read_pgm(path)


def test_netpbm_skips_header_comments(tmp_path):
    path = str(tmp_path / "commented.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment line\n2 1\n255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


HEADERS = [
    b"P6\n2 3\n255\n",
    b"P6#right after the magic\n2 3 255\n",
    b"P6\n# a comment\n2 # between\n3\n#\n255\n",
    b"P6\t2\r3\r\n255\t",
    b"P6\x0b2\x0c3 255 ",
    b"P6 2x 3 255\n",
    b"P6 2#3 4 255\n",
    b"P6 -1 2 255\n",
    b"P6 2 3 #12",
    b"P6 2 3 # 4 5",
    b"P61 2 255",
    b"P6 2 3 255",
    b"P6",
]
SEPARATORS = [b" ", b"\t", b"\r", b"\n", b"\r\n", b"#c\n", b"# 7 8\n", b"\n#\n", b"#"]
TOKENS = [b"0", b"12", b"255", b"007", b"2x", b"x", b"1#2", b"+3"]


def _generated_headers():
    """The fixed headers, every prefix of them, and seeded random ones."""
    headers = set(HEADERS)
    for header in HEADERS:
        headers.update(header[:n] for n in range(2, len(header)))
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(300):
        parts = [b"P6"]
        for _ in range(int(rng.integers(1, 5))):
            parts.append(SEPARATORS[rng.integers(len(SEPARATORS))])
            parts.append(TOKENS[rng.integers(len(TOKENS))])
        parts.append(SEPARATORS[rng.integers(len(SEPARATORS))])
        header = b"".join(parts)
        headers.add(header[: int(rng.integers(2, len(header) + 1))])
    return sorted(headers)


def _oracle_header(data):
    try:
        (w, h, maxval), offset = netpbm_tokens_loops(data[2:], 3, "f.ppm")
    except ValueError as exc:
        return "error", str(exc)
    return w, h, maxval, offset + 2


def _parsed_header(data):
    try:
        return read_header(data, "f.ppm")
    except DataError as exc:
        return "error", str(exc)


def test_header_parser_matches_the_byte_loop():
    headers = _generated_headers()
    outcomes = {_oracle_header(h)[0] == "error" for h in headers}
    assert outcomes == {True, False}
    for header in headers:
        assert _parsed_header(header) == _oracle_header(header), header
    assert _parsed_header(b"P61 2 255") == (1, 2, 255, 10)
    assert _parsed_header(b"P6 2 3 #12") == ("error", "f.ppm: truncated netpbm header")


def test_ppm_writer_validates_input(tmp_path):
    path = str(tmp_path / "bad.ppm")
    with pytest.raises(DataError):
        write_ppm(path, np.zeros((3, 4, 4), dtype=np.float32))
    with pytest.raises(DataError):
        write_ppm(path, np.zeros((1, 4, 4), dtype=np.uint8))


# -- spec validation ---------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        tiny_spec(identities=0)
    with pytest.raises(ConfigError):
        tiny_spec(identities=3)  # paired modes need an even count
    with pytest.raises(ConfigError):
        tiny_spec(pairing="chaos")
    with pytest.raises(ConfigError):
        tiny_spec(occlusion_prob=1.5)
    with pytest.raises(ConfigError):
        tiny_spec(jitter_px=-1)
    with pytest.raises(ConfigError):
        tiny_spec(train_identities=9)
    with pytest.raises(ConfigError):
        tiny_spec(cameras=1)  # test ids need cross-camera positives
    with pytest.raises(ConfigError):
        tiny_spec(frame_height=8, frame_width=8)  # too small for the figure
    assert tiny_spec(identities=3, pairing="none", train_identities=3).n_train == 3


def test_default_split_is_half():
    assert tiny_spec(train_identities=None).n_train == 2


# -- generation --------------------------------------------------------------

def test_generate_is_byte_deterministic(tmp_path):
    spec = tiny_spec()
    root_a, root_b = str(tmp_path / "a"), str(tmp_path / "b")
    generate(spec, root_a)
    generate(spec, root_b)
    files_a = sorted(
        os.path.relpath(os.path.join(d, f), root_a)
        for d, _, names in os.walk(root_a)
        for f in names
    )
    files_b = sorted(
        os.path.relpath(os.path.join(d, f), root_b)
        for d, _, names in os.walk(root_b)
        for f in names
    )
    assert files_a == files_b and files_a
    for rel in files_a:
        with open(os.path.join(root_a, rel), "rb") as fa, open(os.path.join(root_b, rel), "rb") as fb:
            assert fa.read() == fb.read(), rel


def test_generate_layout_and_counts(tiny_dataset):
    records = load_manifest(tiny_dataset.path)
    assert len(records) == 8  # 4 ids x 2 tracklets
    splits = sorted(r.split for r in records)
    assert splits.count("train") == 4
    assert splits.count("query") == 2 and splits.count("gallery") == 2
    for record in records:
        assert len(record.frame_paths) == 12
        # queries and their positives sit on different cameras
    by_id = {}
    for r in records:
        if r.split != "train":
            by_id.setdefault(r.identity, []).append(r)
    for recs in by_id.values():
        query = [r for r in recs if r.split == "query"]
        gallery = [r for r in recs if r.split == "gallery"]
        assert len(query) == 1
        assert any(g.camera != query[0].camera for g in gallery)


def test_appearance_twins_share_looks_not_motion(tmp_path):
    spec = tiny_spec(pairing="appearance", frames_per_tracklet=12)
    factors = identity_factors(spec)
    for even in (0, 2):
        twin_a, twin_b = factors[even], factors[even + 1]
        assert twin_a.palette == twin_b.palette
        assert twin_a.amplitude == twin_b.amplitude
        assert twin_a.frequency != twin_b.frequency

    root = str(tmp_path / "twins")
    generate(spec, root)
    tracklets = load_tracklets(os.path.join(root, "manifest.tsv"), "train")
    a = next(t for t in tracklets if t.identity == 0)
    b = next(t for t in tracklets if t.identity == 1)
    # same wardrobe: per-frame mean color matches to float precision
    mean_a = a.frames.mean(axis=(0, 2, 3))
    mean_b = b.frames.mean(axis=(0, 2, 3))
    assert np.allclose(mean_a, mean_b, atol=1e-6)
    # different walk: frame-difference energy separates the twins
    energy_a = np.abs(np.diff(a.frames, axis=0)).mean()
    energy_b = np.abs(np.diff(b.frames, axis=0)).mean()
    assert abs(energy_a - energy_b) > 1e-4


def test_motion_pairing_shares_walk_not_looks():
    factors = identity_factors(tiny_spec(pairing="motion"))
    assert factors[0].frequency == factors[1].frequency
    assert factors[0].amplitude == factors[1].amplitude
    assert factors[0].palette != factors[1].palette


def test_none_pairing_all_distinct():
    factors = identity_factors(tiny_spec(pairing="none"))
    assert len({f.palette for f in factors.values()}) == 4
    assert len({f.frequency for f in factors.values()}) == 4


# -- manifest and loading ----------------------------------------------------

def test_manifest_round_trip(tiny_dataset):
    records = load_manifest(tiny_dataset.path)
    assert [
        (r.directory, r.identity, r.camera, r.split) for r in records
    ] == [
        (r.directory, r.identity, r.camera, r.split) for r in tiny_dataset.records
    ]


def test_manifest_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_manifest("/nonexistent/manifest.tsv")


def test_manifest_error_carries_line_number(tmp_path):
    path = str(tmp_path / "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("path\tid\tcamera\tsplit\n")
        fh.write("a/b/f0.ppm\t0\t0\ttrain\n")
        fh.write("a/b/f1.ppm\t1\t0\ttrain\n")  # id flips inside tracklet a/b
    with pytest.raises(DataError, match=":3:"):
        load_manifest(path)

    with open(path, "w") as fh:
        fh.write("a/b/f0.ppm\t0\t0\n")
    with pytest.raises(DataError, match=":1:.*4 tab-separated"):
        load_manifest(path)

    with open(path, "w") as fh:
        fh.write("a/b/f0.ppm\tzero\t0\ttrain\n")
    with pytest.raises(DataError, match="non-integer"):
        load_manifest(path)

    with open(path, "w") as fh:
        fh.write("a/b/f0.ppm\t0\t0\tholdout\n")
    with pytest.raises(DataError, match="holdout"):
        load_manifest(path)


def test_load_tracklets_identity_normalization(tiny_dataset):
    plain = load_tracklets(tiny_dataset.path, "train")
    assert plain
    for t in plain:
        assert t.frames.dtype == np.float32
        assert t.frames.min() >= 0.0 and t.frames.max() <= 1.0
        assert t.frames.shape[1:] == (3, 32, 16)
        assert t.frames.flags.c_contiguous
    shifted = load_tracklets(tiny_dataset.path, "train", mean=(0.5, 0.5, 0.5), std=(2.0, 2.0, 2.0))
    assert np.allclose(shifted[0].frames, (plain[0].frames - 0.5) / 2.0, atol=1e-7)


def _same_tracklet(a, b):
    return (
        a.frames.dtype == b.frames.dtype == np.float32
        and a.frames.flags.c_contiguous
        and b.frames.flags.c_contiguous
        and a.frames.shape == b.frames.shape
        and a.frames.tobytes() == b.frames.tobytes()
        and (a.name, a.identity, a.camera) == (b.name, b.identity, b.camera)
    )


@pytest.mark.parametrize(
    "mean, std", [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), ((0.485, 0.456, 0.406), (0.229, 0.224, 0.225))]
)
def test_load_tracklets_of_several_splits_equals_one_split_at_a_time(tiny_dataset, mean, std):
    names = ("query", "train", "gallery")
    loaded = load_tracklets(tiny_dataset.path, names, mean, std)
    assert isinstance(loaded, tuple) and len(loaded) == 3
    for name, tracklets in zip(names, loaded):
        alone = load_tracklets(tiny_dataset.path, name, mean, std)
        assert isinstance(alone, list) and alone
        assert len(tracklets) == len(alone)
        assert all(_same_tracklet(a, b) for a, b in zip(tracklets, alone))
    assert load_tracklets(tiny_dataset.path, ("holdout",)) == ([],)


def test_load_tracklet_equals_its_load_tracklets_entry(tiny_dataset):
    mean, std = (0.485, 0.456, 0.406), (0.229, 0.224, 0.225)
    records = [r for r in load_manifest(tiny_dataset.path) if r.split == "gallery"]
    gallery = load_tracklets(tiny_dataset.path, "gallery", mean, std)
    assert len(records) == len(gallery)
    for record, tracklet in zip(records, gallery):
        assert _same_tracklet(load_tracklet(tiny_dataset.path, record, mean, std), tracklet)


def test_normalization_matches_the_reference_arithmetic(tiny_dataset):
    mean, std = (0.485, 0.0, 0.406), (1.0, 0.224, 0.225)
    raw = load_tracklets(tiny_dataset.path, "query")
    normalized = load_tracklets(tiny_dataset.path, "query", mean, std)
    for a, b in zip(raw, normalized):
        expected = a.frames.copy()
        expected -= np.asarray(mean, dtype=np.float32).reshape(1, 3, 1, 1)
        expected /= np.asarray(std, dtype=np.float32).reshape(1, 3, 1, 1)
        assert expected.tobytes() == b.frames.tobytes()


@pytest.mark.parametrize(
    "header",
    [b"P6\n# written by hand\n16 32\n255\n", b"P6\t16\t32\t255\t", b"P6 16 32 #c\n255\n"],
)
def test_load_tracklets_reads_any_valid_header(tmp_path, rng, header):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "train/x"))
    frames = rng.integers(0, 256, size=(2, 3, 32, 16)).astype(np.uint8)
    write_ppm(os.path.join(root, "train/x/f0.ppm"), frames[0])
    with open(os.path.join(root, "train/x/f1.ppm"), "wb") as fh:
        fh.write(header + frames[1].transpose(1, 2, 0).tobytes())
    path = os.path.join(root, "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("train/x/f0.ppm\t0\t0\ttrain\n")
        fh.write("train/x/f1.ppm\t0\t0\ttrain\n")
    (tracklet,) = load_tracklets(path, "train")
    assert np.array_equal(tracklet.frames, frames.astype(np.float32) / np.float32(255.0))


def test_load_tracklets_zero_std_rejected(tiny_dataset):
    with pytest.raises(ConfigError):
        load_tracklets(tiny_dataset.path, "train", std=(1.0, 0.0, 1.0))


def test_load_tracklets_needs_three_channel_entries(tiny_dataset):
    with pytest.raises(ConfigError, match="3 channel entries"):
        load_tracklets(tiny_dataset.path, "train", mean=(0.0, 0.0))


def test_load_tracklets_missing_frame_names_file(tmp_path, rng):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "train/x"))
    frame = rng.integers(0, 256, size=(3, 32, 16)).astype(np.uint8)
    write_ppm(os.path.join(root, "train/x/f0.ppm"), frame)
    path = os.path.join(root, "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("train/x/f0.ppm\t0\t0\ttrain\n")
        fh.write("train/x/f1.ppm\t0\t0\ttrain\n")
    with pytest.raises(DataError, match="referenced frame train/x/f1.ppm does not exist"):
        load_tracklets(path, "train")


def test_load_tracklets_rejects_mixed_frame_dims(tmp_path, rng):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "train/x"))
    for name, (h, w) in (("f0.ppm", (32, 16)), ("f1.ppm", (64, 32))):
        frame = rng.integers(0, 256, size=(3, h, w)).astype(np.uint8)
        write_ppm(os.path.join(root, "train/x", name), frame)
    path = os.path.join(root, "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("train/x/f0.ppm\t0\t0\ttrain\n")
        fh.write("train/x/f1.ppm\t0\t0\ttrain\n")
    with pytest.raises(DataError, match="manifest.tsv: frame train/x/f1.ppm is 64x32.*32x16"):
        load_tracklets(path, "train")


def test_paths_that_name_a_directory(tmp_path):
    with pytest.raises(DataError, match="cannot read manifest"):
        load_manifest(str(tmp_path))
    os.makedirs(tmp_path / "train/x/f0.ppm")
    path = str(tmp_path / "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("train/x/f0.ppm\t0\t0\ttrain\n")
    with pytest.raises(DataError, match="manifest.tsv: cannot read frame train/x/f0.ppm"):
        load_tracklets(path, "train")


def test_dataset_channel_mean(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")
    mean = dataset_channel_mean(tracklets)
    stacked = np.concatenate([t.frames for t in tracklets], axis=0)
    assert np.allclose(mean, stacked.mean(axis=(0, 2, 3)), atol=1e-6)
    with pytest.raises(ContractError):
        dataset_channel_mean([])


# -- augmentation ------------------------------------------------------------

def test_flip_is_involution_and_clip_consistent(rng):
    clip = rng.normal(size=(3, 4, 8, 6)).astype(np.float32)
    flipped = augment_clip(clip, np.random.default_rng(0), flip_prob=1.0, erase_prob=0.0)
    assert np.array_equal(flipped, clip[:, :, :, ::-1])
    twice = augment_clip(flipped, np.random.default_rng(0), flip_prob=1.0, erase_prob=0.0)
    assert np.array_equal(twice, clip)


def test_augment_identity_when_disabled(rng):
    clip = rng.normal(size=(3, 4, 8, 6)).astype(np.float32)
    out = augment_clip(clip, rng, flip_prob=0.0, erase_prob=0.0)
    assert np.array_equal(out, clip)
    assert out is not clip  # still a defensive copy


def test_erase_rectangle_is_clip_consistent(rng):
    clip = rng.uniform(size=(3, 6, 12, 10)).astype(np.float32) + 1.0
    out = augment_clip(clip, np.random.default_rng(7), flip_prob=0.0, erase_prob=1.0, erase_fill=(0, 0, 0))
    changed = out != clip
    assert changed.any()
    # the same pixels change in every frame and every channel
    per_frame = changed.any(axis=0)
    for t in range(1, 6):
        assert np.array_equal(per_frame[t], per_frame[0])
    # erased block is exactly the fill value
    assert np.all(out[changed] == 0.0)


def test_erase_fill_value_used(rng):
    clip = np.zeros((3, 2, 12, 10), dtype=np.float32)
    fill = (0.25, 0.5, 0.75)
    out = augment_clip(clip, np.random.default_rng(3), flip_prob=0.0, erase_prob=1.0, erase_fill=fill)
    changed = out != clip
    assert changed.any()
    for c, value in enumerate(fill):
        assert np.all(out[c][changed[c]] == np.float32(value))


def test_augment_validates_rank(rng):
    with pytest.raises(ContractError):
        augment_clip(np.zeros((4, 8, 6), dtype=np.float32), rng)
    with pytest.raises(ContractError):
        augment_clip(np.zeros((1, 4, 8, 6), dtype=np.float32), rng)


# -- batching ----------------------------------------------------------------

def test_make_batch_shapes_and_labels(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")
    rng = np.random.default_rng(11)
    clips, labels = make_batch(tracklets, p=2, k=3, clip_len=4, stride=1, rng=rng)
    assert clips.shape == (6, 3, 4, 32, 16)
    assert clips.dtype == np.float32
    assert labels.shape == (6,)
    values, counts = np.unique(labels, return_counts=True)
    assert len(values) == 2 and np.all(counts == 3)


def test_make_batch_deterministic(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")
    a_clips, a_labels = make_batch(tracklets, 2, 2, 4, 1, np.random.default_rng(5))
    b_clips, b_labels = make_batch(tracklets, 2, 2, 4, 1, np.random.default_rng(5))
    assert np.array_equal(a_clips, b_clips)
    assert np.array_equal(a_labels, b_labels)


def test_make_batch_rejects_small_pool(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")
    with pytest.raises(ContractError):
        make_batch(tracklets, p=5, k=2, clip_len=4, stride=1, rng=np.random.default_rng(0))


def test_make_batch_applies_augment(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")

    def stamp(clip, rng):
        out = clip.copy()
        out[:, :, 0, 0] = -9.0
        return out

    clips, _ = make_batch(tracklets, 2, 2, 4, 1, np.random.default_rng(0), augment=stamp)
    assert np.all(clips[:, :, :, 0, 0] == -9.0)


def test_make_batch_is_float32_whatever_augment_returns(tiny_dataset):
    tracklets = load_tracklets(tiny_dataset.path, "train")
    plain, _ = make_batch(tracklets, 2, 2, 4, 1, np.random.default_rng(0))
    widened, _ = make_batch(
        tracklets, 2, 2, 4, 1, np.random.default_rng(0), augment=lambda clip, rng: clip.astype(np.float64)
    )
    assert widened.dtype == plain.dtype == np.float32
    assert widened.tobytes() == plain.tobytes()
