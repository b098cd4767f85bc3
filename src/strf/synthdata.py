"""Deterministic synthetic surveillance-style clips.

Each identity is a colored figure (head, torso, legs) walking horizontally
across a flat background; the identity's factors are its clothing palette,
its signed walking frequency (cycles of the walkway per frame; the sign is
the direction), and its walkway amplitude in pixels. Position wraps around
the walkway, so a figure's positions are uniformly distributed and only the
frame ORDER carries the motion signature.

Pairing modes build controlled confusions:
  appearance  ids 2i and 2i+1 share palette and amplitude but walk at
              different frequencies (different speed and direction); frames
              look alike, motion tells them apart
  motion      ids 2i and 2i+1 share the walk but dress differently
  none        every id gets its own palette and motion

Corruptions: an occluding gray block pasted per frame with a configured
probability, and per-frame crop jitter that shifts the figure. Frames are
binary PPM; ``manifest.tsv`` holds one row per frame (path, id, camera,
split) and is the single source of truth for loading.
"""
from __future__ import annotations

import colorsys
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .evaluation import Tracklet, train_clip_indices
from .netpbm import read_ppm, write_ppm

PAIRINGS = ("appearance", "motion", "none")
BACKGROUND = np.array([38, 40, 46], dtype=np.float64)
SKIN = np.array([205, 170, 150], dtype=np.float64)
OCCLUDER_GRAY = 128


@dataclass(frozen=True)
class SynthSpec:
    identities: int = 8
    tracklets_per_identity: int = 4
    frames_per_tracklet: int = 16
    frame_height: int = 64
    frame_width: int = 32
    cameras: int = 2
    pairing: str = "appearance"
    occlusion_prob: float = 0.0
    jitter_px: int = 0
    train_identities: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.identities < 1:
            raise ConfigError(f"need at least one identity, got {self.identities}")
        if self.pairing not in PAIRINGS:
            raise ConfigError(f"pairing must be one of {PAIRINGS}, got {self.pairing!r}")
        if self.pairing != "none" and self.identities % 2 != 0:
            raise ConfigError(f"paired generation needs an even identity count, got {self.identities}")
        if self.tracklets_per_identity < 1 or self.frames_per_tracklet < 1:
            raise ConfigError("tracklets per identity and frames per tracklet must be >= 1")
        if self.cameras < 1:
            raise ConfigError(f"camera count must be >= 1, got {self.cameras}")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ConfigError(f"occlusion probability must be in [0, 1], got {self.occlusion_prob}")
        if self.jitter_px < 0:
            raise ConfigError(f"jitter must be >= 0 pixels, got {self.jitter_px}")
        if not 0 <= self.n_train <= self.identities:
            raise ConfigError(
                f"train identity count {self.n_train} must lie in [0, {self.identities}]"
            )
        if self.n_train < self.identities and (self.cameras < 2 or self.tracklets_per_identity < 2):
            raise ConfigError(
                "test identities need >= 2 cameras and >= 2 tracklets so queries have cross-camera positives"
            )
        body_h, body_w = _body_size(self.frame_height, self.frame_width)
        margin = 2 + self.jitter_px
        if self.frame_width - body_w - 2 * margin < 4 or self.frame_height - body_h - 2 * margin < 0:
            raise ConfigError(
                f"frame {self.frame_height}x{self.frame_width} is too small for the figure plus jitter"
            )

    @property
    def n_train(self) -> int:
        return self.identities // 2 if self.train_identities is None else self.train_identities


@dataclass(frozen=True)
class IdentityFactors:
    palette: int
    frequency: float  # signed, cycles of the walkway per frame
    amplitude: int  # walkway length in pixels


@dataclass(frozen=True)
class TrackletRecord:
    directory: str
    frame_paths: tuple[str, ...]
    identity: int
    camera: int
    split: str


@dataclass
class DatasetManifest:
    root: str
    records: list[TrackletRecord]

    @property
    def path(self) -> str:
        return os.path.join(self.root, "manifest.tsv")


def _body_size(h: int, w: int) -> tuple[int, int]:
    return max(6, round(0.62 * h)), max(3, round(0.26 * w))


def _palette(index: int) -> tuple[np.ndarray, np.ndarray]:
    hue = (index * 0.61803398875) % 1.0
    torso = colorsys.hsv_to_rgb(hue, 0.85, 0.90)
    legs = colorsys.hsv_to_rgb((hue + 0.45) % 1.0, 0.70, 0.55)
    return (np.array(torso) * 255.0, np.array(legs) * 255.0)


def _walkway(spec: SynthSpec, fraction: float) -> int:
    margin = 2 + spec.jitter_px
    _, body_w = _body_size(spec.frame_height, spec.frame_width)
    longest = spec.frame_width - body_w - 2 * margin
    return max(4, round(fraction * longest))


def identity_factors(spec: SynthSpec) -> dict[int, IdentityFactors]:
    """The deterministic factor table for every identity."""
    base_freqs = (0.11, 0.16, 0.21, 0.26)
    table: dict[int, IdentityFactors] = {}
    for identity in range(spec.identities):
        pair, member = divmod(identity, 2)
        if spec.pairing == "appearance":
            # same look, different walk: speed and direction both differ
            freq = base_freqs[pair % 4] + 0.07 * member
            table[identity] = IdentityFactors(
                palette=pair,
                frequency=freq if member == 0 else -freq,
                amplitude=_walkway(spec, 1.0),
            )
        elif spec.pairing == "motion":
            freq = base_freqs[pair % 4]
            table[identity] = IdentityFactors(
                palette=identity,
                frequency=freq if pair % 2 == 0 else -freq,
                amplitude=_walkway(spec, 1.0 if pair % 2 == 0 else 0.75),
            )
        else:
            freq = base_freqs[identity % 4] + 0.02 * (identity // 4)
            table[identity] = IdentityFactors(
                palette=identity,
                frequency=freq if identity % 2 == 0 else -freq,
                amplitude=_walkway(spec, 1.0 if identity % 3 else 0.75),
            )
    return table


def _camera_brightness(camera: int, cameras: int) -> float:
    if cameras == 1:
        return 1.0
    return 1.0 + 0.05 * (camera / (cameras - 1) - 0.5)


def _render_frame(
    spec: SynthSpec,
    factors: IdentityFactors,
    x_on_walkway: int,
    jitter: tuple[int, int],
    occluder: tuple[int, int, int, int] | None,
    brightness: float,
) -> np.ndarray:
    h, w = spec.frame_height, spec.frame_width
    body_h, body_w = _body_size(h, w)
    torso_color, legs_color = _palette(factors.palette)
    img = np.empty((h, w, 3), dtype=np.float64)
    img[:] = BACKGROUND

    margin = 2 + spec.jitter_px
    x0 = margin + x_on_walkway + jitter[1]
    y0 = (h - body_h) // 2 + jitter[0]
    head_h = max(1, round(0.18 * body_h))
    torso_h = max(1, round(0.42 * body_h))
    head_w = max(1, body_w // 2)
    head_x = x0 + (body_w - head_w) // 2
    img[y0 : y0 + head_h, head_x : head_x + head_w] = SKIN
    img[y0 + head_h : y0 + head_h + torso_h, x0 : x0 + body_w] = torso_color
    img[y0 + head_h + torso_h : y0 + body_h, x0 : x0 + body_w] = legs_color

    if occluder is not None:
        oy, ox, oh, ow = occluder
        img[oy : oy + oh, ox : ox + ow] = OCCLUDER_GRAY

    img = np.clip(img * brightness, 0.0, 255.0)
    return np.rint(img).astype(np.uint8).transpose(2, 0, 1)


def _render_tracklet(
    spec: SynthSpec, factors: IdentityFactors, camera: int, rng: np.random.Generator
) -> list[np.ndarray]:
    travel = factors.amplitude
    speed = factors.frequency * travel  # signed pixels per frame
    phase = float(rng.uniform(0.0, travel))
    brightness = _camera_brightness(camera, spec.cameras)
    frames = []
    for t in range(spec.frames_per_tracklet):
        x = int(round((phase + speed * t) % travel))
        if x >= travel:
            x = 0
        jitter = (0, 0)
        if spec.jitter_px:
            jitter = (
                int(rng.integers(-spec.jitter_px, spec.jitter_px + 1)),
                int(rng.integers(-spec.jitter_px, spec.jitter_px + 1)),
            )
        occluder = None
        if spec.occlusion_prob and rng.uniform() < spec.occlusion_prob:
            oh = max(2, spec.frame_height // 4)
            ow = max(2, spec.frame_width // 3)
            oy = int(rng.integers(0, spec.frame_height - oh + 1))
            ox = int(rng.integers(0, spec.frame_width - ow + 1))
            occluder = (oy, ox, oh, ow)
        frames.append(_render_frame(spec, factors, x, jitter, occluder, brightness))
    return frames


def generate(spec: SynthSpec, root: str) -> DatasetManifest:
    """Write the dataset tree plus ``manifest.tsv`` under ``root``.

    Identities below ``n_train`` go to the train split. For the rest, the
    first tracklet of each identity becomes a query and the others gallery,
    with cameras assigned round-robin so every query has a cross-camera
    positive. Fully deterministic for a given spec.
    """
    os.makedirs(root, exist_ok=True)
    factors = identity_factors(spec)
    records: list[TrackletRecord] = []
    lines: list[str] = []
    for identity in range(spec.identities):
        id_rng = np.random.Generator(np.random.PCG64([spec.seed, identity]))
        for index in range(spec.tracklets_per_identity):
            camera = index % spec.cameras
            if identity < spec.n_train:
                split = "train"
            else:
                split = "query" if index == 0 else "gallery"
            rel_dir = os.path.join(split, f"id_{identity:04d}", f"cam{camera}_trk{index:02d}")
            os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
            frames = _render_tracklet(spec, factors[identity], camera, id_rng)
            paths = []
            for f, frame in enumerate(frames):
                rel_path = os.path.join(rel_dir, f"frame_{f:05d}.ppm")
                write_ppm(os.path.join(root, rel_path), frame)
                paths.append(rel_path)
                lines.append(f"{rel_path}\t{identity}\t{camera}\t{split}")
            records.append(TrackletRecord(rel_dir, tuple(paths), identity, camera, split))
    manifest = DatasetManifest(root=root, records=records)
    with open(manifest.path, "w", encoding="utf-8") as fh:
        fh.write("path\tid\tcamera\tsplit\n")
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_manifest(manifest_path: str) -> list[TrackletRecord]:
    """Parse a manifest back into per-tracklet records. Frames belong to one
    tracklet when they share a directory; labels must agree within it."""
    groups: dict[str, tuple[tuple[int, int, str], list[str]]] = {}
    try:
        fh = open(manifest_path, encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{manifest_path}: manifest not found") from None
    except OSError as exc:
        raise DataError(f"{manifest_path}: cannot read manifest: {exc.strerror}") from None
    with fh:
        lines = fh.read().split("\n")
    # a row's key is its directory and label fields; a row with the previous
    # row's key joins that row's group, whose labels were parsed and checked
    last = None
    for line_no, line in enumerate(lines, start=1):
        if not line or line.startswith("path\t"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{manifest_path}:{line_no}: expected 4 tab-separated fields")
        rel_path, id_text, cam_text, split = parts
        directory = parts[0] = os.path.dirname(rel_path)  # parts is now the key
        if parts != last:
            try:
                labels = (int(id_text), int(cam_text), split)
            except ValueError:
                raise DataError(f"{manifest_path}:{line_no}: non-integer id or camera") from None
            if split not in ("train", "query", "gallery"):
                raise DataError(f"{manifest_path}:{line_no}: unknown split {split!r}")
            group = groups.setdefault(directory, (labels, []))
            if group[0] != labels:
                raise DataError(
                    f"{manifest_path}:{line_no}: labels disagree within tracklet {directory}"
                )
            paths = group[1]
            last = parts
        paths.append(rel_path)
    return [TrackletRecord(d, tuple(paths), *labels) for d, (labels, paths) in groups.items()]


def normalization(mean, std) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The per-channel mean and std as (1, 3, 1, 1) float32 arrays, each None
    where it changes nothing: subtracting a zero mean from, or dividing by a
    unit std, values in [0, 1] leaves every bit as it was. Both need 3 entries,
    and no std entry may be zero; ``[data]`` checks its norms here too."""
    if len(mean) != 3 or len(std) != 3:
        raise ConfigError("norm_mean and norm_std must have 3 channel entries")
    mean_arr = np.asarray(mean, dtype=np.float32).reshape(1, 3, 1, 1)
    std_arr = np.asarray(std, dtype=np.float32).reshape(1, 3, 1, 1)
    if np.any(std_arr == 0):
        raise ConfigError("normalization std must be non-zero")
    return (mean_arr if mean_arr.any() else None), (std_arr if (std_arr != 1).any() else None)


def _decode(manifest_path: str, root: str, record: TrackletRecord, mean_arr, std_arr) -> Tracklet:
    """Read one record's frames and normalize them as one stack."""
    frames = []
    for rel_path in record.frame_paths:
        try:
            frame = read_ppm(os.path.join(root, rel_path))
        except FileNotFoundError:
            raise DataError(f"{manifest_path}: referenced frame {rel_path} does not exist") from None
        except OSError as exc:
            raise DataError(f"{manifest_path}: cannot read frame {rel_path}: {exc.strerror}") from None
        if frames and frame.shape != frames[0].shape:
            raise DataError(
                f"{manifest_path}: frame {rel_path} is {frame.shape[1]}x{frame.shape[2]}, but the "
                f"tracklet's first frame is {frames[0].shape[1]}x{frames[0].shape[2]}"
            )
        frames.append(frame)
    stack = np.array(frames, dtype=np.float32)
    stack /= 255.0
    if mean_arr is not None:
        stack -= mean_arr
    if std_arr is not None:
        stack /= std_arr
    return Tracklet(frames=stack, identity=record.identity, camera=record.camera, name=record.directory)


def load_tracklet(
    manifest_path: str,
    record: TrackletRecord,
    mean: tuple[float, float, float] = (0.0, 0.0, 0.0),
    std: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Tracklet:
    """Load one manifest record the way ``load_tracklets`` loads each of a split's."""
    root = os.path.dirname(os.path.abspath(manifest_path))
    return _decode(manifest_path, root, record, *normalization(mean, std))


def load_tracklets(
    manifest_path: str,
    split: str | tuple[str, ...],
    mean: tuple[float, float, float] = (0.0, 0.0, 0.0),
    std: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> list[Tracklet] | tuple[list[Tracklet], ...]:
    """Load one split as float32 tracklets in [0, 1], normalized per channel.
    Frames of one tracklet must share their dims; tracklets may differ.

    Given a tuple of split names, return one list per name, in that order,
    from a single parse of the manifest. Tracklets are decoded one at a time
    in manifest order either way."""
    root = os.path.dirname(os.path.abspath(manifest_path))
    mean_arr, std_arr = normalization(mean, std)
    names = (split,) if isinstance(split, str) else split
    loaded: dict[str, list[Tracklet]] = {name: [] for name in names}
    for record in load_manifest(manifest_path):
        tracklets = loaded.get(record.split)
        if tracklets is not None:
            tracklets.append(_decode(manifest_path, root, record, mean_arr, std_arr))
    return loaded[split] if isinstance(split, str) else tuple(loaded[name] for name in names)


def dataset_channel_mean(tracklets: list[Tracklet]) -> np.ndarray:
    """Per-channel mean over every pixel of every frame, for erase fill."""
    if not tracklets:
        raise ContractError("cannot take the channel mean of zero tracklets")
    totals = np.zeros(3, dtype=np.float64)
    count = 0
    for t in tracklets:
        totals += t.frames.sum(axis=(0, 2, 3))
        count += t.frames.shape[0] * t.frames.shape[2] * t.frames.shape[3]
    return (totals / count).astype(np.float32)


def augment_clip(
    clip: np.ndarray,
    rng: np.random.Generator,
    flip_prob: float = 0.5,
    erase_prob: float = 0.5,
    erase_fill: np.ndarray | tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Clip-consistent horizontal flip plus at most one erased rectangle.

    The same flip decision and the same rectangle apply to every frame of the
    clip, keeping the clip temporally coherent. The rectangle's area fraction
    is drawn from [0.02, 0.4] and its aspect ratio from [0.3, 3.3]."""
    if clip.ndim != 4 or clip.shape[0] != 3:
        raise ContractError(f"expected a clip of dims (3, t, h, w), got {clip.shape}")
    out = clip.copy()
    if rng.uniform() < flip_prob:
        out = out[:, :, :, ::-1].copy()
    if rng.uniform() < erase_prob:
        _, _, h, w = out.shape
        fill = np.asarray(erase_fill, dtype=out.dtype).reshape(3, 1, 1, 1)
        for _ in range(10):
            area = rng.uniform(0.02, 0.4) * h * w
            aspect = rng.uniform(0.3, 3.3)
            eh = int(round(np.sqrt(area * aspect)))
            ew = int(round(np.sqrt(area / aspect)))
            if 0 < eh <= h and 0 < ew <= w:
                ey = int(rng.integers(0, h - eh + 1))
                ex = int(rng.integers(0, w - ew + 1))
                out[:, :, ey : ey + eh, ex : ex + ew] = fill
                break
    return out


def make_batch(
    tracklets: list[Tracklet],
    p: int,
    k: int,
    clip_len: int,
    stride: int,
    rng: np.random.Generator,
    augment=None,
) -> tuple[np.ndarray, np.ndarray]:
    """A P x K batch: P identities, K train-mode clips each.

    Identities are drawn without replacement; tracklets within an identity
    are drawn without replacement when it has at least K, with replacement
    otherwise. Labels are the raw identity numbers.
    """
    by_identity: dict[int, list[Tracklet]] = {}
    for t in tracklets:
        by_identity.setdefault(t.identity, []).append(t)
    identities = sorted(by_identity)
    if len(identities) < p:
        raise ContractError(f"batch wants {p} identities but the pool only has {len(identities)}")
    chosen = rng.choice(np.asarray(identities), size=p, replace=False)
    clips, labels = [], []
    for identity in chosen:
        pool = by_identity[int(identity)]
        picks = rng.choice(len(pool), size=k, replace=len(pool) < k)
        for pick in picks:
            tracklet = pool[int(pick)]
            clip = tracklet.frames[train_clip_indices(len(tracklet), clip_len, stride, rng)].transpose(1, 0, 2, 3)
            if augment is not None:
                clip = augment(clip, rng)
            clips.append(clip)
            labels.append(int(identity))
    return np.stack(clips).astype(np.float32, copy=False), np.asarray(labels, dtype=np.int64)
