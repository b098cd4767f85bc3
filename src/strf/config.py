"""Run configuration: a small INI-style file with typed, closed schemas.

Files hold ``key = value`` lines under ``[model]``, ``[train]``, ``[data]``
and ``[eval]`` sections; ``#`` starts a comment. Unknown sections or keys are
rejected with their line number, as are values that fail to parse. Every key
has a default, so the empty file is a valid configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .factorize import BRANCH_ORDER, StrfConfig
from .backbone import NetworkSpec, resnet50_spec
from .synthdata import SynthSpec


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "p3d-c"
    variant_stages: tuple[int, ...] = (2, 3)
    strf_stages: tuple[int, ...] = (2, 3)
    width_div: int = 1
    blocks: tuple[int, ...] = (3, 4, 6, 3)
    classes: int = 625
    r_fine: int = 1
    r_coarse: int = 3
    pool_fine: str = "max"
    pool_coarse: str = "max"
    integration: str = "temporal-then-spatial"
    reduction: int = 16
    temperature: float = 4.0
    branches: tuple[str, ...] = ("all",)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 5e-4
    epochs: int = 250
    lr_decay_epochs: int = 50
    lr_decay_factor: float = 0.1
    batch_p: int = 8
    batch_k: int = 4
    clip_len: int = 4
    clip_stride: int = 8
    margin: float = 0.3
    seed: int = 0
    max_steps: int = 0
    steps_per_epoch: int = 0
    flip_prob: float = 0.5
    erase_prob: float = 0.5
    checkpoint_every: int = 0
    log_every: int = 1


@dataclass(frozen=True)
class DataConfig:
    manifest: str = ""
    norm_mean: tuple[float, ...] = (0.0, 0.0, 0.0)
    norm_std: tuple[float, ...] = (1.0, 1.0, 1.0)
    synth_identities: int = 8
    synth_tracklets: int = 4
    synth_frames: int = 16
    synth_height: int = 64
    synth_width: int = 32
    synth_cameras: int = 2
    synth_pairing: str = "appearance"
    synth_occlusion: float = 0.0
    synth_jitter: int = 0
    synth_train_identities: int = -1
    synth_seed: int = 0


@dataclass(frozen=True)
class EvalConfig:
    max_rank: int = 20
    ranks: tuple[int, ...] = (1, 5, 10, 20)
    batch_size: int = 16


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _tuple_of(cast):
    def parse(text: str) -> tuple:
        text = text.strip()
        return tuple(cast(part.strip()) for part in text.split(",")) if text else ()

    return parse


_SECTION_TYPES = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig, "eval": EvalConfig}

# annotations are strings here (future import), so the schema keys are too
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
    "tuple[str, ...]": _tuple_of(str),
}


def _field_parser(section_cls, key: str):
    types = {f.name: f.type for f in fields(section_cls)}
    return _PARSERS.get(types.get(key))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    sections: dict[str, dict] = {name: {} for name in _SECTION_TYPES}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"{source}:{line_no}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{source}:{line_no}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _field_parser(_SECTION_TYPES[current], key)
        if parser is None:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in [{current}]")
        try:
            sections[current][key] = parser(value)
        except ValueError:
            raise ConfigError(f"{source}:{line_no}: cannot parse value {value!r} for {key!r}") from None
    cfg = RunConfig(**{name: cls(**sections[name]) for name, cls in _SECTION_TYPES.items()})
    validate_config(cfg)
    return cfg


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    return parse_config_text(text, source=path)


_BRANCH_TOKENS = {f"{d}-{k}": (d, k) for d, k in BRANCH_ORDER}


def branches_from_tokens(tokens: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    if tokens == ("all",) or not tokens:
        return BRANCH_ORDER
    out = []
    for token in tokens:
        if token not in _BRANCH_TOKENS:
            raise ConfigError(
                f"unknown branch {token!r}; choose from {sorted(_BRANCH_TOKENS)} or 'all'"
            )
        out.append(_BRANCH_TOKENS[token])
    return tuple(out)


def strf_config_from(model: ModelConfig) -> StrfConfig:
    return StrfConfig(
        r_fine=model.r_fine,
        r_coarse=model.r_coarse,
        pool_fine=model.pool_fine,
        pool_coarse=model.pool_coarse,
        integration=model.integration,
        reduction=model.reduction,
        temperature=model.temperature,
        branches=branches_from_tokens(model.branches),
    )


def network_spec_from(model: ModelConfig, classes: int | None = None) -> NetworkSpec:
    return resnet50_spec(
        classes=classes if classes is not None else model.classes,
        variant=model.variant,
        strf_stages=model.strf_stages,
        variant_stages=model.variant_stages,
        width_div=model.width_div,
        blocks=model.blocks,
        strf_cfg=strf_config_from(model),
    )


def synth_spec_from(data: DataConfig) -> SynthSpec:
    return SynthSpec(
        identities=data.synth_identities,
        tracklets_per_identity=data.synth_tracklets,
        frames_per_tracklet=data.synth_frames,
        frame_height=data.synth_height,
        frame_width=data.synth_width,
        cameras=data.synth_cameras,
        pairing=data.synth_pairing,
        occlusion_prob=data.synth_occlusion,
        jitter_px=data.synth_jitter,
        train_identities=None if data.synth_train_identities < 0 else data.synth_train_identities,
        seed=data.synth_seed,
    )


def validate_config(cfg: RunConfig) -> None:
    """Check the settings no spec owns, then build the network and synth
    specs, which check the rest."""
    train, ev = cfg.train, cfg.eval
    for name, value in (
        ("lr", train.lr),
        ("weight_decay", train.weight_decay),
        ("margin", train.margin),
        ("steps_per_epoch", train.steps_per_epoch),
        ("max_steps", train.max_steps),
        ("checkpoint_every", train.checkpoint_every),
    ):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    for name, value in (
        ("epochs", train.epochs),
        ("batch_p", train.batch_p),
        ("batch_k", train.batch_k),
        ("clip_len", train.clip_len),
        ("clip_stride", train.clip_stride),
        ("log_every", train.log_every),
        ("max_rank", ev.max_rank),
        ("batch_size", ev.batch_size),
        *(("ranks entry", k) for k in ev.ranks),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if not 0.0 <= train.flip_prob <= 1.0 or not 0.0 <= train.erase_prob <= 1.0:
        raise ConfigError("flip_prob and erase_prob must lie in [0, 1]")
    if len(cfg.data.norm_mean) != 3 or len(cfg.data.norm_std) != 3:
        raise ConfigError("norm_mean and norm_std must have 3 channel entries")
    network_spec_from(cfg.model)
    synth_spec_from(cfg.data)


def with_overrides(cfg: RunConfig, **section_updates) -> RunConfig:
    """Functional update helper: with_overrides(cfg, train={'lr': 1e-3})."""
    parts = {}
    for name, updates in section_updates.items():
        if name not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section {name!r}")
        parts[name] = replace(getattr(cfg, name), **updates)
    return replace(cfg, **parts)
