import pytest

from strf.config import (
    RunConfig,
    branches_from_tokens,
    network_spec_from,
    parse_config,
    parse_config_text,
    strf_config_from,
    synth_spec_from,
    with_overrides,
)
from strf.errors import ConfigError
from strf.factorize import BRANCH_ORDER


def test_empty_text_yields_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()


def test_training_recipe_defaults():
    cfg = RunConfig()
    assert cfg.train.lr == 3e-4
    assert cfg.train.weight_decay == 5e-4
    assert cfg.train.epochs == 250
    assert cfg.train.lr_decay_epochs == 50
    assert cfg.train.lr_decay_factor == 0.1
    assert (cfg.train.batch_p, cfg.train.batch_k) == (8, 4)
    assert (cfg.train.clip_len, cfg.train.clip_stride) == (4, 8)
    assert cfg.train.margin == 0.3


def test_model_defaults():
    cfg = RunConfig()
    assert cfg.model.classes == 625
    assert cfg.model.reduction == 16
    assert cfg.model.temperature == 4.0
    assert (cfg.model.r_fine, cfg.model.r_coarse) == (1, 3)
    assert cfg.model.pool_fine == "max" and cfg.model.pool_coarse == "max"
    assert cfg.model.integration == "temporal-then-spatial"
    assert cfg.model.strf_stages == (2, 3)
    assert cfg.model.variant == "p3d-c"


def test_parse_sections_and_comments():
    cfg = parse_config_text(
        """
        # run settings
        [train]
        lr = 0.001   # bumped
        batch_p = 2
        batch_k = 2

        [model]
        width_div = 16
        blocks = 1, 1, 1, 1
        branches = temporal-fine, spatial-coarse
        """
    )
    assert cfg.train.lr == 0.001
    assert cfg.model.width_div == 16
    assert cfg.model.blocks == (1, 1, 1, 1)
    assert cfg.model.branches == ("temporal-fine", "spatial-coarse")


def test_unknown_section_names_line():
    with pytest.raises(ConfigError, match="conf.ini:2: unknown section"):
        parse_config_text("\n[optimizer]\n", source="conf.ini")


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=":3: unknown key 'speed'"):
        parse_config_text("\n[train]\nspeed = 9\n")


def test_bad_value_names_line():
    with pytest.raises(ConfigError, match=":2: cannot parse value 'fast'"):
        parse_config_text("[train]\nlr = fast\n")


def test_key_outside_section():
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("lr = 1\n")


def test_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("[train]\nlr 5\n")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="integration"):
        parse_config_text("[model]\nintegration = diagonal\n")
    with pytest.raises(ConfigError, match="pool"):
        parse_config_text("[model]\npool_fine = median\n")
    with pytest.raises(ConfigError, match="branch"):
        parse_config_text("[model]\nbranches = temporal-fuzzy\n")
    with pytest.raises(ConfigError, match="lr"):
        parse_config_text("[train]\nlr = -1\n")
    with pytest.raises(ConfigError, match="flip_prob"):
        parse_config_text("[train]\nflip_prob = 2\n")
    with pytest.raises(ConfigError, match="norm_mean"):
        parse_config_text("[data]\nnorm_mean = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match="max_rank"):
        parse_config_text("[eval]\nmax_rank = 0\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("[model]\nwidth_div = 0\n", "width divisor must be >= 1"),
        ("[model]\nwidth_div = -16\n", "width divisor must be >= 1"),
        ("[model]\nwidth_div = 3\n", "width divisor 3 does not divide"),
        ("[model]\nvariant = bogus\nvariant_stages =\nstrf_stages =\n", "variant must be one of"),
        ("[model]\nblocks = 1, 1, 1\n", "blocks must list 4"),
        ("[model]\nr_fine = 2\nr_coarse = 3\n", "odd and positive"),
        ("[data]\nsynth_identities = 3\n", "even identity count"),
        ("[data]\nsynth_pairing = twins\n", "pairing"),
        ("[train]\nsteps_per_epoch = -1\n", "steps_per_epoch must be >= 0"),
        ("[train]\nmax_steps = -1\n", "max_steps must be >= 0"),
        ("[train]\ncheckpoint_every = -1\n", "checkpoint_every must be >= 0"),
        ("[train]\nlog_every = 0\n", "log_every must be >= 1"),
        ("[eval]\nbatch_size = 0\n", "batch_size must be >= 1"),
        ("[eval]\nranks = 0, 2\n", "ranks entry must be >= 1, got 0"),
        ("[eval]\nranks = 1, -5\n", "ranks entry must be >= 1, got -5"),
    ],
)
def test_rejected_at_parse(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


def test_parse_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nseed = 42\n")
    assert parse_config(str(path)).train.seed == 42
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "absent.cfg"))


def test_branch_tokens():
    assert branches_from_tokens(("all",)) == BRANCH_ORDER
    assert branches_from_tokens(()) == BRANCH_ORDER
    assert branches_from_tokens(("spatial-fine",)) == (("spatial", "fine"),)
    assert branches_from_tokens(("temporal-coarse", "temporal-fine")) == (
        ("temporal", "coarse"),
        ("temporal", "fine"),
    )
    with pytest.raises(ConfigError, match="vertical-fine"):
        branches_from_tokens(("vertical-fine",))


def test_strf_config_builder_mirrors_model():
    cfg = parse_config_text(
        "[model]\nr_coarse = 5\npool_coarse = avg\ntemperature = 2.5\nintegration = parallel\n"
    )
    strf = strf_config_from(cfg.model)
    assert strf.r_coarse == 5
    assert strf.pool_coarse == "avg"
    assert strf.temperature == 2.5
    assert strf.integration == "parallel"
    assert strf.branches == BRANCH_ORDER


def test_network_spec_builder():
    cfg = parse_config_text("[model]\nwidth_div = 16\nblocks = 1, 1, 1, 1\nclasses = 9\n")
    spec = network_spec_from(cfg.model)
    assert spec.classes == 9
    assert [s.width for s in spec.stages] == [16, 32, 64, 128]
    assert network_spec_from(cfg.model, classes=3).classes == 3
    with pytest.raises(ConfigError, match="blocks"):
        network_spec_from(cfg.model.__class__(blocks=(1, 1)))


def test_synth_spec_builder():
    cfg = parse_config_text(
        "[data]\nsynth_identities = 4\nsynth_height = 32\nsynth_width = 16\n"
        "synth_frames = 8\nsynth_tracklets = 2\nsynth_train_identities = 2\n"
    )
    spec = synth_spec_from(cfg.data)
    assert spec.identities == 4
    assert spec.n_train == 2
    # the -1 sentinel defers to the half-split default
    default = parse_config_text("[data]\nsynth_identities = 6\n")
    assert synth_spec_from(default.data).n_train == 3


def test_with_overrides():
    cfg = RunConfig()
    bumped = with_overrides(cfg, train={"lr": 1e-2}, model={"classes": 10})
    assert bumped.train.lr == 1e-2
    assert bumped.model.classes == 10
    assert cfg.train.lr == 3e-4  # original untouched
    with pytest.raises(ConfigError):
        with_overrides(cfg, optimizer={"lr": 1.0})
