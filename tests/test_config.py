import os

import pytest

from bitcycle.checkpoint import load_checkpoint
from bitcycle.config import (
    DATA_ROOT_ENV,
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config_text,
)
from bitcycle.schedule import model_from_checkpoint, run_schedule

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_defaults_materialize():
    cfg = RunConfig()
    assert cfg["schedule.target_k"] == 1
    assert cfg["schedule.start_bits"] == 8
    assert cfg["schedule.cycles"] == 9
    assert cfg["model.stage_channels"] == (16, 32, 64, 128)
    assert cfg["optimizer.kind"] == "adam"
    assert cfg["data.format"] == "synthetic"


def test_parse_basic_and_comments():
    raw = parse_config_text(
        "\n"
        "# a comment\n"
        "schedule.target_k = 2\n"
        "data.batch_size = 64   # trailing comment\n"
        "model.stage_channels = 8, 16\n"
        "model.blocks_per_stage = 1, 1\n"
    )
    cfg = RunConfig(raw)
    assert cfg["schedule.target_k"] == 2
    assert cfg["data.batch_size"] == 64
    assert cfg["model.stage_channels"] == (8, 16)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r":3: unknown key 'schedule.tarrget_k'"):
        parse_config_text("\n\nschedule.tarrget_k = 2\n")


def test_duplicate_key_reports_both_lines():
    text = "run.seed = 1\nrun.seed = 2\n"
    with pytest.raises(ConfigError, match=r":2: duplicate key 'run.seed' \(first set on line 1\)"):
        parse_config_text(text)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("run.seed 3\n")


def test_bad_value_names_key():
    raw = parse_config_text("run.seed = banana\n")
    with pytest.raises(ConfigError, match="bad value for 'run.seed'"):
        RunConfig(raw)


def test_bad_bool_value():
    raw = parse_config_text("data.augment = perhaps\n")
    with pytest.raises(ConfigError, match="data.augment"):
        RunConfig(raw)


def test_overrides_win():
    raw = parse_config_text("run.seed = 1\n")
    merged = apply_overrides(raw, ["run.seed=7", "data.batch_size=32"])
    cfg = RunConfig(merged)
    assert cfg["run.seed"] == 7
    assert cfg["data.batch_size"] == 32


def test_override_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'nope.nope'"):
        apply_overrides({}, ["nope.nope=1"])


def test_override_without_equals():
    with pytest.raises(ConfigError, match="not of the form key=value"):
        apply_overrides({}, ["runseed7"])


def test_digest_ignores_ordering_and_comments():
    a = RunConfig(parse_config_text("run.seed = 3\ndata.batch_size = 64\n"))
    b = RunConfig(parse_config_text("# hi\ndata.batch_size = 64\nrun.seed = 3\n"))
    assert a.digest() == b.digest()


def test_digest_changes_with_values():
    a = RunConfig(parse_config_text("run.seed = 3\n"))
    b = RunConfig(parse_config_text("run.seed = 4\n"))
    assert a.digest() != b.digest()


def test_canonical_text_round_trips():
    cfg = RunConfig(parse_config_text("run.seed = 9\noptimizer.lr_base = 0.02\n"))
    again = RunConfig(parse_config_text(cfg.canonical_text()))
    assert again.digest() == cfg.digest()
    assert again.values == cfg.values


def test_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("schedule.mode = single\nschedule.bit_depth = 4\nschedule.epochs = 2\n")
    cfg = RunConfig.from_file(str(path), overrides=["run.seed=5"])
    assert cfg["schedule.bit_depth"] == 4
    assert cfg["run.seed"] == 5


def test_typed_views():
    cfg = RunConfig(parse_config_text(
        "model.stage_channels = 4,8\n"
        "model.blocks_per_stage = 1,1\n"
        "model.num_classes = 4\n"
        "optimizer.kind = sgd\n"
        "optimizer.lr_base = 0.01\n"
    ))
    mc = cfg.model_config(bit_depth=2)
    assert mc.bit_depth == 2
    assert mc.stage_channels == (4, 8)
    oc = cfg.optimizer_config()
    assert oc.kind == "sgd" and oc.lr_base == 0.01


@pytest.mark.parametrize("line", [
    "schedule.mode = sometimes",
    "data.format = tarball",
    "schedule.target_k = 0",
    "schedule.target_k = 33",
    "data.batch_size = 0",
    "schedule.cycles = -1",
    "optimizer.kind = adagrad",
    "model.block_kind = type3",
    "run.checkpoint_every = 0",
    "data.eval_batch_size = -1",
    "data.pad = -1",
    "data.flip_prob = 1.5",
    "schedule.target_k = 32",
    "schedule.start_bits = 1",
    "model.in_channels = 0",
    "data.train_per_class = -3",
    "data.eval_per_class = -1",
])
def test_semantic_validation(line):
    with pytest.raises(ConfigError):
        RunConfig(parse_config_text(line + "\n"))


@pytest.mark.parametrize("name,digest", [
    ("cifar10_ctmq.cfg", "41ea703a9ae8fd52183e739ae02997e1917a9d9a6434c9eeca515720561df983"),
    ("smoke_synth.cfg", "6c4c7ff3105752a736637f2ecc6f49b1cc27353d9ec67815c8cf679715e47306"),
    ("synthetic_benefit.cfg", "ef81e8c9ce2c96d8132e4c7fdb957361c525b2c8f39ef24ac8aa234baa2257ea"),
])
def test_committed_config_digests_are_pinned(name, digest):
    # a run's digest is part of its checkpoints; a schema change must not move it
    assert RunConfig.from_file(os.path.join(CONFIGS, name)).digest() == digest


def test_data_root_env_fallback(monkeypatch):
    cfg = RunConfig(parse_config_text("data.format = cifar\n"))
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    assert cfg.data_root() == ""
    monkeypatch.setenv(DATA_ROOT_ENV, "/tmp/somewhere")
    assert cfg.data_root() == "/tmp/somewhere"
    explicit = RunConfig(parse_config_text("data.root = /srv/data\n"))
    assert explicit.data_root() == "/srv/data"


def test_dict_string_bool_parses_like_config_text():
    assert RunConfig({"data.augment": "false"})["data.augment"] is False
    assert RunConfig({"data.augment": "false"}).digest() == RunConfig({"data.augment": False}).digest()


def test_dict_value_its_key_cannot_hold_is_refused():
    with pytest.raises(ConfigError, match="bad value for 'data.batch_size'"):
        RunConfig({"data.batch_size": 12.5})


def test_dict_unknown_key_is_refused():
    with pytest.raises(ConfigError, match="unknown key 'schedule.tarrget_k'"):
        RunConfig({"schedule.tarrget_k": 2})


def test_list_valued_config_round_trips_and_its_checkpoint_reloads(tmp_path):
    cfg = RunConfig({
        "model.stage_channels": [4, 8],
        "model.blocks_per_stage": [1, 1],
        "model.num_classes": 4,
        "data.synth_classes": 4,
        "data.synth_per_class": 8,
        "data.synth_size": 12,
        "data.batch_size": 16,
        "schedule.mode": "single",
        "schedule.bit_depth": 2,
        "schedule.epochs": 1,
        "run.out_dir": str(tmp_path / "run"),
    })
    assert cfg["model.stage_channels"] == (4, 8)
    raw = {**parse_config_text(cfg.canonical_text()), "run.out_dir": cfg["run.out_dir"]}
    assert RunConfig(raw).values == cfg.values
    run_schedule(cfg)
    model, cfg_back = model_from_checkpoint(load_checkpoint(str(tmp_path / "run" / "checkpoint.bin")))
    assert cfg_back.digest() == cfg.digest()
    assert model.cfg.stage_channels == (4, 8)


@pytest.mark.parametrize("key,value", [
    ("data.root", "/data/run#1"),
    ("schedule.initial_weights", " w.bin"),
    ("data.root", "/data/ "),
    ("data.root", "/data\nrun.seed = 5"),
    ("data.root", "/data\r"),
])
def test_string_config_text_cannot_carry_is_refused(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        RunConfig({key: value})


def test_override_with_a_comment_sign_is_refused(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("data.format = cifar\n")
    with pytest.raises(ConfigError, match="'data.root'"):
        RunConfig.from_file(str(path), overrides=["data.root=/x#y"])


def test_out_dir_is_not_config_text_and_stays_free():
    assert RunConfig({"run.out_dir": " runs/a#1 "})["run.out_dir"] == " runs/a#1 "
