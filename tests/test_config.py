"""Config parsing, defaults, validation, digests, and round-trips."""

from dataclasses import fields

import pytest

from fedfbn.config import (
    _PARSERS,
    _SECTIONS,
    ExperimentConfig,
    config_digest,
    load_config,
    node_learning_rates,
    parse_config,
    render_config,
)
from fedfbn.errors import ConfigError


def test_defaults_match_reference_protocol():
    cfg = ExperimentConfig()
    assert cfg.scenario == "iid_complete"
    assert cfg.seed == 42
    assert cfg.rounds == 100
    assert cfg.local_epochs == 1
    assert cfg.batch_size == 64
    assert cfg.lr == 1e-5
    assert cfg.warmup_lr == 1e-3
    assert cfg.pretrain_lr == 1e-3
    assert cfg.n_bootstrap == 1000
    assert cfg.n_labels == 14
    assert cfg.hidden_dims == (64, 32)
    assert cfg.arms == (
        "fedfbn", "fedavg", "fedbn", "local_node0", "local_node1", "centralized",
    )
    assert cfg.weighting == "uniform"
    assert cfg.node_lrs is None


def test_node_learning_rates_rules():
    iid = ExperimentConfig(scenario="iid_complete", lr=2e-5)
    assert node_learning_rates(iid) == (2e-5, 2e-5)
    # non-iid default: the shifted node trains five times hotter
    non_iid = ExperimentConfig(scenario="non_iid_partial", lr=1e-5)
    assert node_learning_rates(non_iid) == (1e-5, 5e-5)
    explicit = ExperimentConfig(
        scenario="non_iid_partial", lr=1e-5, node_lrs=(3e-4, 7e-4)
    )
    assert node_learning_rates(explicit) == (3e-4, 7e-4)


def test_parse_minimal_and_overrides():
    cfg = parse_config(
        "[experiment]\n"
        "scenario = non_iid_partial\n"
        "seed = 7\n"
        "rounds = 3\n"
        "arms = fedfbn, fedavg\n"
        "[data]\n"
        "shift_magnitude = 0.5\n"
        "[training]\n"
        "node_lrs = 0.01, 0.05\n"
    )
    assert cfg.scenario == "non_iid_partial"
    assert cfg.seed == 7
    assert cfg.rounds == 3
    assert cfg.arms == ("fedfbn", "fedavg")
    assert cfg.shift_magnitude == 0.5
    assert cfg.node_lrs == (0.01, 0.05)
    # untouched fields keep defaults
    assert cfg.batch_size == 64


def test_parse_empty_text_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_parse_inline_comments():
    cfg = parse_config(
        "[experiment]\n"
        "rounds = 9  # short run\n"
        "seed = 3 ; alt comment style\n"
    )
    assert cfg.rounds == 9
    assert cfg.seed == 3


def test_parse_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[experiment]\nbudget = 100\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("rounds = 3\n")  # key before any section header


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config("[experiment]\nrounds = soon\n")
    with pytest.raises(ConfigError, match="images_per_patient"):
        parse_config("[data]\nimages_per_patient = 1, 2, 3\n")


def test_validation_rules():
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig(scenario="weird")
    with pytest.raises(ConfigError, match="arms"):
        ExperimentConfig(arms=("fedfbn", "fedsgd"))
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig(arms=("fedfbn", "fedfbn"))
    with pytest.raises(ConfigError, match="n_labels"):
        ExperimentConfig(scenario="iid_partial", n_labels=10)
    with pytest.raises(ConfigError, match="n_labels"):
        ExperimentConfig(scenario="non_iid_complete", n_labels=5)
    with pytest.raises(ConfigError, match="shift_magnitude"):
        ExperimentConfig(scenario="non_iid_complete", shift_magnitude=0.0)
    with pytest.raises(ConfigError, match="two rates"):
        ExperimentConfig(node_lrs=(1e-5,))
    with pytest.raises(ConfigError, match="node_lrs entries must be positive"):
        ExperimentConfig(node_lrs=(-1e-2, 5e-2))
    with pytest.raises(ConfigError, match="batch_size must be >= 2"):
        ExperimentConfig(batch_size=1)
    with pytest.raises(ConfigError, match="n_bootstrap"):
        ExperimentConfig(n_bootstrap=99)
    with pytest.raises(ConfigError, match="rounds"):
        ExperimentConfig(rounds=0)
    with pytest.raises(ConfigError, match="lr"):
        ExperimentConfig(lr=0.0)
    with pytest.raises(ConfigError, match="uncertain_rate"):
        ExperimentConfig(uncertain_rate=1.0)
    nan, inf = float("nan"), float("inf")
    for field, value in (("lr", nan), ("noise_std", nan), ("bn_eps", nan),
                         ("shift_magnitude", inf), ("node_lrs", (nan, 0.05))):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2**64, 10**26])
def test_seed_outside_64_bits_is_refused(seed):
    # the random streams key on 64 bits, so a wider seed would replay another
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
        parse_config(f"[experiment]\nseed = {seed}\n")


def test_largest_64_bit_seed_is_accepted():
    assert parse_config(f"[experiment]\nseed = {2**64 - 1}\n").seed == 2**64 - 1


def test_digest_tracks_text_not_meaning():
    a = "[experiment]\nseed = 1\n"
    b = "[experiment]\nseed = 1\n"
    c = "[experiment]\nseed = 2\n"
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    # even semantically-neutral edits change the digest
    assert config_digest(a) != config_digest(a + "# trailing comment\n")


def test_render_parse_round_trip():
    cfg = ExperimentConfig(
        scenario="non_iid_partial",
        seed=9,
        rounds=17,
        arms=("fedfbn", "local_node0"),
        shift_magnitude=0.75,
        node_lrs=(0.02, 0.1),
        hidden_dims=(8,),
        images_per_patient=(2, 4),
        out_dir="runs%x%%y",
    )
    again = parse_config(render_config(cfg))
    assert again == cfg
    # and rendering is itself deterministic
    assert render_config(again) == render_config(cfg)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nseed = 55\n", encoding="utf-8")
    assert load_config(path).seed == 55
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_every_field_is_settable_from_exactly_one_section():
    keys = [key for section in _SECTIONS.values() for key in section]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    # a field whose annotation has no parser could not be read back
    assert {f.type for f in fields(ExperimentConfig)} <= set(_PARSERS)
