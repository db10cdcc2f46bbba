"""Experiment configuration: a strict INI schema, full-protocol defaults.

Four sections are recognized (all optional, every key has a default):

  [experiment]  scenario, seed, rounds, arms, n_bootstrap
  [data]        n_patients_per_node, latent_dim, feature_dim, n_labels,
                shift_magnitude, noise_std, uncertain_rate, images_per_patient
  [model]       hidden_dims, bn_momentum, bn_eps
  [training]    local_epochs, batch_size, lr, node_lrs, warmup_epochs,
                warmup_lr, pretrain_epochs, pretrain_lr, weighting

Unknown sections or keys are refused outright so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass

from .errors import ConfigError

SCENARIOS = (
    "iid_complete",
    "iid_partial",
    "non_iid_complete",
    "non_iid_partial",
)

ARMS = (
    "fedfbn",
    "fedavg",
    "fedbn",
    "local_node0",
    "local_node1",
    "centralized",
)

WEIGHTINGS = ("uniform", "by_samples")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "iid_complete"
    seed: int = 42
    rounds: int = 100
    arms: tuple[str, ...] = ARMS
    n_bootstrap: int = 1000
    out_dir: str = "runs"

    n_patients_per_node: int = 2000
    latent_dim: int = 16
    feature_dim: int = 32
    n_labels: int = 14
    shift_magnitude: float = 1.0
    noise_std: float = 0.25
    uncertain_rate: float = 0.05
    images_per_patient: tuple[int, int] = (1, 3)

    hidden_dims: tuple[int, ...] = (64, 32)
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    local_epochs: int = 1
    batch_size: int = 64
    lr: float = 1e-5
    node_lrs: tuple[float, ...] | None = None
    warmup_epochs: int = 2
    warmup_lr: float = 1e-3
    pretrain_epochs: int = 2
    pretrain_lr: float = 1e-3
    weighting: str = "uniform"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario '{self.scenario}'; choose one of {SCENARIOS}"
            )
        bad = [a for a in self.arms if a not in ARMS]
        if bad or not self.arms:
            raise ConfigError(f"unknown arms {bad}; choose from {ARMS}")
        if len(set(self.arms)) != len(self.arms):
            raise ConfigError("duplicate arm names")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.n_bootstrap < 100:
            raise ConfigError("n_bootstrap must be >= 100")
        if self.node_lrs is not None and len(self.node_lrs) != 2:
            raise ConfigError("node_lrs must list exactly two rates")
        for name in (
            "n_patients_per_node",
            "latent_dim",
            "feature_dim",
            "n_labels",
            "local_epochs",
            "batch_size",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.warmup_epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError("warm-up and pretrain epochs must be >= 0")
        for name in ("lr", "warmup_lr", "pretrain_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 <= self.uncertain_rate < 1.0):
            raise ConfigError("uncertain_rate must lie in [0, 1)")
        if self.shift_magnitude < 0 or self.noise_std < 0:
            raise ConfigError("shift_magnitude and noise_std must be >= 0")
        if self.scenario in ("iid_partial", "non_iid_partial") and self.n_labels != 14:
            raise ConfigError(
                "partial-label scenarios use the fixed 11/7-label overlap "
                "topology and need n_labels = 14"
            )
        if self.scenario == "non_iid_complete" and self.n_labels < 7:
            raise ConfigError("non_iid_complete trains a 7-label subset; "
                              "n_labels must be >= 7")
        if self.scenario.startswith("non_iid") and self.shift_magnitude == 0:
            raise ConfigError("non-iid scenarios need a nonzero shift_magnitude")


def node_learning_rates(cfg: "ExperimentConfig") -> tuple[float, float]:
    """Per-node rates: explicit node_lrs wins; non-iid defaults to a 5x
    spread anchored at lr (1e-5/5e-5 at the stock settings); iid uses lr
    for both nodes."""
    if cfg.node_lrs is not None:
        return (cfg.node_lrs[0], cfg.node_lrs[1])
    if cfg.scenario.startswith("non_iid"):
        return (cfg.lr, 5.0 * cfg.lr)
    return (cfg.lr, cfg.lr)


# section -> key -> (parser, target field)
def _ident(x: str) -> str:
    return x.strip()


def _int(x: str) -> int:
    try:
        return int(x)
    except ValueError:
        raise ConfigError(f"expected an integer, got '{x}'") from None


def _float(x: str) -> float:
    try:
        return float(x)
    except ValueError:
        raise ConfigError(f"expected a number, got '{x}'") from None


def _int_pair(x: str) -> tuple[int, int]:
    parts = [p.strip() for p in x.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated integers, got '{x}'")
    return (_int(parts[0]), _int(parts[1]))


def _int_list(x: str) -> tuple[int, ...]:
    return tuple(_int(p) for p in x.split(",") if p.strip())


def _float_list(x: str) -> tuple[float, ...] | None:
    vals = tuple(_float(p) for p in x.split(",") if p.strip())
    return vals or None


def _str_list(x: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in x.split(",") if p.strip())


_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "scenario": (_ident, "scenario"),
        "seed": (_int, "seed"),
        "rounds": (_int, "rounds"),
        "arms": (_str_list, "arms"),
        "n_bootstrap": (_int, "n_bootstrap"),
        "out_dir": (_ident, "out_dir"),
    },
    "data": {
        "n_patients_per_node": (_int, "n_patients_per_node"),
        "latent_dim": (_int, "latent_dim"),
        "feature_dim": (_int, "feature_dim"),
        "n_labels": (_int, "n_labels"),
        "shift_magnitude": (_float, "shift_magnitude"),
        "noise_std": (_float, "noise_std"),
        "uncertain_rate": (_float, "uncertain_rate"),
        "images_per_patient": (_int_pair, "images_per_patient"),
    },
    "model": {
        "hidden_dims": (_int_list, "hidden_dims"),
        "bn_momentum": (_float, "bn_momentum"),
        "bn_eps": (_float, "bn_eps"),
    },
    "training": {
        "local_epochs": (_int, "local_epochs"),
        "batch_size": (_int, "batch_size"),
        "lr": (_float, "lr"),
        "node_lrs": (_float_list, "node_lrs"),
        "warmup_epochs": (_int, "warmup_epochs"),
        "warmup_lr": (_float, "warmup_lr"),
        "pretrain_epochs": (_int, "pretrain_epochs"),
        "pretrain_lr": (_float, "pretrain_lr"),
        "weighting": (_ident, "weighting"),
    },
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into an ExperimentConfig, refusing unknown names."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            convert, field_name = _SCHEMA[section][key]
            try:
                overrides[field_name] = convert(raw)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig(**overrides)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def config_digest(text: str) -> str:
    """SHA-256 of the raw config text; recorded in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_config(cfg: ExperimentConfig) -> str:
    """Write the full config back out as INI (inverse of parse_config)."""
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (_, field_name) in keys.items():
            value = getattr(cfg, field_name)
            if value is None:
                continue
            if isinstance(value, tuple):
                parser.set(section, key, ",".join(str(v) for v in value))
            else:
                parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
