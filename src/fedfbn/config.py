"""Experiment configuration: a strict INI schema, full-protocol defaults.

Four sections are recognized, ``[experiment]``, ``[data]``, ``[model]`` and
``[training]``; ``_SECTIONS`` lists their keys, each an ``ExperimentConfig``
field whose annotation picks its parser. All are optional, every key has a
default. Unknown sections or keys are refused outright so typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

from .datagen import split_bounds
from .errors import ConfigError
from .network import ModelSpec

# scenario -> (whether each node gets its own shifted domain, label layout).
# A layout is (node0 labels, node1 labels, {view: labels}); each entry is a
# slice of the one `label-topology` permutation of the label names, or None
# for every label in name order.
SCENARIOS = {
    "iid_complete": (False, (None, None, {"all": None})),
    "iid_partial": (False, (slice(0, 11), slice(7, 14), {
        "all": None, "shared": slice(7, 11), "node0": slice(0, 11), "node1": slice(7, 14)})),
    "non_iid_complete": (True, (slice(0, 7), slice(0, 7), {"shared": slice(0, 7)})),
    "non_iid_partial": (True, (slice(0, 11), slice(7, 14), {
        "all": None, "shared": slice(7, 11), "node0": slice(0, 11), "node1": slice(7, 14)})),
}
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train, validation, test: every patient split of a scenario

# LabelModel.sample draws the labels one at a time in Python (~50 us each)
MAX_LABELS = 1000

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
        # a NaN passes every range check below, since its comparisons are False
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        for name, value in floats + [("node_lrs", v) for v in self.node_lrs or ()]:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # RngStream keys on 64 bits; a wider seed would replay another seed's run
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario '{self.scenario}'; choose one of {tuple(SCENARIOS)}"
            )
        if not self.arms:
            raise ConfigError(f"arms must name at least one arm; choose from {ARMS}")
        bad = [a for a in self.arms if a not in ARMS]
        if bad:
            raise ConfigError(f"unknown arms {bad}; choose from {ARMS}")
        if len(set(self.arms)) != len(self.arms):
            raise ConfigError("duplicate arm names")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        # every report keeps each replicate mean, so memory grows with the count
        if not 100 <= self.n_bootstrap <= 100_000:
            raise ConfigError(f"n_bootstrap must lie in [100, 100000], got {self.n_bootstrap}")
        if self.node_lrs is not None and len(self.node_lrs) != 2:
            raise ConfigError("node_lrs must list exactly two rates")
        if self.node_lrs is not None and min(self.node_lrs) <= 0:
            raise ConfigError("node_lrs entries must be positive")
        for name in (
            "n_patients_per_node",
            "latent_dim",
            "feature_dim",
            "n_labels",
            "local_epochs",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_labels > MAX_LABELS:
            raise ConfigError(f"n_labels must be <= {MAX_LABELS}, got {self.n_labels}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2: batch statistics need two rows")
        if self.warmup_epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError("warm-up and pretrain epochs must be >= 0")
        for name in ("lr", "warmup_lr", "pretrain_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 <= self.uncertain_rate < 1.0):
            raise ConfigError("uncertain_rate must lie in [0, 1)")
        if self.shift_magnitude < 0 or self.noise_std < 0:
            raise ConfigError("shift_magnitude and noise_std must be >= 0")
        shifted, (node0, node1, views) = SCENARIOS[self.scenario]
        stop = max((p.stop for p in (node0, node1, *views.values()) if p is not None), default=1)
        # a view of every label over sliced node parts needs each label trained
        exact = None in views.values() and None not in (node0, node1)
        if self.n_labels < stop or (exact and self.n_labels != stop):
            raise ConfigError(
                f"{self.scenario} lays out labels 0..{stop - 1}; n_labels must "
                f"{'equal' if exact else 'be >='} {stop}, got {self.n_labels}"
            )
        if shifted and self.shift_magnitude == 0:
            raise ConfigError("non-iid scenarios need a nonzero shift_magnitude")
        # iid then halves train and validation: 2 patients of each stratum a half
        pool = self.n_patients_per_node * (1 if shifted else 2)
        bounds = split_bounds(pool, SPLIT_FRACTIONS)
        parts = [stop - start for start, stop in zip(bounds, bounds[1:])]
        least = [1, 1, 1] if shifted else [4, 4, 1]
        if any(part < low for part, low in zip(parts, least)):
            raise ConfigError(f"n_patients_per_node = {self.n_patients_per_node} splits {pool} "
                              f"patients into parts of {parts}; {self.scenario} needs {least}")
        self.model_spec()  # the [model] settings must make a network

    def model_spec(self) -> ModelSpec:
        """The network these settings describe, before any head is attached."""
        return ModelSpec(self.feature_dim, self.hidden_dims, (), self.bn_momentum, self.bn_eps)


def node_learning_rates(cfg: "ExperimentConfig") -> tuple[float, float]:
    """Per-node rates: explicit node_lrs wins; non-iid defaults to a 5x
    spread anchored at lr (1e-5/5e-5 at the stock settings); iid uses lr
    for both nodes."""
    if cfg.node_lrs is not None:
        return (cfg.node_lrs[0], cfg.node_lrs[1])
    if SCENARIOS[cfg.scenario][0]:
        return (cfg.lr, 5.0 * cfg.lr)
    return (cfg.lr, cfg.lr)


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


# field annotation -> parser of its INI text
_PARSERS = {
    "str": str.strip,
    "int": _int,
    "float": _float,
    "tuple[str, ...]": _str_list,
    "tuple[int, int]": _int_pair,
    "tuple[int, ...]": _int_list,
    "tuple[float, ...] | None": _float_list,
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}

# section -> its keys, each the name of an ExperimentConfig field
_SECTIONS = {
    "experiment": ("scenario", "seed", "rounds", "arms", "n_bootstrap", "out_dir"),
    "data": ("n_patients_per_node", "latent_dim", "feature_dim", "n_labels",
             "shift_magnitude", "noise_std", "uncertain_rate", "images_per_patient"),
    "model": ("hidden_dims", "bn_momentum", "bn_eps"),
    "training": ("local_epochs", "batch_size", "lr", "node_lrs", "warmup_epochs",
                 "warmup_lr", "pretrain_epochs", "pretrain_lr", "weighting"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into an ExperimentConfig, refusing unknown names.

    Values are literal text: ``%`` is not interpolated.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_SECTIONS)}"
            )
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                overrides[key] = _PARSERS[_FIELD_TYPES[key]](raw)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig(**overrides)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None


def config_digest(text: str) -> str:
    """SHA-256 of the raw config text; recorded in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_config(cfg: ExperimentConfig) -> str:
    """Write the full config back out as INI (inverse of parse_config)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            value = getattr(cfg, key)
            if value is None:
                continue
            if isinstance(value, tuple):
                parser.set(section, key, ",".join(str(v) for v in value))
            else:
                parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
