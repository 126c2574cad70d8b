"""Experiment configuration: a flat dotted-key table with typed defaults.

Sources, in increasing precedence: built-in defaults, config file lines
("key = value", # comments allowed), then CLI flag overrides; the
environment is not read.  Unset path keys are derived from data.dir after
merging, so a config file is optional.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Mapping

from .errors import UsageError

# key -> (type tag, default)
KNOWN_KEYS: dict[str, tuple[str, object]] = {
    "seed": ("int", 7),
    "data.dir": ("str", "runs/toy"),
    "data.train_src": ("str", ""),
    "data.train_ref": ("str", ""),
    "data.train_m2": ("str", ""),
    "data.dev_src": ("str", ""),
    "data.dev_ref": ("str", ""),
    "data.dev_m2": ("str", ""),
    "data.test_src": ("str", ""),
    "data.test_ref": ("str", ""),
    "data.test_m2": ("str", ""),
    "gen.train": ("int", 150),
    "gen.dev": ("int", 120),
    "gen.test": ("int", 120),
    "gen.oversample": ("int", 4),
    "gen.rule_prob": ("float", 0.35),
    "gen.grammar": ("str", ""),
    "policy.embed": ("int", 32),
    "policy.hidden": ("int", 64),
    "policy.max_len": ("int", 16),
    "model.dir": ("str", ""),
    "train.models": ("int", 3),
    "train.epochs": ("int", 30),
    "train.batch": ("int", 4),
    "train.lr": ("float", 0.015),
    "ddt.alpha": ("float", 0.5),
    "ddt.k_samples": ("int", 4),
    "ddt.reward": ("str", "edit"),
    "ddt.lr": ("float", 0.002),
    "ddt.epochs": ("int", 1),
    "ddt.seed": ("int", -1),
    "ddt.backbone": ("int", 0),
    "ddt.stages": ("int", 3),
    "ddt.peers": ("str", ""),
    "ddt.out": ("str", ""),
    "ddt.normalize": ("bool", False),
    "lm.order": ("int", 3),
    "lm.corpus": ("str", ""),
    "combine.beam": ("int", 64),
    "combine.k": ("int", 50),
    "combine.weights": ("str", ""),
    "combine.hyps": ("str", ""),
    "combine.out": ("str", ""),
    "tune.rounds": ("int", 2),
    "tune.iters": ("int", 4),
    "tune.random_dirs": ("int", 8),
    "tune.seed": ("int", -1),
    "tune.hyps": ("str", ""),
    "tune.out": ("str", ""),
    "eval.hyp": ("str", ""),
    "eval.baseline": ("str", ""),
    "eval.split": ("str", "dev"),
    "eval.resamples": ("int", 100),
    "eval.seed": ("int", -1),
    "div.a": ("str", ""),
    "div.b": ("str", ""),
}

# path keys derived from data.dir when left empty
_DERIVED_PATHS = {
    "data.train_src": "data/train.src",
    "data.train_ref": "data/train.ref",
    "data.train_m2": "data/train.m2",
    "data.dev_src": "data/dev.src",
    "data.dev_ref": "data/dev.ref",
    "data.dev_m2": "data/dev.m2",
    "data.test_src": "data/test.src",
    "data.test_ref": "data/test.ref",
    "data.test_m2": "data/test.m2",
    "model.dir": "models",
    "combine.weights": "out/combine.weights",
    "combine.out": "out/combined.hyp",
    "tune.out": "out/combine.weights",
}


def _coerce(key: str, raw: object) -> object:
    tag, _ = KNOWN_KEYS[key]
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise UsageError(f"config key {key}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict[str, object]

    @classmethod
    def load(
        cls,
        config_path: str | None = None,
        overrides: Mapping[str, object] | None = None,
    ) -> "ExperimentConfig":
        values = {key: default for key, (_, default) in KNOWN_KEYS.items()}
        if config_path:
            if not os.path.exists(config_path):
                raise UsageError(f"config file not found: {config_path}")
            try:
                with open(config_path, encoding="utf-8") as fh:
                    lines = fh.read().split("\n")
            except UnicodeDecodeError as exc:
                raise UsageError(f"{config_path}: not UTF-8 text: {exc}") from exc
            for lineno, line in enumerate(lines, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{config_path}:{lineno}: expected 'key = value'")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in KNOWN_KEYS:
                    raise UsageError(f"{config_path}:{lineno}: unknown config key {key!r}")
                values[key] = _coerce(key, raw)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in KNOWN_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = _coerce(key, value)
        base = str(values["data.dir"])
        for key, rel in _DERIVED_PATHS.items():
            if not values[key]:
                values[key] = os.path.join(base, rel)
        return cls(values)

    def get_str(self, key: str) -> str:
        return str(self.values[key])

    def get_int(self, key: str) -> int:
        return int(self.values[key])  # type: ignore[arg-type]

    def get_float(self, key: str) -> float:
        return float(self.values[key])  # type: ignore[arg-type]

    def get_bool(self, key: str) -> bool:
        return bool(self.values[key])

    def derived_seed(self, key: str, offset: int) -> int:
        """Component seed: explicit when >= 0, else derived from the base seed."""
        explicit = self.get_int(key)
        return explicit if explicit >= 0 else self.get_int("seed") * 1000 + offset

    def sha256(self) -> str:
        lines = [f"{k}={self.values[k]}" for k in sorted(self.values)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
