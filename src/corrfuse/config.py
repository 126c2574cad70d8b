"""Experiment configuration: a flat dotted-key table that gives each key its
type, its default and its legal values.  This module parses config text and
opens no file: the CLI reads ``--config`` and passes its text to ``load``.

Sources, in increasing precedence: built-in defaults, config file lines
("key = value", # comments allowed, each key at most once), then CLI flag
overrides; the environment is not read.  Every value read from a file or a
flag is checked against its key's legal values as it is loaded, so a bad
value fails every command before it reads or writes any data.  Unset path
keys are derived from data.dir after merging, so a config file is optional.
The seed of every random stream is derived here, by ``stream_seed``, from
one table of purposes; it imports numpy when it is called, so that loading
a config does not.

``KNOWN_KEYS`` is the only source of each setting and ``stream_seed`` of
each seed: settings and seeds enter the library only as required arguments,
which ``pipeline`` and ``cli`` pass from here.  Two functions keep defaults:
``toydata.generate_corpus``, which ``bench/fusegen.py`` calls with them, and
``rewards.reward``, whose ``normalize`` is off unless ``ddt.normalize`` asks.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Any, Callable, Mapping, NamedTuple

from .alignment import MAX_TOKENS
from .errors import UsageError
from .textcore import split_lines

# what a legal value must be, and the test of it
Check = tuple[str, Callable[[Any], bool]]


def _at_least(n: int) -> Check:
    return f"be >= {n}", lambda value: value >= n


def _one_of(*choices: str) -> Check:
    return f"be one of {'|'.join(choices)}", lambda value: value in choices


_FRACTION: Check = ("be in [0,1]", lambda value: 0.0 <= value <= 1.0)
_POSITIVE: Check = ("be finite and > 0", lambda value: math.isfinite(value) and value > 0)
_DECODE_LIMIT: Check = (f"be in [1,{MAX_TOKENS}]", lambda value: 1 <= value <= MAX_TOKENS)

# key -> (type tag, default, check of its legal values or None for any value
# of the type); a negative ddt.seed, tune.seed or eval.seed means that its
# purpose's streams are derived from seed (``stream_seed``)
KNOWN_KEYS: dict[str, tuple[str, object, Check | None]] = {
    "seed": ("int", 7, _at_least(0)),
    "data.dir": ("str", "runs/toy", None),
    "data.train_src": ("str", "", None),
    "data.train_ref": ("str", "", None),
    "data.train_m2": ("str", "", None),
    "data.dev_src": ("str", "", None),
    "data.dev_ref": ("str", "", None),
    "data.dev_m2": ("str", "", None),
    "data.test_src": ("str", "", None),
    "data.test_ref": ("str", "", None),
    "data.test_m2": ("str", "", None),
    "gen.train": ("int", 150, _at_least(1)),
    "gen.dev": ("int", 120, _at_least(1)),
    "gen.test": ("int", 120, _at_least(1)),
    "gen.oversample": ("int", 4, _at_least(1)),
    "gen.rule_prob": ("float", 0.35, _FRACTION),
    "gen.grammar": ("str", "", None),
    "policy.embed": ("int", 32, _at_least(1)),
    "policy.hidden": ("int", 64, _at_least(1)),
    "policy.max_len": ("int", 16, _DECODE_LIMIT),
    "model.dir": ("str", "", None),
    "train.models": ("int", 3, _at_least(1)),
    "train.epochs": ("int", 30, _at_least(1)),
    "train.batch": ("int", 4, _at_least(1)),
    "train.lr": ("float", 0.015, _POSITIVE),
    "ddt.alpha": ("float", 0.5, _FRACTION),
    "ddt.k_samples": ("int", 4, _at_least(2)),
    "ddt.reward": ("str", "edit", _one_of("edit", "bleu", "tokendiff")),
    "ddt.lr": ("float", 0.002, _POSITIVE),
    "ddt.epochs": ("int", 1, _at_least(1)),
    "ddt.seed": ("int", -1, None),
    "ddt.backbone": ("int", 0, _at_least(0)),
    "ddt.stages": ("int", 3, _at_least(0)),
    "ddt.peers": ("str", "", None),
    "ddt.out": ("str", "", None),
    "ddt.normalize": ("bool", False, None),
    "lm.order": ("int", 3, _at_least(1)),
    "lm.corpus": ("str", "", None),
    "combine.beam": ("int", 64, _at_least(1)),
    "combine.k": ("int", 50, _at_least(1)),
    "combine.weights": ("str", "", None),
    "combine.hyps": ("str", "", None),
    "combine.out": ("str", "", None),
    "tune.rounds": ("int", 2, _at_least(1)),
    "tune.iters": ("int", 4, _at_least(1)),
    "tune.random_dirs": ("int", 8, _at_least(0)),
    "tune.seed": ("int", -1, None),
    "tune.hyps": ("str", "", None),
    "tune.out": ("str", "", None),
    "eval.hyp": ("str", "", None),
    "eval.baseline": ("str", "", None),
    "eval.split": ("str", "dev", _one_of("dev", "test")),
    "eval.resamples": ("int", 100, _at_least(1)),
    "eval.seed": ("int", -1, None),
    "div.a": ("str", "", None),
    "div.b": ("str", "", None),
}

# random-stream purpose -> (its code in the spawn key, the key that replaces
# seed as its base when >= 0); a stream's own key follows the code
SEED_PURPOSES: dict[str, tuple[int, str | None]] = {
    "references": (0, None),  # every split's references
    "corruption": (1, None),  # split index
    "init": (2, None),  # model index
    "order": (3, None),  # model index
    "ddt": (4, "ddt.seed"),
    "tune": (5, "tune.seed"),  # stage
    "significance": (6, "eval.seed"),
}


def stream_seed(cfg: ExperimentConfig, purpose: str, *key: int) -> int:
    """The seed of ``purpose``'s stream ``key``: one 64-bit word of
    ``SeedSequence(base, spawn_key=(code, *key))``, so that streams of
    different purposes, keys or base seeds draw unrelated numbers.  The base
    is ``seed`` unless the purpose's own key is >= 0."""
    import numpy as np

    code, own_key = SEED_PURPOSES[purpose]
    own = cfg.get_int(own_key) if own_key is not None else -1
    base = own if own >= 0 else cfg.get_int("seed")
    return int(np.random.SeedSequence(base, spawn_key=(code, *key)).generate_state(1, np.uint64)[0])


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


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str}


def _coerce(key: str, raw: object) -> object:
    """``raw`` as a value of ``key``: parsed when it is text, then checked."""
    tag, _, check = KNOWN_KEYS[key]
    value = raw
    if isinstance(raw, str):
        try:
            value = _PARSERS[tag](raw.strip())
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    if check is not None and not check[1](value):
        raise UsageError(f"{key} must {check[0]}, got {value!r}")
    return value


class ExperimentConfig(NamedTuple):
    values: dict[str, object]

    @classmethod
    def load(
        cls,
        text: str | None = None,
        overrides: Mapping[str, object] | None = None,
        name: str = "config",
    ) -> "ExperimentConfig":
        """The config from a config file's ``text`` (None for no file), then
        ``overrides``; ``name`` is the file's name in error messages."""
        values = {key: default for key, (_, default, _) in KNOWN_KEYS.items()}
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(split_lines(text or ""), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{name}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise UsageError(f"{name}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise UsageError(
                    f"{name}:{lineno}: config key {key!r} is set twice"
                    f" (first on line {first_line[key]})"
                )
            first_line[key] = lineno
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

    def sha256(self) -> str:
        lines = [f"{k}={self.values[k]}" for k in sorted(self.values)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
