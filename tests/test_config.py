"""The config table: each key's type, default and legal values, checked as
the config loads; and the library's settings and seeds, which come only from
the table and ``stream_seed``."""

import inspect

import numpy as np
import pytest

from corrfuse import combiner, evaluation, policy, tuner
from corrfuse.config import KNOWN_KEYS, SEED_PURPOSES, ExperimentConfig, stream_seed
from corrfuse.errors import UsageError
from corrfuse.rewards import RewardKind

TYPES = {"int": int, "float": float, "str": str, "bool": bool}


@pytest.mark.parametrize("key", sorted(KNOWN_KEYS))
def test_every_default_passes_its_own_check(key):
    tag, default, check = KNOWN_KEYS[key]
    assert type(default) is TYPES[tag]
    if check is not None:
        assert check[1](default)
    assert ExperimentConfig.load(None, {key: str(default)}).values == ExperimentConfig.load().values


def test_every_reward_kind_is_a_legal_reward():
    for kind in RewardKind:
        cfg = ExperimentConfig.load(None, {"ddt.reward": kind.value})
        assert RewardKind(cfg.get_str("ddt.reward")) is kind


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("ddt.k_samples", " 1 ", "ddt.k_samples must be >= 2, got 1"),
        ("ddt.alpha", "nan", "ddt.alpha must be in [0,1], got nan"),
        ("gen.rule_prob", "1.5", "gen.rule_prob must be in [0,1], got 1.5"),
        ("train.lr", "inf", "train.lr must be finite and > 0, got inf"),
        ("ddt.lr", "0", "ddt.lr must be finite and > 0, got 0.0"),
        ("ddt.lr", "nan", "ddt.lr must be finite and > 0, got nan"),
        ("ddt.lr", "-0.5", "ddt.lr must be finite and > 0, got -0.5"),
        ("ddt.alpha", "1.5", "ddt.alpha must be in [0,1], got 1.5"),
        ("ddt.reward", "nope", "ddt.reward must be one of edit|bleu|tokendiff, got 'nope'"),
        ("eval.split", "train", "eval.split must be one of dev|test, got 'train'"),
        ("tune.random_dirs", "-5", "tune.random_dirs must be >= 0, got -5"),
    ],
)
def test_value_outside_its_keys_legal_values_is_a_usage_error(key, raw, message):
    with pytest.raises(UsageError) as exc:
        ExperimentConfig.load(None, {key: raw})
    assert str(exc.value) == message


def test_config_file_values_are_checked_too(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("ddt.stages = -1\n", encoding="utf-8")
    with pytest.raises(UsageError, match=r"^ddt\.stages must be >= 0, got -1$"):
        ExperimentConfig.load(path.read_text(encoding="utf-8"), name=str(path))


def test_config_file_that_sets_a_key_twice_is_a_usage_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("train.lr = 0.5\n# the same key again\ntrain.lr = 0.5\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        ExperimentConfig.load(path.read_text(encoding="utf-8"), name=str(path))
    assert str(exc.value) == f"{path}:3: config key 'train.lr' is set twice (first on line 1)"


def test_set_flag_overrides_a_config_file_value(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("train.lr = 0.5\n", encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert ExperimentConfig.load(text).get_float("train.lr") == 0.5
    assert ExperimentConfig.load(text, {"train.lr": "0.1"}).get_float("train.lr") == 0.1


@pytest.mark.parametrize(
    "key, raw", [("ddt.seed", "-2"), ("ddt.stages", "0"), ("tune.random_dirs", "0"),
                 ("ddt.alpha", "1"), ("gen.rule_prob", "0"), ("ddt.backbone", "0")],
)
def test_values_at_the_edge_of_their_range_load(key, raw):
    assert ExperimentConfig.load(None, {key: raw}).values[key] == float(raw)


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_config_text_splits_at_every_line_end(newline):
    text = newline.join(["seed = 3", "# a comment", "train.models = 2", ""])
    cfg = ExperimentConfig.load(text)
    assert (cfg.get_int("seed"), cfg.get_int("train.models")) == (3, 2)
    with pytest.raises(UsageError, match=r"^config:3: expected 'key = value'$"):
        ExperimentConfig.load(newline.join(["seed = 3", "", "models"]))


# the keys of each purpose's seeds that the commands use: splits 0-2, models
# 0-3, stages 0-4
SEED_KEYS = {
    "references": [()],
    "corruption": [(k,) for k in range(3)],
    "init": [(i,) for i in range(4)],
    "order": [(i,) for i in range(4)],
    "ddt": [()],
    "tune": [(stage,) for stage in range(5)],
    "significance": [()],
}


def seeds_by_stream(cfg: ExperimentConfig) -> dict[tuple, int]:
    return {
        (purpose, key): stream_seed(cfg, purpose, *key)
        for purpose, keys in SEED_KEYS.items()
        for key in keys
    }


def test_no_two_streams_share_a_generator_state():
    """Over seeds 0-9 and the keys the commands use, every generator that a
    command seeds starts from its own state: each int seed, each DDT stage's
    ``(ddt seed, stage)`` and each MERT round's ``(tune seed, round)``, as
    ``round_robin`` and ``tune_loop`` key them.  A generator is compared by
    its SeedSequence's state, as an int and a pair of ints can make the
    same one."""
    assert SEED_KEYS.keys() == SEED_PURPOSES.keys()
    states: dict[tuple[int, ...], tuple] = {}
    for seed in range(10):
        seeds = seeds_by_stream(ExperimentConfig.load(None, {"seed": seed}))
        entropies = {stream: value for stream, value in seeds.items() if stream[0] not in ("ddt", "tune")}
        entropies.update({("ddt", stage): (seeds[("ddt", ())], stage) for stage in range(5)})
        entropies.update(
            {("tune", stage, r): (seeds[("tune", (stage,))], r) for stage in range(5) for r in range(4)}
        )
        for stream, entropy in entropies.items():
            state = tuple(np.random.SeedSequence(entropy).generate_state(4).tolist())
            assert state not in states, f"seed {seed} {stream} and {states[state]}"
            states[state] = (seed, stream)
    assert len(states) == 10 * (1 + 3 + 4 + 4 + 5 + 20 + 1)


@pytest.mark.parametrize(
    "key, purpose", [("ddt.seed", "ddt"), ("tune.seed", "tune"), ("eval.seed", "significance")]
)
def test_a_purposes_own_seed_moves_that_purpose_alone(key, purpose):
    assert SEED_PURPOSES[purpose][1] == key
    derived = seeds_by_stream(ExperimentConfig.load(None, {"seed": 7}))
    own = seeds_by_stream(ExperimentConfig.load(None, {"seed": 7, key: 11}))
    moved = {stream for stream in derived if own[stream] != derived[stream]}
    assert moved == {stream for stream in derived if stream[0] == purpose}
    # the own key is the base that seed would be: seed 11's streams
    at_11 = seeds_by_stream(ExperimentConfig.load(None, {"seed": 11}))
    assert all(own[stream] == at_11[stream] for stream in moved)


# (function, parameter): every setting and seed the library takes; each comes
# from KNOWN_KEYS or stream_seed, so none may have a default of its own
REQUIRED_SETTINGS = [
    (tuner.tune_loop, "beam"),
    (tuner.tune_loop, "k"),
    (tuner.tune_loop, "rounds"),
    (tuner.tune_loop, "mert_iters"),
    (tuner.tune_loop, "n_random"),
    (tuner.tune_loop, "rng_seed"),
    (tuner.mert, "iters"),
    (tuner.mert, "n_random"),
    (tuner.mert, "rng_seed"),
    (tuner.decode_corpus, "beam"),
    (combiner.beam_search, "beam"),
    (combiner.beam_search, "k"),
    (combiner.NGramLM, "order"),
    (combiner.train_lm, "order"),
    (policy.PolicyModel, "embed_width"),
    (policy.PolicyModel, "hidden_width"),
    (policy.PolicyModel, "max_len"),
    (policy.PolicyModel, "init_seed"),
    (evaluation.sign_test_bootstrap, "resamples"),
    (evaluation.sign_test_bootstrap, "rng_seed"),
]


@pytest.mark.parametrize(
    "function, name", REQUIRED_SETTINGS, ids=[f"{f.__name__}.{n}" for f, n in REQUIRED_SETTINGS]
)
def test_settings_and_seeds_are_required_arguments(function, name):
    parameter = inspect.signature(function).parameters[name]
    assert parameter.default is inspect.Parameter.empty
