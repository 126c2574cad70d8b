"""The experiment as functions of data: ``make_splits`` draws the toy
splits, ``train_models`` trains the component models, and ``run_stages``
tunes each stage's combination as the round robin yields the stage.  They
read and write no file, so a study can call them in process; ``cli`` formats
what they return into the commands' bytes.

Settings and seeds enter the library only as required arguments, which the
functions here read from ``config.KNOWN_KEYS`` and ``config.stream_seed``,
and ``ddt_config`` is the one builder of a ``ddt.DdtConfig``.  A DDT stage,
its random stream and its divergence check included, is one
``ddt.train_stage`` call, keyed by the stage (0 for the ``ddt`` command).  A
reserved token in the dev text, or a dev reference longer than the decode
limit of a model that DDT trains, is a ``DataError``.  ``run_stages`` tunes
through the scorer it is given, so a caller that reports from that scorer
shares its memo of sentence scores.

``policy``, ``toydata`` and numpy are imported inside the functions that use
them, so importing this module, as ``cli`` does at start-up, loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .combiner import FeatureSchema, NGramLM, SearchSpace, build_spaces
from .config import ExperimentConfig, stream_seed
from .ddt import DdtConfig, StageReport, round_robin
from .errors import DataError
from .evaluation import Scorer, ScoreStats, compare_outputs, sign_test_bootstrap
from .rewards import RewardKind
from .textcore import TokenSeq
from .tuner import KBestPool, decode_corpus, tune_loop

if TYPE_CHECKING:
    import numpy as np

    from .policy import PolicyModel, Vocabulary
    from .toydata import CorpusExample, Grammar


def make_splits(cfg: ExperimentConfig, grammar: Grammar) -> dict[str, list[CorpusExample]]:
    """The examples of each split, by name (train, dev, test): ``gen.train``,
    ``gen.dev`` and ``gen.test`` references drawn from ``grammar``, each
    corrupted by every ``toydata.RULE_KINDS`` rule with ``gen.rule_prob``;
    train corrupts its references ``gen.oversample`` times."""
    from .toydata import RULE_KINDS, CorruptionRule, generate_corpus

    rules = tuple(CorruptionRule(kind, cfg.get_float("gen.rule_prob")) for kind in RULE_KINDS)
    oversample = cfg.get_int("gen.oversample")
    # every split draws its references from the start of the one
    # ``references`` stream, so dev and test are freshly corrupted versions of
    # sentences the models trained on; each split has its own ``corruption``
    # stream, and train corrupts its references ``gen.oversample`` times from it
    grammar_seed = stream_seed(cfg, "references")
    return {
        split: generate_corpus(
            grammar_seed=grammar_seed,
            n_sentences=cfg.get_int(f"gen.{split}"),
            rules=rules,
            rng_seed=stream_seed(cfg, "corruption", split_idx),
            grammar=grammar,
            passes=oversample if split == "train" else 1,
        )
        for split_idx, split in enumerate(("train", "dev", "test"))
    }


def fitting_pairs(cfg: ExperimentConfig, pairs: Sequence[tuple[TokenSeq, TokenSeq]]) -> list:
    """The pairs whose reference fits ``policy.max_len``: ``train_models``'s."""
    return [(x, y) for x, y in pairs if len(y) <= cfg.get_int("policy.max_len")]


def train_models(
    cfg: ExperimentConfig, pairs: Sequence[tuple[TokenSeq, TokenSeq]]
) -> tuple[Vocabulary, list[PolicyModel], list[float]]:
    """Train the ``train.models`` component models in lockstep on the
    ``fitting_pairs`` of ``pairs``, and return the vocabulary of those pairs,
    the models and each one's mean NLL over its last epoch.  No fitting
    pair, or a reserved token in their text, is a ``DataError``.

    Model i has its own initial parameters and pair-order generator, as if
    trained alone.  Each minibatch step advances every model on its own
    minibatch in one stacked pass (``mle_step``), with the numbers of
    separate steps, in one step workspace (see the ``policy`` docstring).
    """
    import numpy as np

    from .policy import PolicyModel, StepWorkspace, Vocabulary, check_finite, epoch_batches
    from .policy import mle_step, pad_batches, stack_params

    pairs = fitting_pairs(cfg, pairs)
    if not pairs:
        raise DataError("no training pair fits within policy.max_len")
    try:
        vocab = Vocabulary.build(tok for x, y in pairs for tok in x + y)
    except ValueError as exc:
        raise DataError(f"training text: {exc}") from exc
    n_models = cfg.get_int("train.models")
    models = [
        PolicyModel(
            vocab,
            embed_width=cfg.get_int("policy.embed"),
            hidden_width=cfg.get_int("policy.hidden"),
            max_len=cfg.get_int("policy.max_len"),
            init_seed=stream_seed(cfg, "init", i),
        )
        for i in range(n_models)
    ]
    rngs = [np.random.default_rng(stream_seed(cfg, "order", i)) for i in range(n_models)]
    batch_size, lr = cfg.get_int("train.batch"), cfg.get_float("train.lr")
    padded = pad_batches(models[0], [x for x, _ in pairs], [y for _, y in pairs], True)
    ws = StepWorkspace(models[0], stack_params(models), padded, batch_size)
    last_nll: list[float] = []
    for _ in range(cfg.get_int("train.epochs")):
        orders = np.stack([rng.permutation(len(pairs)) for rng in rngs])
        nll_sums = [0.0] * n_models
        n_batches = 0
        for batches in epoch_batches(padded, orders, batch_size):
            nlls = mle_step(ws, batches, lr)
            nll_sums = [total + nll for total, nll in zip(nll_sums, nlls)]
            n_batches += 1
        last_nll = [total / n_batches for total in nll_sums]
        for i, model in enumerate(models):
            check_finite(model, f"individual training of model {i}")
    return vocab, models, last_nll


def ddt_config(cfg: ExperimentConfig) -> DdtConfig:
    return DdtConfig(
        alpha=cfg.get_float("ddt.alpha"),
        k_samples=cfg.get_int("ddt.k_samples"),
        reward_kind=RewardKind(cfg.get_str("ddt.reward")),
        learning_rate=cfg.get_float("ddt.lr"),
        epochs=cfg.get_int("ddt.epochs"),
        seed=stream_seed(cfg, "ddt"),
        normalize_reward=cfg.get_bool("ddt.normalize"),
    )


def check_references_fit(
    models: Sequence[PolicyModel], sources: Sequence[TokenSeq], refs: Sequence[TokenSeq]
) -> None:
    """Raise ``DataError`` when the dev text that DDT trains ``models`` on
    holds a reserved token (``policy.RESERVED``) in ``sources`` or ``refs``,
    or a reference in ``refs`` is longer than the decode limit of one of
    ``models`` (none: nothing to check)."""
    if not models:
        return
    from .policy import RESERVED

    for line in (*sources, *refs):
        for tok in line:
            if tok in RESERVED:
                raise DataError(f"dev text: {tok} is reserved")
    limit = min(m.max_len for m in models)
    if any(len(y) > limit for y in refs):
        raise DataError(f"dev references longer than the shortest model decode limit ({limit});"
                        " regenerate or raise policy.max_len")


def tune(
    cfg: ExperimentConfig,
    outputs_per_model: Sequence[Sequence[TokenSeq]],
    scorer: Scorer,
    lm: NGramLM,
    stage: int = 0,
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] | None = None,
) -> tuple[list[SearchSpace], np.ndarray, KBestPool]:
    """Build the systems' search spaces and tune the combination weights on
    ``scorer``'s split with the config's beam (``combine.beam``), k-best
    size (``combine.k``) and MERT schedule (``tune.rounds``, ``tune.iters``,
    ``tune.random_dirs``), seeded with the ``tune`` stream of ``stage``.
    Returns the spaces, the tuned weights and the k-best pool.
    ``known_spaces`` is ``build_spaces``'s memo, for a caller that tunes
    several times on the same sentences."""
    spaces = build_spaces(outputs_per_model, known_spaces)
    weights, pool = tune_loop(
        scorer,
        spaces,
        lm,
        FeatureSchema(len(outputs_per_model)).default_weights(),
        beam=cfg.get_int("combine.beam"),
        k=cfg.get_int("combine.k"),
        rounds=cfg.get_int("tune.rounds"),
        mert_iters=cfg.get_int("tune.iters"),
        n_random=cfg.get_int("tune.random_dirs"),
        rng_seed=stream_seed(cfg, "tune", stage),
    )
    return spaces, weights, pool


class StageResult(NamedTuple):
    """One round-robin stage: its DDT report (the outputs per model, their
    diversity, ``mle_loss`` and ``mean_reward``), the weights tuned on its
    outputs, the tuner's k-best pool and the tuned combination's outputs."""

    report: StageReport
    weights: np.ndarray
    pool: KBestPool
    combined: tuple[TokenSeq, ...]


def run_stages(
    cfg: ExperimentConfig,
    models: Sequence[PolicyModel],
    scorer: Scorer,
    refs: Sequence[TokenSeq],
    lm: NGramLM,
) -> Iterator[StageResult]:
    """Run ``ddt.stages`` round-robin DDT stages on (``scorer.sources``,
    ``refs``), tuning and decoding each stage's combination on ``scorer``'s
    split as ``ddt.round_robin`` yields it.  The round robin trains only the
    first ``ddt.stages`` of ``models`` (all of them when there are fewer,
    none at 0 stages); a reserved token in the dev text or a reference too
    long for one of those raises ``DataError`` before any stage runs, and a
    diverged stage raises ``NumericError`` after earlier stages were yielded.
    The search spaces (each with its memo of k-best searches) are shared by
    the stages, as a model's outputs recur, and so is ``scorer``."""
    stages = cfg.get_int("ddt.stages")
    check_references_fit(models[:stages], scorer.sources, refs)
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] = {}
    for report, _ in round_robin(models, list(zip(scorer.sources, refs)), ddt_config(cfg), stages):
        spaces, weights, pool = tune(cfg, report.outputs, scorer, lm, report.stage, known_spaces)
        combined = decode_corpus(spaces, weights, lm, cfg.get_int("combine.beam"))
        yield StageResult(report, weights, pool, tuple(combined))


def p_value(cfg: ExperimentConfig, per_a: list[ScoreStats], per_b: list[ScoreStats]) -> float:
    """The bootstrapped sign test of A against B, seeded with the
    ``significance`` stream."""
    seed = stream_seed(cfg, "significance")
    return sign_test_bootstrap(compare_outputs(per_a, per_b), cfg.get_int("eval.resamples"), seed)
