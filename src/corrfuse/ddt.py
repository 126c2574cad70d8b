"""Diversity-driven training: a mixed objective that interpolates reference
log-likelihood with an expected diversity reward, optimized by score-function
gradients over multinomial samples with a baseline, plus round-robin
scheduling when several systems are trainable.

``train_stage`` is the one DDT stage: ``cfg.epochs`` passes of one
``ddt_step`` per sentence, in data order, against the fixed outputs of each
peer system, on a generator keyed by the stage and checked for divergence at
its end; a step's reference and reward gradients move the parameters before
the next sentence is seen.  ``round_robin`` checks its arguments, then runs
it once per stage, on a copy of the backbone, as its stream is read; each
stage yields its report and frozen models.  ``ddt`` runs it once, key 0.

``policy`` and numpy are imported inside the functions that use them, so
that importing this module, as ``cli`` does at start-up, loads neither.  The
kernels are looked up as ``policy.<name>`` on each call, so that a wrapper
set on the module is the one they call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .evaluation import mean_pairwise_diversity
from .rewards import RewardKind, reward
from .textcore import TokenSeq

if TYPE_CHECKING:
    import numpy as np

    from .policy import PolicyModel


class DdtConfig(NamedTuple):
    """DDT's settings, as ``pipeline.ddt_config`` reads the ``ddt.*`` keys."""

    alpha: float
    k_samples: int
    reward_kind: RewardKind
    learning_rate: float
    epochs: int
    seed: int
    normalize_reward: bool


def rl_gradient(
    model: PolicyModel,
    x: TokenSeq,
    peer_outputs: Sequence[TokenSeq],
    cfg: DdtConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Score-function gradient estimate of the expected diversity reward.

    Draws k samples, subtracts the mean reward as a baseline, and scales by
    1/(k-1) rather than 1/k: that makes the centered estimator equivalent to
    a leave-one-out baseline and therefore exactly unbiased for the gradient
    of E[R], not (1-1/k) of it.  Returns the gradient and the mean reward.
    """
    from . import policy

    k = cfg.k_samples
    samples = policy.sample_many(model, x, rng, k)
    rewards = [reward(cfg.reward_kind, peer_outputs, y, cfg.normalize_reward) for y in samples]
    r_bar = sum(rewards) / k
    if max(rewards) == min(rewards):
        return model.zero_grad_like(), r_bar  # zero-centered advantages: exactly no update
    active = [(y, r) for y, r in zip(samples, rewards) if r != r_bar]
    ys = [y for y, _ in active]
    # a sample shorter than the cap ended by drawing the stop symbol, so its
    # sampling probability includes the end-of-sentence factor
    ended = [len(y) < model.max_len for y in ys]
    weights = [(r - r_bar) / (k - 1) for _, r in active]
    _, grad = policy.grad_logprob_batch(model, [x] * len(ys), ys, ended, weights)
    return grad, r_bar


def ddt_step(
    model: PolicyModel,
    x: TokenSeq,
    y_ref: TokenSeq,
    peers: Sequence[TokenSeq],
    cfg: DdtConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One ascent step on (1-alpha) * MLE + alpha * expected reward, for one
    sentence: source ``x``, reference ``y_ref`` and the peer outputs for it.

    Returns the pre-step reference NLL and the mean sample reward (0.0 when
    alpha == 0, in which case no sampling happens and the update equals
    mle_step exactly).
    """
    from . import policy

    lp, grad = policy.grad_logprob(model, x, y_ref)
    grad *= 1.0 - cfg.alpha  # mle_step's kernel, so alpha == 0 reproduces it bitwise
    mean_reward = 0.0
    if cfg.alpha > 0.0:
        rl_grad, mean_reward = rl_gradient(model, x, peers, cfg, rng)
        grad += cfg.alpha * rl_grad
    model.params += cfg.learning_rate * grad
    return -lp, mean_reward


class StageReport(NamedTuple):
    stage: int
    backbone: int | None  # model index trained at this stage, None for stage 0
    diversity: float  # mean pairwise 1-BLEU between model outputs
    mle_loss: float
    mean_reward: float
    outputs: tuple[tuple[TokenSeq, ...], ...] = ()


def train_stage(
    model: PolicyModel,
    data: Sequence[tuple[TokenSeq, TokenSeq]],
    peer_outputs: Sequence[Sequence[TokenSeq]],
    cfg: DdtConfig,
    key: int,
) -> tuple[float, float]:
    """Train ``model`` in place for ``cfg.epochs`` passes over ``data``, one
    ``ddt_step`` per (source, reference) pair, in data order, with generator
    ``default_rng((cfg.seed, key))``; ``peer_outputs`` holds each peer
    system's frozen outputs, line-aligned with ``data``.  Returns the mean
    pre-step reference NLL and the mean sample reward over all steps.  A
    parameter that is not finite at the end raises ``NumericError``.
    """
    import numpy as np

    from . import policy

    if not data:
        raise ValueError("empty training data")
    if any(len(outputs) != len(data) for outputs in peer_outputs):
        raise ValueError("peer outputs must be line-aligned with the data")
    peer_sets = [[outputs[i] for outputs in peer_outputs] for i in range(len(data))]
    rng = np.random.default_rng((cfg.seed, key))
    loss_sum = reward_sum = 0.0
    for _ in range(cfg.epochs):
        for (x, y_ref), peers in zip(data, peer_sets):
            loss, r = ddt_step(model, x, y_ref, peers, cfg, rng)
            loss_sum += loss
            reward_sum += r
    policy.check_finite(model, f"diversity-driven training stage {key}")
    steps = cfg.epochs * len(data)
    return loss_sum / steps, reward_sum / steps


def round_robin(
    models: Sequence[PolicyModel],
    data: Sequence[tuple[TokenSeq, TokenSeq]],
    cfg: DdtConfig,
    stages: int,
) -> Iterator[tuple[StageReport, tuple[PolicyModel, ...]]]:
    """Models take turns receiving diversity-driven training: at stage s
    (1-based), model (s-1) mod n is the backbone, trained by ``train_stage``
    with key s against the greedy outputs of the other, frozen models.
    ``pipeline.ddt_config`` takes ``cfg.seed`` from ``config.stream_seed``.
    Checks the arguments, then returns an iterator of ``(report, models)``
    per stage, stage 0 (untrained) first.  Each stage trains a copy of its
    backbone, so no stage changes the input models or those yielded before.
    A diverged stage raises from its ``next()``, before its backbone decodes.
    Greedy decoding is deterministic, so after a stage only the backbone's
    outputs are decoded again.
    """
    from . import policy

    if len(models) < 2:
        raise ValueError("round-robin training needs at least 2 models")
    if stages < 0:
        raise ValueError("stage count must be >= 0")
    if not data:
        raise ValueError("empty training data")

    def decode(model: PolicyModel) -> list[TokenSeq]:
        return [policy.greedy_decode(model, x) for x, _ in data]

    def stream() -> Iterator[tuple[StageReport, tuple[PolicyModel, ...]]]:
        stage_models = tuple(models)
        outputs = [decode(m) for m in stage_models]
        yield StageReport(0, None, mean_pairwise_diversity(outputs), float("nan"), float("nan"),
                          tuple(map(tuple, outputs))), stage_models
        for stage in range(1, stages + 1):
            backbone = (stage - 1) % len(models)
            peers = [o for m, o in enumerate(outputs) if m != backbone]
            trained = stage_models[backbone].copy()
            mle_loss, mean_reward = train_stage(trained, data, peers, cfg, stage)
            stage_models = (*stage_models[:backbone], trained, *stage_models[backbone + 1:])
            outputs[backbone] = decode(trained)
            yield StageReport(stage, backbone, mean_pairwise_diversity(outputs), mle_loss,
                              mean_reward, tuple(map(tuple, outputs))), stage_models

    return stream()
