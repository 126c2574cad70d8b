"""Diversity-driven training: a mixed objective that interpolates reference
log-likelihood with an expected diversity reward, optimized by score-function
gradients over multinomial samples with a baseline, plus round-robin
scheduling when several systems are trainable.

``train_stage`` is the one DDT training loop: ``cfg.epochs`` passes of one
``ddt_step`` per sentence, in data order, against fixed peer outputs.
``round_robin`` runs it once per stage with the other models' greedy outputs
as peers; the ``ddt`` command runs it once for a single backbone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import policy
from .evaluation import diversity
from .policy import PolicyModel
from .rewards import RewardKind, reward
from .textcore import TokenSeq


@dataclass
class DdtConfig:
    alpha: float = 0.5
    k_samples: int = 4
    reward_kind: RewardKind = RewardKind.MIN_EDIT_DISTANCE
    learning_rate: float = 0.05
    epochs: int = 1
    seed: int = 0
    normalize_reward: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if self.k_samples < 2:
            raise ValueError("k_samples must be >= 2 (the baseline needs multiple samples)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


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
    batch: Sequence[tuple[TokenSeq, TokenSeq, Sequence[TokenSeq]]],
    cfg: DdtConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One ascent step on (1-alpha) * MLE + alpha * expected reward.

    Batch items are (source, reference, peer outputs).  Returns the pre-step
    mean reference NLL and the mean sample reward (0.0 when alpha == 0, in
    which case no sampling happens and the update equals mle_step exactly).
    """
    if not batch:
        raise ValueError("empty batch")
    grad = model.zero_grad_like()
    xs = [x for x, _, _ in batch]
    refs = [y_ref for _, y_ref, _ in batch]
    if cfg.alpha < 1.0:
        # the same call as in mle_step, so alpha == 0 reproduces it bitwise
        lps, mle_grad = policy.grad_logprob_batch(model, xs, refs)
        grad += (1.0 - cfg.alpha) * mle_grad
    else:
        lps = policy.logprob_batch(model, xs, refs)
    nll = -sum(lps.tolist())
    mean_reward = 0.0
    if cfg.alpha > 0.0:
        rl_grad = model.zero_grad_like()
        r_sum = 0.0
        for x, _, peers in batch:
            g, r_bar = rl_gradient(model, x, peers, cfg, rng)
            rl_grad += g
            r_sum += r_bar
        grad += cfg.alpha * rl_grad
        mean_reward = r_sum / len(batch)
    model.params += cfg.learning_rate * grad
    return nll / len(batch), mean_reward


@dataclass(frozen=True)
class StageReport:
    stage: int
    backbone: int | None  # model index trained at this stage, None for stage 0
    diversity: float  # mean pairwise 1-BLEU between model outputs
    mle_loss: float
    mean_reward: float
    outputs: tuple[tuple[TokenSeq, ...], ...] = field(repr=False, default=())


def mean_pairwise_diversity(outputs_per_model: Sequence[Sequence[TokenSeq]]) -> float:
    values = []
    for i in range(len(outputs_per_model)):
        for j in range(i + 1, len(outputs_per_model)):
            values.append(diversity(outputs_per_model[i], outputs_per_model[j]))
    return sum(values) / len(values) if values else 0.0


def train_stage(
    model: PolicyModel,
    data: Sequence[tuple[TokenSeq, TokenSeq]],
    peer_sets: Sequence[Sequence[TokenSeq]],
    cfg: DdtConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Train ``model`` in place for ``cfg.epochs`` passes over ``data``, one
    ``ddt_step`` per (source, reference) pair, in data order; ``peer_sets[i]``
    holds the frozen peer outputs for sentence i.  Returns the mean
    pre-step reference NLL and the mean sample reward over all steps.
    """
    if not data:
        raise ValueError("empty training data")
    if len(peer_sets) != len(data):
        raise ValueError("peer outputs must be line-aligned with the data")
    loss_sum = reward_sum = 0.0
    for _ in range(cfg.epochs):
        for (x, y_ref), peers in zip(data, peer_sets):
            loss, r = ddt_step(model, [(x, y_ref, peers)], cfg, rng)
            loss_sum += loss
            reward_sum += r
    steps = cfg.epochs * len(data)
    return loss_sum / steps, reward_sum / steps


def round_robin(
    models: Sequence[PolicyModel],
    data: Sequence[tuple[TokenSeq, TokenSeq]],
    cfg: DdtConfig,
    stages: int,
) -> tuple[list[PolicyModel], list[StageReport]]:
    """Models take turns receiving diversity-driven training.

    At stage s (1-based), model (s-1) mod n is the backbone and is trained by
    ``train_stage`` with generator ``default_rng((cfg.seed, s))``; the other
    models are frozen and their greedy outputs serve as peers.  Greedy
    decoding is deterministic, so after a stage only the backbone's outputs
    are decoded again.  Input models are not mutated; stage 0 in the report
    is the untrained baseline.  Returns the updated models and per-stage
    reports.
    """
    if len(models) < 2:
        raise ValueError("round-robin training needs at least 2 models")
    if stages < 0:
        raise ValueError("stage count must be >= 0")
    if not data:
        raise ValueError("empty training data")
    models = [m.copy() for m in models]
    sources = [x for x, _ in data]

    def decode(model: PolicyModel) -> list[TokenSeq]:
        return [policy.greedy_decode(model, x) for x in sources]

    outputs = [decode(m) for m in models]
    reports = [
        StageReport(0, None, mean_pairwise_diversity(outputs), float("nan"), float("nan"),
                    tuple(tuple(o) for o in outputs))
    ]
    for stage in range(1, stages + 1):
        backbone = (stage - 1) % len(models)
        peer_sets = [
            [outputs[m][i] for m in range(len(models)) if m != backbone]
            for i in range(len(data))
        ]
        mle_loss, mean_reward = train_stage(
            models[backbone], data, peer_sets, cfg, np.random.default_rng((cfg.seed, stage))
        )
        outputs[backbone] = decode(models[backbone])
        reports.append(
            StageReport(
                stage, backbone, mean_pairwise_diversity(outputs), mle_loss, mean_reward,
                tuple(tuple(o) for o in outputs),
            )
        )
    return models, reports
