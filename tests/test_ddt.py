import itertools
import math

import numpy as np
import pytest

from corrfuse import policy
from corrfuse.ddt import (
    DdtConfig,
    StageReport,
    ddt_step,
    mean_pairwise_diversity,
    rl_gradient,
    round_robin,
    train_stage,
)
from corrfuse.evaluation import diversity
from corrfuse.policy import (
    EOS_ID,
    PolicyModel,
    Vocabulary,
    grad_logprob,
    greedy_decode,
    mle_step,
    sample,
)
from corrfuse.rewards import RewardKind

from oracles import enumerate_sample_space, fd_gradient_of_expected_reward


def tiny_model(content=("a", "b", "c"), embed=2, hidden=2, max_len=2, seed=0):
    return PolicyModel(Vocabulary.build(content), embed, hidden, max_len, init_seed=seed)


def expected_estimator_over_tuples(model, x, peers, cfg):
    """E[rl_gradient] by enumerating all k-tuples of samples exactly."""
    space = enumerate_sample_space(model, x)
    grads = {}
    from corrfuse.rewards import reward as reward_fn

    rewards = {}
    for y, _ in space:
        ended = len(y) < model.max_len
        _, g = grad_logprob(model, x, y, include_eos=ended)
        grads[y] = g
        rewards[y] = reward_fn(cfg.reward_kind, peers, y)
    total = np.zeros_like(model.params)
    k = cfg.k_samples
    for combo in itertools.product(space, repeat=k):
        prob = math.prod(p for _, p in combo)
        rs = [rewards[y] for y, _ in combo]
        r_bar = sum(rs) / k
        est = np.zeros_like(total)
        for (y, _), r in zip(combo, rs):
            est += ((r - r_bar) / (k - 1)) * grads[y]
        total += prob * est
    return total


class TestDdtConfig:
    def test_defaults_valid(self):
        cfg = DdtConfig()
        assert cfg.alpha == 0.5 and cfg.k_samples == 4

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            DdtConfig(alpha=1.5)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            DdtConfig(k_samples=1)


class TestRlGradient:
    def test_zero_when_all_samples_identical(self):
        model = tiny_model()
        model.params[:] = 0.0
        model._views["out_b"][EOS_ID] = 60.0  # deterministic empty output
        cfg = DdtConfig(k_samples=4)
        grad, r_bar = rl_gradient(model, ("a",), [("b", "c")], cfg, np.random.default_rng(0))
        assert np.all(grad == 0.0)
        assert r_bar == 2.0  # edit distance of () vs the peer

    def test_deterministic_given_seed(self):
        model = tiny_model(seed=3)
        cfg = DdtConfig(k_samples=3)
        g1, r1 = rl_gradient(model, ("a",), [("b",)], cfg, np.random.default_rng(7))
        g2, r2 = rl_gradient(model, ("a",), [("b",)], cfg, np.random.default_rng(7))
        assert np.array_equal(g1, g2) and r1 == r2

    def test_expectation_equals_exact_gradient(self):
        # vocab of 3 tokens, outputs of length <= 2: the whole sample space
        # and every k-tuple of samples can be enumerated
        model = tiny_model(max_len=2, seed=5)
        x = ("a", "b")
        peers = [("a", "b"), ("c",)]
        cfg = DdtConfig(k_samples=2, reward_kind=RewardKind.MIN_EDIT_DISTANCE)
        estimated = expected_estimator_over_tuples(model, x, peers, cfg)
        exact = fd_gradient_of_expected_reward(model, x, peers, cfg.reward_kind)
        assert np.max(np.abs(estimated - exact)) < 1e-6

    def test_baseline_reduces_variance(self):
        model = tiny_model(content=("a", "b", "c"), embed=2, hidden=2, max_len=3, seed=1)
        x = ("a", "c")
        peers = [("a", "b", "c"), ("b", "b")]
        cfg = DdtConfig(k_samples=4)
        trials = 2000
        with_baseline = np.zeros((trials, model.params.size))
        without_baseline = np.zeros((trials, model.params.size))
        rng = np.random.default_rng(12)
        from corrfuse.rewards import reward as reward_fn

        for t in range(trials):
            samples = [sample(model, x, rng) for _ in range(cfg.k_samples)]
            rewards = [reward_fn(cfg.reward_kind, peers, y) for y in samples]
            r_bar = sum(rewards) / cfg.k_samples
            gb = np.zeros(model.params.size)
            gn = np.zeros(model.params.size)
            for y, r in zip(samples, rewards):
                ended = len(y) < model.max_len
                _, g = grad_logprob(model, x, y, include_eos=ended)
                gb += ((r - r_bar) / (cfg.k_samples - 1)) * g
                gn += (r / cfg.k_samples) * g
            with_baseline[t] = gb
            without_baseline[t] = gn
        var_with = with_baseline.var(axis=0)
        var_without = without_baseline.var(axis=0)
        active = var_without > 1e-12
        frac = np.mean(var_with[active] <= var_without[active])
        assert frac >= 0.95


class TestDdtStep:
    def test_alpha_zero_matches_mle_step_bitwise(self):
        model_a = tiny_model(seed=8)
        model_b = model_a.copy()
        batch = [(("a",), ("b",), [("c",)]), (("b",), ("c", "a"), [("a",)])]
        cfg = DdtConfig(alpha=0.0, learning_rate=0.03)
        loss_ddt, mean_r = ddt_step(model_a, batch, cfg, np.random.default_rng(0))
        loss_mle = mle_step(model_b, [(x, y) for x, y, _ in batch], 0.03)
        assert np.array_equal(model_a.params, model_b.params)
        assert loss_ddt == pytest.approx(loss_mle)
        assert mean_r == 0.0

    def test_alpha_one_constant_reward_no_update(self):
        model = tiny_model()
        model.params[:] = 0.0
        model._views["out_b"][EOS_ID] = 60.0  # only possible output is ()
        before = model.params.copy()
        cfg = DdtConfig(alpha=1.0)
        ddt_step(model, [(("a",), ("a",), [()])], cfg, np.random.default_rng(1))
        assert np.array_equal(model.params, before)

    def test_alpha_interpolation(self):
        batch = [(("a",), ("b",), [("c", "c")]), (("c",), ("a", "b"), [("b",)])]
        alpha = 0.3
        base = tiny_model(seed=17)

        m_mle = base.copy()
        cfg_mle = DdtConfig(alpha=0.0, learning_rate=1.0)
        ddt_step(m_mle, batch, cfg_mle, np.random.default_rng(55))
        update_mle = m_mle.params - base.params

        m_rl = base.copy()
        cfg_rl = DdtConfig(alpha=1.0, learning_rate=1.0)
        ddt_step(m_rl, batch, cfg_rl, np.random.default_rng(55))
        update_rl = m_rl.params - base.params

        m_mix = base.copy()
        cfg_mix = DdtConfig(alpha=alpha, learning_rate=1.0)
        ddt_step(m_mix, batch, cfg_mix, np.random.default_rng(55))
        update_mix = m_mix.params - base.params

        expected = (1 - alpha) * update_mle + alpha * update_rl
        assert np.allclose(update_mix, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            ddt_step(tiny_model(), [], DdtConfig(), np.random.default_rng(0))

    def test_training_increases_diversity_from_peers(self):
        model = tiny_model(content=("a", "b", "c"), embed=4, hidden=6, max_len=3, seed=2)
        inputs = [("a", "b"), ("b", "c"), ("c",), ("a", "c", "b")]
        peers = {x: [greedy_decode(model, x)] for x in inputs}
        refs = {x: peers[x][0] for x in inputs}
        base_div = diversity(
            [greedy_decode(model, x) for x in inputs], [peers[x][0] for x in inputs]
        )
        cfg = DdtConfig(alpha=0.5, k_samples=4, learning_rate=0.2)
        rng = np.random.default_rng(23)
        for _ in range(50):
            for x in inputs:
                ddt_step(model, [(x, refs[x], peers[x])], cfg, rng)
        trained_div = diversity(
            [greedy_decode(model, x) for x in inputs], [peers[x][0] for x in inputs]
        )
        assert trained_div > base_div


def reference_round_robin(models, data, cfg, stages):
    """The round-robin loop that decoded every model again after each stage
    (verbatim, apart from the name)."""
    if len(models) < 2:
        raise ValueError("round-robin training needs at least 2 models")
    if stages < 0:
        raise ValueError("stage count must be >= 0")
    if not data:
        raise ValueError("empty training data")
    models = [m.copy() for m in models]
    sources = [x for x, _ in data]

    def decode_all():
        return [[policy.greedy_decode(m, x) for x in sources] for m in models]

    outputs = decode_all()
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
        outputs = decode_all()
        reports.append(
            StageReport(
                stage, backbone, mean_pairwise_diversity(outputs), mle_loss, mean_reward,
                tuple(tuple(o) for o in outputs),
            )
        )
    return models, reports


class TestRoundRobin:
    def _setup(self, n_models=3):
        data = [(("a", "b"), ("a", "b")), (("c",), ("c",)), (("b", "c"), ("b", "c"))]
        models = [
            tiny_model(content=("a", "b", "c"), embed=3, hidden=4, max_len=3, seed=s)
            for s in range(n_models)
        ]
        return models, data

    def test_zero_stages_unchanged(self):
        models, data = self._setup()
        out, reports = round_robin(models, data, DdtConfig(), stages=0)
        for before, after in zip(models, out):
            assert np.array_equal(before.params, after.params)
        assert len(reports) == 1 and reports[0].stage == 0

    def test_single_stage_trains_only_first_model(self):
        models, data = self._setup()
        out, reports = round_robin(models, data, DdtConfig(), stages=1)
        assert not np.array_equal(out[0].params, models[0].params)
        assert np.array_equal(out[1].params, models[1].params)
        assert np.array_equal(out[2].params, models[2].params)
        assert reports[1].backbone == 0

    def test_freeze_contract_across_stages(self):
        models, data = self._setup()
        snapshots = [m.params.copy() for m in models]
        out, _ = round_robin(models, data, DdtConfig(), stages=2)
        # stage 1 trains model 0, stage 2 trains model 1; model 2 untouched
        assert np.array_equal(out[2].params, snapshots[2])
        # inputs never mutated
        for m, snap in zip(models, snapshots):
            assert np.array_equal(m.params, snap)

    def test_round_robin_order(self):
        models, data = self._setup(n_models=2)
        _, reports = round_robin(models, data, DdtConfig(), stages=4)
        assert [r.backbone for r in reports[1:]] == [0, 1, 0, 1]

    def test_stage_is_train_stage_with_stage_seed(self):
        models, data = self._setup()
        cfg = DdtConfig(seed=9, epochs=2)
        out, reports = round_robin(models, data, cfg, stages=1)
        expected = models[0].copy()
        peers = [[greedy_decode(m, x) for m in models[1:]] for x, _ in data]
        losses = train_stage(expected, data, peers, cfg, np.random.default_rng((9, 1)))
        assert np.array_equal(out[0].params, expected.params)
        assert (reports[1].mle_loss, reports[1].mean_reward) == losses

    def test_rejects_single_model(self):
        models, data = self._setup()
        with pytest.raises(ValueError):
            round_robin(models[:1], data, DdtConfig(), stages=1)

    def test_decodes_only_the_backbone_again(self, monkeypatch):
        models, data = self._setup()
        cfg = DdtConfig(seed=3, learning_rate=0.3, epochs=3)
        stages, calls = 4, []
        real_decode = policy.greedy_decode

        def counted(model, x):
            calls.append(x)
            return real_decode(model, x)

        monkeypatch.setattr(policy, "greedy_decode", counted)
        out, reports = round_robin(models, data, cfg, stages)
        new_calls, calls[:] = len(calls), []
        want_out, want_reports = reference_round_robin(models, data, cfg, stages)
        old_calls = len(calls)

        def fields(report):
            return (report.stage, report.backbone, report.diversity.hex(),
                    report.mle_loss.hex(), report.mean_reward.hex(), report.outputs)

        assert [fields(r) for r in reports] == [fields(r) for r in want_reports]
        assert len({r.outputs for r in reports}) > 1  # training moved some outputs
        for got, want in zip(out, want_out):
            assert np.array_equal(got.params, want.params)
        n, n_models = len(data), len(models)
        assert old_calls == (stages + 1) * n_models * n
        assert new_calls == n_models * n + stages * n



class TestTrainStage:
    def _setup(self):
        data = [(("a", "b"), ("a", "b")), (("c",), ("c",)), (("b", "c"), ("b", "c"))]
        peers = [[("a",), ("b", "b")], [()], [("c", "a")]]
        return tiny_model(max_len=3, seed=4), data, peers

    def test_matches_step_loop(self):
        model, data, peers = self._setup()
        cfg = DdtConfig(epochs=3, learning_rate=0.1)
        reference = model.copy()
        rng = np.random.default_rng((cfg.seed, 5))
        losses, rewards = [], []
        for _ in range(cfg.epochs):
            for (x, y), p in zip(data, peers):
                loss, r = ddt_step(reference, [(x, y, p)], cfg, rng)
                losses.append(loss)
                rewards.append(r)
        mle_loss, mean_reward = train_stage(
            model, data, peers, cfg, np.random.default_rng((cfg.seed, 5))
        )
        assert np.array_equal(model.params, reference.params)
        assert mle_loss == sum(losses) / len(losses)
        assert mean_reward == sum(rewards) / len(rewards)

    def test_rejects_misaligned_peers(self):
        model, data, peers = self._setup()
        before = model.params.copy()
        with pytest.raises(ValueError):
            train_stage(model, data, peers[:2], DdtConfig(), np.random.default_rng(0))
        assert np.array_equal(model.params, before)

    def test_rejects_empty_data(self):
        model, _, _ = self._setup()
        with pytest.raises(ValueError):
            train_stage(model, [], [], DdtConfig(), np.random.default_rng(0))


class TestMeanPairwiseDiversity:
    def test_identical_outputs(self):
        outs = [[("a", "b")], [("a", "b")], [("a", "b")]]
        assert mean_pairwise_diversity(outs) == pytest.approx(0.0)

    def test_averages_over_pairs(self):
        o1, o2, o3 = [("a", "b", "c", "d")], [("a", "b", "c", "d")], [("x", "y")]
        expected = (
            diversity(o1, o2) + diversity(o1, o3) + diversity(o2, o3)
        ) / 3
        assert mean_pairwise_diversity([o1, o2, o3]) == pytest.approx(expected)
