import itertools
import math

import numpy as np
import pytest

from corrfuse import ddt, policy
from corrfuse.ddt import StageReport, ddt_step, rl_gradient, round_robin, train_stage
from corrfuse.errors import NumericError
from corrfuse.evaluation import diversity, mean_pairwise_diversity
from corrfuse.policy import (
    EOS_ID,
    PolicyModel,
    StepWorkspace,
    Vocabulary,
    grad_logprob,
    greedy_decode,
    mle_step,
    pad_batches,
    sample,
)
from corrfuse.rewards import RewardKind

from defaults import ddt_cfg
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


class TestRlGradient:
    def test_zero_when_all_samples_identical(self):
        model = tiny_model()
        model.params[:] = 0.0
        model._views["out_b"][EOS_ID] = 60.0  # deterministic empty output
        cfg = ddt_cfg(k_samples=4)
        grad, r_bar = rl_gradient(model, ("a",), [("b", "c")], cfg, np.random.default_rng(0))
        assert np.all(grad == 0.0)
        assert r_bar == 2.0  # edit distance of () vs the peer

    def test_deterministic_given_seed(self):
        model = tiny_model(seed=3)
        cfg = ddt_cfg(k_samples=3)
        g1, r1 = rl_gradient(model, ("a",), [("b",)], cfg, np.random.default_rng(7))
        g2, r2 = rl_gradient(model, ("a",), [("b",)], cfg, np.random.default_rng(7))
        assert np.array_equal(g1, g2) and r1 == r2

    def test_expectation_equals_exact_gradient(self):
        # vocab of 3 tokens, outputs of length <= 2: the whole sample space
        # and every k-tuple of samples can be enumerated
        model = tiny_model(max_len=2, seed=5)
        x = ("a", "b")
        peers = [("a", "b"), ("c",)]
        cfg = ddt_cfg(k_samples=2, reward_kind=RewardKind.MIN_EDIT_DISTANCE)
        estimated = expected_estimator_over_tuples(model, x, peers, cfg)
        exact = fd_gradient_of_expected_reward(model, x, peers, cfg.reward_kind)
        assert np.max(np.abs(estimated - exact)) < 1e-6

    def test_baseline_reduces_variance(self):
        model = tiny_model(content=("a", "b", "c"), embed=2, hidden=2, max_len=3, seed=1)
        x = ("a", "c")
        peers = [("a", "b", "c"), ("b", "b")]
        cfg = ddt_cfg(k_samples=4)
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
        x, y = ("b",), ("c", "a")
        cfg = ddt_cfg(alpha=0.0, learning_rate=0.03)
        loss_ddt, mean_r = ddt_step(model_a, x, y, [("a",)], cfg, np.random.default_rng(0))
        padded = pad_batches(model_b, [x], [y], True)
        loss_mle = mle_step(StepWorkspace(model_b, model_b.params[None], padded, 1), padded, 0.03)[0]
        assert np.array_equal(model_a.params, model_b.params)
        assert loss_ddt == pytest.approx(loss_mle)
        assert mean_r == 0.0

    def test_alpha_one_constant_reward_no_update(self):
        model = tiny_model()
        model.params[:] = 0.0
        model._views["out_b"][EOS_ID] = 60.0  # only possible output is ()
        before = model.params.copy()
        cfg = ddt_cfg(alpha=1.0, learning_rate=0.05)
        ddt_step(model, ("a",), ("a",), [()], cfg, np.random.default_rng(1))
        assert np.array_equal(model.params, before)

    def test_alpha_interpolation(self):
        step = (("c",), ("a", "b"), [("b",)])
        alpha = 0.3
        base = tiny_model(seed=17)

        m_mle = base.copy()
        cfg_mle = ddt_cfg(alpha=0.0, learning_rate=1.0)
        ddt_step(m_mle, *step, cfg_mle, np.random.default_rng(55))
        update_mle = m_mle.params - base.params

        m_rl = base.copy()
        cfg_rl = ddt_cfg(alpha=1.0, learning_rate=1.0)
        ddt_step(m_rl, *step, cfg_rl, np.random.default_rng(55))
        update_rl = m_rl.params - base.params

        m_mix = base.copy()
        cfg_mix = ddt_cfg(alpha=alpha, learning_rate=1.0)
        ddt_step(m_mix, *step, cfg_mix, np.random.default_rng(55))
        update_mix = m_mix.params - base.params

        expected = (1 - alpha) * update_mle + alpha * update_rl
        assert np.allclose(update_mix, expected, rtol=1e-12, atol=1e-12)

    def test_training_increases_diversity_from_peers(self):
        model = tiny_model(content=("a", "b", "c"), embed=4, hidden=6, max_len=3, seed=2)
        inputs = [("a", "b"), ("b", "c"), ("c",), ("a", "c", "b")]
        peers = {x: [greedy_decode(model, x)] for x in inputs}
        refs = {x: peers[x][0] for x in inputs}
        base_div = diversity(
            [greedy_decode(model, x) for x in inputs], [peers[x][0] for x in inputs]
        )
        cfg = ddt_cfg(alpha=0.5, k_samples=4, learning_rate=0.2)
        rng = np.random.default_rng(23)
        for _ in range(50):
            for x in inputs:
                ddt_step(model, x, refs[x], peers[x], cfg, rng)
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
        mle_loss, mean_reward = train_stage(models[backbone], data, list(zip(*peer_sets)), cfg, stage)
        outputs = decode_all()
        reports.append(
            StageReport(
                stage, backbone, mean_pairwise_diversity(outputs), mle_loss, mean_reward,
                tuple(tuple(o) for o in outputs),
            )
        )
    return models, reports


def read_stream(stream):
    """The last stage's models and every stage's report, read from a round
    robin's stream of (report, models) pairs."""
    pairs = list(stream)
    return pairs[-1][1], [report for report, _ in pairs]


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
        out, reports = read_stream(round_robin(models, data, ddt_cfg(), stages=0))
        for before, after in zip(models, out):
            assert np.array_equal(before.params, after.params)
        assert len(reports) == 1 and reports[0].stage == 0

    def test_single_stage_trains_only_first_model(self):
        models, data = self._setup()
        out, reports = read_stream(round_robin(models, data, ddt_cfg(learning_rate=0.05, seed=0), stages=1))
        assert not np.array_equal(out[0].params, models[0].params)
        assert np.array_equal(out[1].params, models[1].params)
        assert np.array_equal(out[2].params, models[2].params)
        assert reports[1].backbone == 0

    def test_freeze_contract_across_stages(self):
        models, data = self._setup()
        snapshots = [m.params.copy() for m in models]
        out, _ = read_stream(round_robin(models, data, ddt_cfg(learning_rate=0.05, seed=0), stages=2))
        # stage 1 trains model 0, stage 2 trains model 1; model 2 untouched
        assert np.array_equal(out[2].params, snapshots[2])
        # inputs never mutated
        for m, snap in zip(models, snapshots):
            assert np.array_equal(m.params, snap)

    def test_round_robin_order(self):
        models, data = self._setup(n_models=2)
        _, reports = read_stream(round_robin(models, data, ddt_cfg(learning_rate=0.05, seed=0), stages=4))
        assert [r.backbone for r in reports[1:]] == [0, 1, 0, 1]

    def test_stage_is_train_stage_with_stage_seed(self):
        models, data = self._setup()
        cfg = ddt_cfg(seed=9, epochs=2, learning_rate=0.05)
        out, reports = read_stream(round_robin(models, data, cfg, stages=1))
        expected = models[0].copy()
        peers = [[greedy_decode(m, x) for x, _ in data] for m in models[1:]]
        losses = train_stage(expected, data, peers, cfg, 1)
        assert np.array_equal(out[0].params, expected.params)
        assert (reports[1].mle_loss, reports[1].mean_reward) == losses

    @pytest.mark.parametrize(
        "n_models, stages, n_data, message",
        [(1, 1, 3, "at least 2 models"), (3, -1, 3, "stage count"), (3, 1, 0, "empty training data")],
        ids=["single-model", "negative-stages", "empty-data"],
    )
    def test_rejects_single_model(self, n_models, stages, n_data, message):
        """The arguments are checked at the call, before the stream is read."""
        models, data = self._setup()
        with pytest.raises(ValueError, match=message):
            round_robin(models[:n_models], data[:n_data], ddt_cfg(), stages=stages)

    def test_each_yielded_stage_keeps_its_own_models(self):
        """Two models and four stages, so each model is trained twice: each
        yielded pair's models decode the sources to that report's outputs,
        and once the stream is exhausted they still hold the parameters they
        had when yielded, which a stream of the live model list would not."""
        models, data = self._setup(n_models=2)
        yielded = []
        for report, stage_models in round_robin(models, data, ddt_cfg(learning_rate=0.05, seed=0), 4):
            decoded = tuple(tuple(greedy_decode(m, x) for x, _ in data) for m in stage_models)
            assert decoded == report.outputs
            yielded.append((stage_models, [m.params.copy() for m in stage_models]))
        assert len(yielded) == 5
        for stage_models, snapshot in yielded:
            for model, params in zip(stage_models, snapshot):
                assert np.array_equal(model.params, params)
        # stages 1 and 3 train model 0, 2 and 4 model 1: each training moved it
        for stage, m in ((1, 0), (2, 1), (3, 0), (4, 1)):
            assert not np.array_equal(yielded[stage][1][m], yielded[stage - 1][1][m])

    @pytest.mark.parametrize("n_models", [2, 3, 4])
    def test_decodes_only_the_backbone_again(self, monkeypatch, n_models):
        models, data = self._setup(n_models=n_models)
        cfg = ddt_cfg(seed=3, learning_rate=0.3, epochs=3)
        stages, calls = 4, []
        real_decode = policy.greedy_decode

        def counted(model, x):
            calls.append(x)
            return real_decode(model, x)

        monkeypatch.setattr(policy, "greedy_decode", counted)
        out, reports = read_stream(round_robin(models, data, cfg, stages))
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
        n = len(data)
        assert old_calls == (stages + 1) * n_models * n
        assert new_calls == n_models * n + stages * n
        # each report's diversity is evaluation's one function of its outputs
        for report in reports:
            assert report.diversity.hex() == mean_pairwise_diversity(report.outputs).hex()

    def test_a_diverging_stage_raises_naming_it_before_its_backbone_decodes(self, monkeypatch):
        models, data = self._setup()
        decoded, steps = [], []
        real_decode, real_step = policy.greedy_decode, ddt.ddt_step
        monkeypatch.setattr(policy, "greedy_decode", lambda m, x: decoded.append(m) or real_decode(m, x))
        for stage in (1, 2, 3):
            decoded.clear()
            steps.clear()

            def step(model, *args, stage=stage):
                result = real_step(model, *args)
                steps.append(model)
                if len(steps) == (stage - 1) * len(data) + 1:  # the stage's first step
                    model.params[0] = np.nan
                return result

            monkeypatch.setattr(ddt, "ddt_step", step)
            with pytest.raises(NumericError) as exc:
                list(round_robin(models, data, ddt_cfg(learning_rate=0.05, seed=0), 4))
            assert str(exc.value) == f"non-finite parameters after diversity-driven training stage {stage}"
            assert len(steps) == stage * len(data)  # the stage ran its epoch before the check
            # the first decodes and one per earlier stage's backbone, none after
            assert len(decoded) == (len(models) + stage - 1) * len(data)


class TestTrainStage:
    def _setup(self):
        data = [(("a", "b"), ("a", "b")), (("c",), ("c",)), (("b", "c"), ("b", "c"))]
        peers = [[("a",), (), ("c", "a")], [("b", "b"), ("c",), ()]]  # two systems
        return tiny_model(max_len=3, seed=4), data, peers

    def test_matches_step_loop(self):
        model, data, peers = self._setup()
        cfg = ddt_cfg(epochs=3, learning_rate=0.1, seed=0)
        reference = model.copy()
        rng = np.random.default_rng((cfg.seed, 5))
        losses, rewards = [], []
        for _ in range(cfg.epochs):
            for i, (x, y) in enumerate(data):
                loss, r = ddt_step(reference, x, y, [p[i] for p in peers], cfg, rng)
                losses.append(loss)
                rewards.append(r)
        mle_loss, mean_reward = train_stage(model, data, peers, cfg, 5)
        assert np.array_equal(model.params, reference.params)
        assert mle_loss == sum(losses) / len(losses)
        assert mean_reward == sum(rewards) / len(rewards)

    def test_rejects_misaligned_peers(self):
        model, data, peers = self._setup()
        before = model.params.copy()
        with pytest.raises(ValueError):
            train_stage(model, data, [peers[0], peers[1][:2]], ddt_cfg(), 0)
        assert np.array_equal(model.params, before)

    def test_rejects_empty_data(self):
        model, _, _ = self._setup()
        with pytest.raises(ValueError):
            train_stage(model, [], [], ddt_cfg(), 0)

    def test_a_diverged_stage_is_a_numeric_error_naming_its_key(self, monkeypatch):
        model, data, peers = self._setup()
        cfg, steps, real_step = ddt_cfg(epochs=2, learning_rate=0.05, seed=0), [], ddt.ddt_step

        def step(model, *args):
            steps.append(model)
            if len(steps) == len(data):  # the first epoch's last step
                model.params[-1] = np.inf
            return real_step(model, *args)

        monkeypatch.setattr(ddt, "ddt_step", step)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
            train_stage(model, data, peers, cfg, 7)
        assert str(exc.value) == "non-finite parameters after diversity-driven training stage 7"
        assert len(steps) == cfg.epochs * len(data)


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
