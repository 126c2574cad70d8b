import itertools
import math

import numpy as np
import pytest

from corrfuse.policy import (
    EOS_ID,
    PROB_FLOOR,
    PolicyModel,
    StepWorkspace,
    Vocabulary,
    format_model,
    format_vocab,
    grad_logprob,
    greedy_decode,
    logprob,
    mle_step,
    pad_batches,
    parse_model,
    parse_vocab,
    sample,
)


def tiny_model(content=("a", "b", "c"), embed=3, hidden=4, max_len=3, seed=0):
    return PolicyModel(Vocabulary.build(content), embed, hidden, max_len, init_seed=seed)


def emittable_tokens(model):
    """Tokens the policy can emit: everything except BOS and EOS."""
    return [t for i, t in enumerate(model.vocab.tokens) if i not in (0, EOS_ID)]


def enumerate_sample_space(model, x):
    """All sequences the sampler can produce, with their exact probabilities.

    Sequences shorter than max_len end by drawing EOS; sequences at max_len
    are truncated without an EOS factor.
    """
    out = []
    alphabet = emittable_tokens(model)
    for length in range(model.max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            ended = length < model.max_len
            lp = logprob(model, x, combo, include_eos=ended)
            out.append((combo, math.exp(lp)))
    return out


class TestVocabulary:
    def test_reserved_layout(self):
        v = Vocabulary.build(["x", "y"])
        assert v.tokens[:3] == ("<bos>", "<eos>", "<unk>")
        assert len(v) == 5

    def test_first_seen_order_without_duplicates(self):
        v = Vocabulary.build(iter(["b", "a", "b", "c", "a"]))
        assert v.tokens == ("<bos>", "<eos>", "<unk>", "b", "a", "c")

    def test_unknown_maps_to_unk(self):
        v = Vocabulary.build(["x"])
        assert v.id_of("zzz") == 2

    def test_rejects_reserved_in_content(self):
        with pytest.raises(ValueError):
            Vocabulary.build(["<eos>"])

    def test_file_round_trip(self):
        v = Vocabulary.build(["alpha", "beta"])
        text = format_vocab(v)
        assert text == "<bos>\n<eos>\n<unk>\nalpha\nbeta\n"
        for copy in (text, text.replace("\n", "\r\n")):  # the CR LF copy parses the same
            assert parse_vocab(copy) == v


class TestLogprob:
    def test_probability_bound(self):
        model = tiny_model()
        for y in [(), ("a",), ("a", "b"), ("zzz",)]:
            lp = logprob(model, ("a", "c"), y)
            assert lp <= 0.0
            assert 0.0 < math.exp(lp) <= 1.0

    def test_uniform_closed_form(self):
        # zero parameters make every next-token distribution uniform over
        # the emittable vocabulary plus EOS
        model = tiny_model(content=("a", "b"))
        model.params[:] = 0.0
        v_eff = len(model.vocab) - 1  # BOS masked out
        for y in [(), ("a",), ("a", "b")]:
            expected = (len(y) + 1) * math.log(1.0 / v_eff)
            assert logprob(model, ("a",), y) == pytest.approx(expected)

    def test_total_mass_is_one(self):
        model = tiny_model(max_len=3, seed=5)
        total = sum(p for _, p in enumerate_sample_space(model, ("b", "a")))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_overlong_target(self):
        model = tiny_model(max_len=2)
        with pytest.raises(ValueError):
            logprob(model, ("a",), ("a", "b", "c"))

    def test_next_distribution_normalized(self):
        rng = np.random.default_rng(0)
        model = tiny_model(seed=3)
        tokens = emittable_tokens(model)
        for _ in range(20):
            prefix = tuple(rng.choice(tokens, size=rng.integers(0, 3)))
            base = logprob(model, ("a", "b"), prefix, include_eos=False)
            # P(tok | prefix) = P(prefix + tok) / P(prefix); EOS ends the prefix
            probs = [
                math.exp(logprob(model, ("a", "b"), prefix + (tok,), include_eos=False) - base)
                for tok in tokens
            ] + [math.exp(logprob(model, ("a", "b"), prefix) - base)]
            assert all(p > 0.0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            # BOS is never emitted: its probability sits at the log floor
            bos = logprob(model, ("a", "b"), prefix + ("<bos>",), include_eos=False) - base
            assert bos == pytest.approx(math.log(PROB_FLOOR))


class TestGradients:
    def test_matches_finite_differences_many_models(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            model = PolicyModel(
                Vocabulary.build(["a", "b", "c"][: int(rng.integers(1, 4))]),
                embed_width=int(rng.integers(2, 5)),
                hidden_width=int(rng.integers(2, 6)),
                max_len=4,
                init_seed=trial,
            )
            tokens = emittable_tokens(model)
            x = tuple(rng.choice(tokens, size=rng.integers(0, 4)))
            y = tuple(rng.choice(tokens, size=rng.integers(0, 4)))
            _, grad = grad_logprob(model, x, y)
            h = 1e-5
            fd = np.zeros_like(model.params)
            for i in range(model.params.size):
                model.params[i] += h
                up = logprob(model, x, y)
                model.params[i] -= 2 * h
                down = logprob(model, x, y)
                model.params[i] += h
                fd[i] = (up - down) / (2 * h)
            rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
            assert rel < 1e-4

    def test_gradient_without_eos_term(self):
        model = tiny_model(seed=9)
        x, y = ("a",), ("b", "c")
        lp, grad = grad_logprob(model, x, y, include_eos=False)
        h = 1e-5
        fd = np.zeros_like(model.params)
        for i in range(model.params.size):
            model.params[i] += h
            up = logprob(model, x, y, include_eos=False)
            model.params[i] -= 2 * h
            down = logprob(model, x, y, include_eos=False)
            model.params[i] += h
            fd[i] = (up - down) / (2 * h)
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-4
        assert lp == pytest.approx(logprob(model, x, y, include_eos=False))


class TestSampling:
    def test_forced_stop(self):
        model = tiny_model()
        model.params[:] = 0.0
        # huge EOS bias: stop immediately, every seed
        model._views["out_b"][EOS_ID] = 50.0
        for seed in range(1000):
            assert sample(model, ("a",), np.random.default_rng(seed)) == ()

    def test_deterministic_given_seed(self):
        model = tiny_model(seed=2)
        a = sample(model, ("a", "b"), np.random.default_rng(123))
        b = sample(model, ("a", "b"), np.random.default_rng(123))
        assert a == b

    def test_first_token_frequencies_match_distribution(self):
        model = tiny_model(seed=7, max_len=1)
        x = ("b",)
        n = 50_000
        rng = np.random.default_rng(99)
        counts = {tok: 0 for tok in model.vocab.tokens}
        eos_count = 0
        for _ in range(n):
            drawn = sample(model, x, rng)
            if drawn == ():
                eos_count += 1
            else:
                counts[drawn[0]] += 1
        # 3-sigma binomial bounds per outcome
        for idx, tok in enumerate(model.vocab.tokens):
            observed = eos_count if idx == EOS_ID else counts[tok]
            if idx == 0:
                assert observed == 0
                continue
            # first-step probability: a one-token sample is cut at max_len = 1
            # without an EOS factor; EOS alone is the empty sequence
            if idx == EOS_ID:
                p = math.exp(logprob(model, x, ()))
            else:
                p = math.exp(logprob(model, x, (tok,), include_eos=False))
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(observed - n * p) <= 3 * sigma + 1e-9

    def test_sequence_frequencies_match_exact_probabilities(self):
        model = tiny_model(content=("a", "b", "c"), max_len=2, seed=11)
        x = ("a",)
        space = dict(enumerate_sample_space(model, x))
        n = 30_000
        rng = np.random.default_rng(5)
        counts = {}
        for _ in range(n):
            s = sample(model, x, rng)
            counts[s] = counts.get(s, 0) + 1
        for seq, p in space.items():
            observed = counts.get(seq, 0)
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(observed - n * p) <= 3 * sigma + 1e-9


class TestGreedyDecode:
    def test_forced_eos_gives_empty(self):
        model = tiny_model()
        model.params[:] = 0.0
        model._views["out_b"][EOS_ID] = 5.0
        assert greedy_decode(model, ("a",)) == ()

    def test_uniform_ties_break_to_lowest_index(self):
        model = tiny_model()
        model.params[:] = 0.0
        # all emittable logits equal: the lowest non-BOS index is EOS
        assert greedy_decode(model, ("a",)) == ()

    def test_matches_exhaustive_when_greedy_is_optimal(self):
        # bias-only model: fixed next-token distribution at every step, so
        # the most probable sequence is reachable greedily
        model = tiny_model(content=("a", "b"), max_len=3)
        model.params[:] = 0.0
        out_b = model._views["out_b"]
        out_b[EOS_ID] = 1.0
        out_b[model.vocab.id_of("a")] = 2.0
        best = max(enumerate_sample_space(model, ("b",)), key=lambda kv: kv[1])
        assert greedy_decode(model, ("b",)) == best[0] == ("a", "a", "a")


def mle_step_alone(model, batch, learning_rate):
    """``mle_step`` of ``model`` alone on the (source, target) pairs of ``batch``."""
    padded = pad_batches(model, [x for x, _ in batch], [y for _, y in batch], True)
    ws = StepWorkspace(model, model.params[None], padded, len(batch))
    return mle_step(ws, padded, learning_rate)[0]


class TestMleStep:
    def test_nll_decreases_over_repeated_steps(self):
        model = tiny_model(seed=13)
        batch = [(("a", "b"), ("a", "c"))]
        losses = [mle_step_alone(model, batch, 0.02) for _ in range(100)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_zero_learning_rate_keeps_params(self):
        model = tiny_model(seed=1)
        before = model.params.copy()
        mle_step_alone(model, [(("a",), ("b",))], 0.0)
        assert np.array_equal(model.params, before)

    def test_returns_pre_step_mean_nll(self):
        model = tiny_model(seed=4)
        batch = [(("a",), ("b",)), (("b",), ("c",))]
        expected = -sum(logprob(model, x, y) for x, y in batch) / 2
        got = mle_step_alone(model, batch, 0.05)
        assert got == pytest.approx(expected)


class TestSerialization:
    def test_checkpoint_round_trip_bit_identical(self):
        model = tiny_model(seed=21)
        text = format_model(model)
        for copy in (text, text.replace("\n", "\r\n")):  # the CR LF copy parses the same
            loaded = parse_model(copy, model.vocab)
            assert np.array_equal(loaded.params, model.params)
            assert loaded.params.tobytes() == model.params.tobytes()
            assert (loaded.embed_width, loaded.hidden_width, loaded.max_len, loaded.init_seed) == (
                model.embed_width,
                model.hidden_width,
                model.max_len,
                model.init_seed,
            )
            assert loaded.vocab == model.vocab

    def test_rejects_wrong_vocab(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            parse_model(format_model(model), Vocabulary.build(["only"]))

    def test_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            parse_model("something else\n1.0\n", Vocabulary.build(["a"]))

    @pytest.mark.parametrize(
        "line", ["1_0", " 1.5 ", "nan", "1e400", "abc", "\uff11\uff12.5", "\x851.5", "0x10"]
    )
    def test_parameter_line_reads_as_float_reads_it(self, line):
        model = tiny_model()
        lines = format_model(model).splitlines()
        lines[2] = line
        text = "\n".join(lines) + "\n"
        try:
            value = float(line)
        except ValueError:
            with pytest.raises(ValueError, match="could not convert string to float"):
                parse_model(text, model.vocab)
            return
        if not math.isfinite(value):
            with pytest.raises(ValueError, match="non-finite parameters"):
                parse_model(text, model.vocab)
            return
        expected = model.params.copy()
        expected[1] = value
        assert parse_model(text, model.vocab).params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_parameters(self, bad):
        model = tiny_model()
        lines = format_model(model).splitlines()
        lines[2] = bad
        with pytest.raises(ValueError, match="non-finite parameters"):
            parse_model("\n".join(lines) + "\n", model.vocab)
