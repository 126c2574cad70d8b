"""The batched likelihood and gradient routine against per-sentence references.

``reference_grad_logprob`` is the per-sentence, per-token algorithm the
batched routine replaced (one ``np.outer`` per weight and step); it is kept
here as the oracle that padding, masking, weighting and stacked products
must reproduce to rounding error.  ``reference_encode`` and
``reference_step`` are the per-sentence forward that greedy decoding and
sampling ran on before they shared the batched forward's helpers; the
decoders must draw the same tokens from them.
"""

import math
from typing import Sequence

import numpy as np
import pytest

from corrfuse import policy
from corrfuse.ddt import DdtConfig, ddt_step, rl_gradient
from corrfuse.policy import (
    BOS_ID,
    EOS_ID,
    PROB_FLOOR,
    PolicyModel,
    Vocabulary,
    grad_logprob,
    grad_logprob_batch,
    greedy_decode,
    load_model,
    logprob,
    logprob_batch,
    mle_step,
    save_model,
)
from corrfuse.rewards import reward

REL = 1e-12


def close(got, want):
    return np.max(np.abs(got - want)) <= REL * max(np.max(np.abs(want)), 1e-300)


def reference_grad_logprob(model, x, y, include_eos=True):
    """Per-sentence forward and backward, one step and one outer product at
    a time."""
    w = model._views
    x_ids, y_ids = model.vocab.encode(x), model.vocab.encode(y)
    targets = y_ids + [EOS_ID] if include_eos else y_ids
    h = np.zeros(model.hidden_width)
    enc = [h]
    for t in x_ids:
        h = np.tanh(w["enc_in"] @ w["emb"][t] + w["enc_rec"] @ h + w["enc_b"])
        enc.append(h)
    context = w["emb"][x_ids].mean(axis=0) if x_ids else np.zeros(model.embed_width)
    s, prev, lp, steps = h, BOS_ID, 0.0, []
    for t in targets:
        inp = w["emb"][prev] + context
        s_new = np.tanh(w["dec_in"] @ inp + w["dec_rec"] @ s + w["dec_b"])
        logits = w["out_w"] @ s_new + w["out_b"]
        logits[BOS_ID] = -np.inf
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        lp += math.log(max(probs[t], PROB_FLOOR))
        steps.append((prev, inp, s, s_new, probs, t))
        s, prev = s_new, t

    grad = np.zeros_like(model.params)
    g = policy._make_views(grad, model._layout)
    d_context = np.zeros(model.embed_width)
    d_s = np.zeros(model.hidden_width)
    for prev, inp, s_prev, s, probs, t in reversed(steps):
        d_logits = -probs
        d_logits[t] += 1.0
        g["out_w"] += np.outer(d_logits, s)
        g["out_b"] += d_logits
        d_z = (d_s + w["out_w"].T @ d_logits) * (1.0 - s * s)
        g["dec_b"] += d_z
        g["dec_in"] += np.outer(d_z, inp)
        g["dec_rec"] += np.outer(d_z, s_prev)
        d_inp = w["dec_in"].T @ d_z
        g["emb"][prev] += d_inp
        d_context += d_inp
        d_s = w["dec_rec"].T @ d_z
    for i in range(len(x_ids) - 1, -1, -1):
        d_z = d_s * (1.0 - enc[i + 1] ** 2)
        g["enc_b"] += d_z
        g["enc_in"] += np.outer(d_z, w["emb"][x_ids[i]])
        g["enc_rec"] += np.outer(d_z, enc[i])
        g["emb"][x_ids[i]] += w["enc_in"].T @ d_z
        d_s = w["enc_rec"].T @ d_z
    for t in x_ids:
        g["emb"][t] += d_context / len(x_ids)
    return lp, grad


def random_model(rng, max_len=5):
    content = [f"t{i}" for i in range(int(rng.integers(1, 7)))]
    return PolicyModel(
        Vocabulary.build(content),
        embed_width=int(rng.integers(1, 6)),
        hidden_width=int(rng.integers(1, 8)),
        max_len=max_len,
        init_seed=int(rng.integers(1 << 30)),
    )


def random_batch(rng, model):
    """Mixed lengths, empty sources and targets, unknown tokens, a repeated
    source, truncated rows and signed (some zero) weights."""
    alphabet = [t for t in model.vocab.tokens[1:] if t != "<eos>"] + ["oov"]
    rows = int(rng.integers(1, 7))

    def seq(longest):
        return tuple(rng.choice(alphabet, size=int(rng.integers(0, longest + 1))))

    xs = [seq(6) for _ in range(rows)]
    if rows > 2:
        xs[1] = xs[0]
    ys = [seq(model.max_len) for _ in range(rows)]
    eos = [bool(rng.random() < 0.7) for _ in range(rows)]
    weights = rng.normal(size=rows)
    weights[rng.random(rows) < 0.2] = 0.0
    return xs, ys, eos, weights


class TestReference:
    def test_single_sentence_matches_per_token_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            model = random_model(rng)
            xs, ys, eos, _ = random_batch(rng, model)
            for x, y, e in zip(xs, ys, eos):
                lp, grad = grad_logprob(model, x, y, e)
                ref_lp, ref_grad = reference_grad_logprob(model, x, y, e)
                assert lp == pytest.approx(ref_lp, rel=REL, abs=REL)
                assert close(grad, ref_grad)


class TestBatchEquivalence:
    def test_weighted_sum_of_single_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            model = random_model(rng)
            xs, ys, eos, weights = random_batch(rng, model)
            lps, grad = grad_logprob_batch(model, xs, ys, eos, weights)
            want = model.zero_grad_like()
            for i, (x, y, e, wt) in enumerate(zip(xs, ys, eos, weights)):
                want += wt * grad_logprob(model, x, y, e)[1]
                assert lps[i] == pytest.approx(logprob(model, x, y, e), rel=REL, abs=REL)
            assert close(grad, want)

    def test_unit_weights_by_default(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        xs, ys, _, _ = random_batch(rng, model)
        _, plain = grad_logprob_batch(model, xs, ys)
        _, ones = grad_logprob_batch(model, xs, ys, True, np.ones(len(xs)))
        assert np.array_equal(plain, ones)

    def test_ids_and_tokens_agree(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        xs, ys, eos, weights = random_batch(rng, model)
        lps, grad = grad_logprob_batch(model, xs, ys, eos, weights)
        encode = model.vocab.encode
        lps_ids, grad_ids = grad_logprob_batch(
            model, [encode(x) for x in xs], [encode(y) for y in ys], eos, weights
        )
        assert np.array_equal(lps, lps_ids) and np.array_equal(grad, grad_ids)
        assert np.array_equal(logprob_batch(model, xs, ys, eos), lps)

    def test_all_rows_empty(self):
        model = random_model(np.random.default_rng(2))
        lps, grad = grad_logprob_batch(model, [(), ()], [(), ()], False)
        assert np.array_equal(lps, [0.0, 0.0])
        assert not grad.any()

    def test_overlong_target_raises_as_before(self):
        model = random_model(np.random.default_rng(4), max_len=2)
        with pytest.raises(ValueError, match="target of length 3 exceeds decode limit 2"):
            grad_logprob_batch(model, [(), ("t0",)], [(), ("t0",) * 3])
        with pytest.raises(ValueError, match="target of length 3 exceeds decode limit 2"):
            logprob(model, ("t0",), ("t0",) * 3)


class TestMleStep:
    def test_token_ids_give_the_same_step(self):
        rng = np.random.default_rng(6)
        a = random_model(rng)
        b = a.copy()
        xs, ys, _, _ = random_batch(rng, a)
        nll_tokens = mle_step(a, list(zip(xs, ys)), 0.1)
        encode = a.vocab.encode
        nll_ids = mle_step(b, [(encode(x), encode(y)) for x, y in zip(xs, ys)], 0.1)
        assert nll_tokens == nll_ids
        assert np.array_equal(a.params, b.params)


def reference_rl_gradient(model, x, peers, cfg, rng):
    """The per-sample accumulation rl_gradient used before batching."""
    k = cfg.k_samples
    samples = [policy.sample(model, x, rng) for _ in range(k)]
    rewards = [reward(cfg.reward_kind, peers, y, cfg.normalize_reward) for y in samples]
    r_bar = sum(rewards) / k
    grad = model.zero_grad_like()
    if max(rewards) == min(rewards):
        return grad, r_bar
    for y, r in zip(samples, rewards):
        if r != r_bar:
            _, g = grad_logprob(model, x, y, include_eos=len(y) < model.max_len)
            grad += ((r - r_bar) / (k - 1)) * g
    return grad, r_bar


class TestRlGradient:
    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(21)
        zero_cases = 0
        for trial in range(30):
            model = random_model(rng, max_len=int(rng.integers(1, 5)))
            if trial % 10 == 0:
                model.params[:] = 0.0
                model._views["out_b"][EOS_ID] = 60.0  # every sample is ()
            xs, ys, _, _ = random_batch(rng, model)
            cfg = DdtConfig(k_samples=int(rng.integers(2, 7)))
            seed = int(rng.integers(1 << 30))
            got, r_got = rl_gradient(model, xs[0], ys, cfg, np.random.default_rng(seed))
            want, r_want = reference_rl_gradient(model, xs[0], ys, cfg, np.random.default_rng(seed))
            assert r_got == r_want
            if not want.any():
                zero_cases += 1
                assert np.array_equal(got, want)
            else:
                assert close(got, want)
        assert zero_cases >= 3


# Verbatim copies of the former per-sentence forward (``policy._encode`` and
# ``policy._step``), names prefixed.
def reference_encode(model: PolicyModel, x_ids: Sequence[int]):
    w = model._views
    h = np.zeros(model.hidden_width)
    states = [h]
    for t in x_ids:
        h = np.tanh(w["enc_in"] @ w["emb"][t] + w["enc_rec"] @ h + w["enc_b"])
        states.append(h)
    if x_ids:
        context = w["emb"][list(x_ids)].mean(axis=0)
    else:
        context = np.zeros(model.embed_width)
    return states, context


def reference_step(model: PolicyModel, s_prev: np.ndarray, prev_id: int, context: np.ndarray):
    w = model._views
    inp = w["emb"][prev_id] + context
    s = np.tanh(w["dec_in"] @ inp + w["dec_rec"] @ s_prev + w["dec_b"])
    logits = w["out_w"] @ s + w["out_b"]
    logits[BOS_ID] = -np.inf  # BOS is never emitted
    m = logits.max()
    exp = np.exp(logits - m)
    probs = exp / exp.sum()
    return inp, s, probs


def reference_greedy_decode(model, x, max_len=None):
    """The argmax decoder on the former per-sentence forward."""
    limit = model.max_len if max_len is None else min(max_len, model.max_len)
    states, context = reference_encode(model, model.vocab.encode(x))
    s = states[-1]
    prev = BOS_ID
    out = []
    for _ in range(limit):
        _, s, probs = reference_step(model, s, prev, context)
        idx = int(np.argmax(probs))
        if idx == EOS_ID:
            return tuple(out)
        out.append(model.vocab.tokens[idx])
        prev = idx
    return tuple(out)


class TestGreedyDecode:
    def test_equals_reference_on_random_models(self):
        rng = np.random.default_rng(41)
        lengths, sources = set(), set()
        for trial in range(80):
            model = random_model(rng, max_len=int(rng.integers(1, 7)))
            model.params *= rng.uniform(1.0, 40.0)  # peaked enough to emit tokens
            max_len = None if trial % 3 else int(rng.integers(0, 5))
            for x in random_batch(rng, model)[0]:
                got = greedy_decode(model, x, max_len)
                assert got == reference_greedy_decode(model, x, max_len)
                lengths.add(len(got))
                sources.add("empty" if not x else "oov" if "oov" in x else "known")
        assert {"empty", "oov", "known"} <= sources
        assert 0 in lengths and max(lengths) >= 4

    def test_zero_parameter_ties_go_to_the_lowest_index(self):
        model = random_model(np.random.default_rng(12), max_len=6)
        model.params[:] = 0.0
        for x in [(), ("t0",), ("oov", "t0")]:
            # every token but BOS is equally likely: EOS has the lowest index
            assert greedy_decode(model, x) == reference_greedy_decode(model, x) == ()
        content = model.vocab.tokens[3:]
        model._views["out_b"][3:] = 1.0  # the content tokens tie above EOS
        for max_len in (None, 0, 2, 9):
            want = (content[0],) * min(6 if max_len is None else max_len, 6)
            assert greedy_decode(model, ("t0",), max_len) == want
            assert reference_greedy_decode(model, ("t0",), max_len) == want


def reference_sample(model, x, rng, max_len=None):
    """The single-draw sampler that encoded the source on every call."""
    limit = model.max_len if max_len is None else min(max_len, model.max_len)
    states, context = reference_encode(model, model.vocab.encode(x))
    s = states[-1]
    prev = BOS_ID
    out = []
    for _ in range(limit):
        _, s, probs = reference_step(model, s, prev, context)
        u = rng.random()
        idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        idx = min(idx, len(probs) - 1)
        if idx == EOS_ID:
            return tuple(out)
        out.append(model.vocab.tokens[idx])
        prev = idx
    return tuple(out)


class TestSampleMany:
    def test_equals_successive_single_draws(self):
        rng = np.random.default_rng(33)
        lengths = set()
        for trial in range(40):
            model = random_model(rng, max_len=int(rng.integers(1, 6)))
            if trial % 8 == 0:
                model.params[:] = 0.0
                model._views["out_b"][EOS_ID] = 60.0  # every draw is ()
            xs, _, _, _ = random_batch(rng, model)
            k = int(rng.integers(1, 7))
            max_len = None if trial % 3 else int(rng.integers(0, 4))
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = policy.sample_many(model, xs[0], got_rng, k, max_len)
            want = [reference_sample(model, xs[0], want_rng, max_len) for _ in range(k)]
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            lengths.update(len(y) for y in got)
        assert 0 in lengths and max(lengths) >= 3  # stops at EOS and at the cap

    def test_sample_is_one_draw(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        xs, _, _, _ = random_batch(rng, model)
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(5):
            assert policy.sample(model, xs[0], got_rng) == reference_sample(model, xs[0], want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestDdtStep:
    def test_alpha_one_nll_is_mean_reference_nll(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        xs, ys, _, _ = random_batch(rng, model)
        batch = [(x, y, [y]) for x, y in zip(xs, ys)]
        want = -sum(logprob(model, x, y) for x, y in zip(xs, ys)) / len(xs)
        nll, _ = ddt_step(model, batch, DdtConfig(alpha=1.0), np.random.default_rng(0))
        assert nll == pytest.approx(want, rel=REL, abs=REL)


def test_checkpoint_bytes_are_one_repr_per_line(tmp_path):
    model = PolicyModel(Vocabulary.build(["a", "b"]), 3, 4, 5, init_seed=17)
    model.params[:3] = [0.1, -0.0, 1e-300]  # short, signed-zero and tiny reprs
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    lines = ["corrfuse-policy v1 vocab=5 embed=3 hidden=4 max_len=5 seed=17"]
    lines += [repr(float(v)) for v in model.params]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert np.array_equal(load_model(str(path), model.vocab).params, model.params)
