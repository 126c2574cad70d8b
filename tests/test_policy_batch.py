"""The batched likelihood and gradient routine against per-sentence references.

``reference_grad_logprob`` is the per-sentence, per-token algorithm the
batched routine replaced (one ``np.outer`` per weight and step); it is kept
here as the oracle that padding, masking, weighting and stacked products
must reproduce to rounding error.  ``reference_encode`` and
``reference_step`` are the per-sentence forward that greedy decoding and
sampling ran on before they shared the batched forward's helpers; the
decoders must draw the same tokens from them.

The ``ref_`` functions at the end are verbatim copies (apart from their
names) of the single-model forward and backward, ``mle_step`` and the
per-model training loop ``cli._train_one`` that the stacked kernel and the
lockstep ``cli._train_models`` replaced.  Every model of a stack must get
the log-likelihoods and gradients of its batch alone, bit for bit, and
lockstep training must write the checkpoints and NLLs of separate training.
"""

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from corrfuse import cli, policy
from corrfuse.cli import _check_finite, _positive_int
from corrfuse.config import ExperimentConfig
from corrfuse.ddt import DdtConfig, ddt_step, rl_gradient
from corrfuse.policy import (
    BOS_ID,
    EOS_ID,
    PROB_FLOOR,
    PolicyModel,
    Vocabulary,
    _ids,
    grad_logprob,
    grad_logprob_batch,
    greedy_decode,
    load_model,
    logprob,
    logprob_batch,
    mle_step,
    mle_step_stack,
    save_model,
    stack_params,
)
from corrfuse.rewards import reward
from corrfuse.textcore import TokenSeq, tokenize

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


def random_batch(rng, model, rows=None, longest_source=6):
    """Mixed lengths, empty sources and targets, unknown tokens, a repeated
    source, truncated rows and signed (some zero) weights; 1-6 rows unless
    ``rows`` is given."""
    alphabet = [t for t in model.vocab.tokens[1:] if t != "<eos>"] + ["oov"]
    rows = int(rng.integers(1, 7)) if rows is None else rows

    def seq(longest):
        return tuple(rng.choice(alphabet, size=int(rng.integers(0, longest + 1))))

    xs = [seq(longest_source) for _ in range(rows)]
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


def reference_greedy_decode(model, x):
    """The argmax decoder on the former per-sentence forward."""
    states, context = reference_encode(model, model.vocab.encode(x))
    s = states[-1]
    prev = BOS_ID
    out = []
    for _ in range(model.max_len):
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
            sources_of_trial = random_batch(rng, model)[0]
            if max_len is not None:  # a shorter limit, 0 included
                model.max_len = min(max_len, model.max_len)
            for x in sources_of_trial:
                got = greedy_decode(model, x)
                assert got == reference_greedy_decode(model, x)
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
        for max_len in (6, 0, 2):
            model.max_len = max_len
            want = (content[0],) * max_len
            assert greedy_decode(model, ("t0",)) == want
            assert reference_greedy_decode(model, ("t0",)) == want


def reference_sample(model, x, rng):
    """The single-draw sampler that encoded the source on every call."""
    states, context = reference_encode(model, model.vocab.encode(x))
    s = states[-1]
    prev = BOS_ID
    out = []
    for _ in range(model.max_len):
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
            if max_len is not None:  # a shorter limit, 0 included
                model.max_len = min(max_len, model.max_len)
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = policy.sample_many(model, xs[0], got_rng, k)
            want = [reference_sample(model, xs[0], want_rng) for _ in range(k)]
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


# ---------------------------------------------------------------------------
# the stacked kernel and lockstep training against the code they replaced
# ---------------------------------------------------------------------------

def ref_make_views(flat: np.ndarray, layout) -> dict[str, np.ndarray]:
    return {name: flat[where].reshape(shape) for name, where, shape in layout}


def ref_encoder(w: dict[str, np.ndarray], x_emb: np.ndarray, x_mask: np.ndarray):
    """Encoder states (Tx + 1, ..., H) from a zero start, mean source
    embeddings and source lengths (at least 1) of time-major sources: (Tx, B,
    E) for a batch, (Tx, E) for one source; ``x_mask`` marks real steps."""
    pre = x_emb @ w["enc_in"].T + w["enc_b"]
    pre *= x_mask[..., None]
    enc = np.zeros((len(x_emb) + 1, *pre.shape[1:]))
    rec = w["enc_rec"].T
    for t in range(len(x_emb)):
        np.tanh(pre[t] + enc[t] @ rec, out=enc[t + 1])
    x_count = np.maximum(x_mask.sum(axis=0), 1)[..., None]
    context = (x_emb * x_mask[..., None]).sum(axis=0) / x_count
    return enc, context, x_count


def ref_decoder_input(w: dict[str, np.ndarray], prev_ids, context: np.ndarray):
    """Decoder inputs and their share of the decoder pre-activation."""
    inp = w["emb"][prev_ids] + context
    return inp, inp @ w["dec_in"].T + w["dec_b"]


def ref_output_probs(w: dict[str, np.ndarray], states: np.ndarray) -> np.ndarray:
    """Next-token distribution over the vocabulary from decoder states."""
    logits = states @ w["out_w"].T + w["out_b"]
    logits[..., BOS_ID] = -np.inf  # BOS is never emitted
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def ref_pad(rows: list[Sequence[int]], left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Time-major (longest, rows) id matrix and its validity mask; padding
    goes before each row when ``left``, after it otherwise."""
    width = max(map(len, rows), default=0)
    padded = [
        [BOS_ID] * (width - len(r)) + list(r) if left else list(r) + [BOS_ID] * (width - len(r))
        for r in rows
    ]
    ids = np.array(padded, dtype=np.intp).reshape(len(rows), width).T
    lengths = np.array([len(r) for r in rows])
    steps = np.arange(width)[:, None]
    return ids, (steps >= width - lengths if left else steps < lengths)


@dataclass
class RefTape:
    """Forward values the backward pass reuses, time-major: Tx source and Ty
    target steps of B rows."""

    x_ids: np.ndarray  # (Tx, B)
    x_mask: np.ndarray  # (Tx, B)
    x_emb: np.ndarray  # (Tx, B, E)
    x_count: np.ndarray  # (B, 1) source length, at least 1
    enc: np.ndarray  # (Tx + 1, B, H) encoder states, enc[0] = 0
    prev_ids: np.ndarray  # (Ty, B) decoder input ids
    inp: np.ndarray  # (Ty, B, E) decoder inputs
    dec: np.ndarray  # (Ty + 1, B, H) decoder states, dec[0] = enc[-1]
    targets: np.ndarray  # (Ty, B)
    t_mask: np.ndarray  # (Ty, B)
    t_valid: tuple[np.ndarray, np.ndarray]  # (step, row) of each real target
    probs: np.ndarray  # (Ty, B, V)


def ref_forward_batch(model: PolicyModel, xs, ys, include_eos) -> tuple[np.ndarray, RefTape]:
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} sources for {len(ys)} targets")
    vocab = model.vocab
    if isinstance(include_eos, bool):
        include_eos = [include_eos] * len(ys)
    targets = []
    for y, ended in zip(ys, include_eos, strict=True):
        if len(y) > model.max_len:
            raise ValueError(f"target of length {len(y)} exceeds decode limit {model.max_len}")
        y_ids = list(_ids(vocab, y))
        targets.append(y_ids + [EOS_ID] if ended else y_ids)
    # sources are left-padded: a padded step has zero input and keeps the
    # zero initial state, so the encoder loop needs no mask
    x_ids, x_mask = ref_pad([_ids(vocab, x) for x in xs], left=True)
    t_ids, t_mask = ref_pad(targets, left=False)
    w = model._views
    rows = len(ys)

    x_emb = w["emb"][x_ids]
    enc, context, x_count = ref_encoder(w, x_emb, x_mask)

    # teacher forcing: the recurrence never reads the logits, so they and the
    # softmax are computed for all steps at once after the loop; steps past a
    # row's end are masked out of its likelihood
    prev_ids = np.full_like(t_ids, BOS_ID)
    prev_ids[1:] = t_ids[:-1]
    inp, dec_pre = ref_decoder_input(w, prev_ids, context)
    dec = np.empty((len(t_ids) + 1, rows, model.hidden_width))
    dec[0] = enc[-1]
    rec = w["dec_rec"].T
    for t in range(len(t_ids)):
        np.tanh(dec_pre[t] + dec[t] @ rec, out=dec[t + 1])
    probs = ref_output_probs(w, dec[1:])
    steps, which = t_valid = np.nonzero(t_mask)
    p_target = probs[steps, which, t_ids[steps, which]]
    # per row, the terms are summed in step order
    lps = np.bincount(which, np.log(np.maximum(p_target, PROB_FLOOR)), minlength=rows)
    tape = RefTape(
        x_ids, x_mask, x_emb, x_count, enc, prev_ids, inp, dec, t_ids, t_mask, t_valid, probs
    )
    return lps, tape


def ref_grad_logprob_batch(
    model: PolicyModel,
    xs: Sequence[Sequence],
    ys: Sequence[Sequence],
    include_eos: bool | Sequence[bool] = True,
    weights: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's log-likelihood, and the weighted sum of their exact
    gradients as a flat vector over params (unit weights by default).

    Rows are (source, target) pairs of tokens or of token ids, as from
    ``Vocabulary.encode``; ``include_eos`` is one flag or one per row.
    """
    lps, tape = ref_forward_batch(model, xs, ys, include_eos)
    w = model._views
    grad = model.zero_grad_like()
    g = ref_make_views(grad, model._layout)
    hidden, embed = model.hidden_width, model.embed_width

    d_logits = -tape.probs
    steps, rows = tape.t_valid
    d_logits[steps, rows, tape.targets[steps, rows]] += 1.0
    d_logits *= tape.t_mask[..., None]
    if weights is not None:
        d_logits *= np.asarray(weights, dtype=np.float64)[:, None]

    # decoder: only the d_s recurrence is sequential; steps past a row's end
    # have zero d_logits, so their d_s stays exactly zero
    dec_out = tape.dec[1:]
    dec_tanh = 1.0 - dec_out * dec_out
    d_z_dec = d_logits @ w["out_w"]  # d_s from the logits, then d_z in place
    d_z_dec *= dec_tanh
    rec = w["dec_rec"]
    for t in range(len(d_z_dec) - 1, 0, -1):
        d_z_dec[t - 1] += (d_z_dec[t] @ rec) * dec_tanh[t - 1]
    d_z_flat = d_z_dec.reshape(-1, hidden)
    g["out_w"][:] = d_logits.reshape(-1, len(model.vocab)).T @ dec_out.reshape(-1, hidden)
    g["out_b"][:] = d_logits.sum(axis=(0, 1))
    g["dec_b"][:] = d_z_flat.sum(axis=0)
    g["dec_in"][:] = d_z_flat.T @ tape.inp.reshape(-1, embed)
    g["dec_rec"][:] = d_z_flat.T @ tape.dec[:-1].reshape(-1, hidden)
    d_inp = d_z_dec @ w["dec_in"]
    np.add.at(g["emb"], tape.prev_ids.ravel(), d_inp.reshape(-1, embed))
    d_context = d_inp.sum(axis=0)

    # encoder: the decoder start state is the final encoder state; padded
    # steps come first and are masked, so their d_z is zero
    enc_out = tape.enc[1:]
    enc_tanh = (1.0 - enc_out * enc_out) * tape.x_mask[..., None]
    d_z_enc = np.empty_like(enc_out)
    d_h = d_z_dec[0] @ rec if len(d_z_dec) else np.zeros((len(lps), hidden))
    rec = w["enc_rec"]
    for t in range(len(enc_out) - 1, -1, -1):
        np.multiply(d_h, enc_tanh[t], out=d_z_enc[t])
        d_h = d_z_enc[t] @ rec
    d_z_flat = d_z_enc.reshape(-1, hidden)
    g["enc_b"][:] = d_z_flat.sum(axis=0)
    g["enc_in"][:] = d_z_flat.T @ tape.x_emb.reshape(-1, embed)
    g["enc_rec"][:] = d_z_flat.T @ tape.enc[:-1].reshape(-1, hidden)
    d_x_emb = d_z_enc @ w["enc_in"] + (d_context / tape.x_count) * tape.x_mask[..., None]
    np.add.at(g["emb"], tape.x_ids.ravel(), d_x_emb.reshape(-1, embed))
    return lps, grad


def ref_mle_step(
    model: PolicyModel,
    batch: Sequence[tuple[TokenSeq, TokenSeq]],
    learning_rate: float,
) -> float:
    """One gradient-ascent step on the summed reference log-likelihood.

    Pairs may hold tokens or token ids (see ``ref_grad_logprob_batch``).
    Returns the pre-step mean negative log-likelihood of the batch.
    """
    if not batch:
        raise ValueError("empty batch")
    lps, total = ref_grad_logprob_batch(model, [x for x, _ in batch], [y for _, y in batch])
    model.params += learning_rate * total
    return -sum(lps.tolist()) / len(batch)


def ref_train_one(
    cfg: ExperimentConfig,
    vocab: Vocabulary,
    pairs: list[tuple[TokenSeq, TokenSeq]],
    index: int,
) -> tuple[PolicyModel, float]:
    seed = cfg.get_int("seed")
    model = PolicyModel(
        vocab,
        embed_width=_positive_int(cfg, "policy.embed"),
        hidden_width=_positive_int(cfg, "policy.hidden"),
        max_len=cfg.get_int("policy.max_len"),
        init_seed=seed * 1000 + 100 + index,
    )
    rng = np.random.default_rng((seed, 200 + index))
    batch_size = _positive_int(cfg, "train.batch")
    lr = cfg.get_float("train.lr")
    last_nll = float("nan")
    encoded = [(vocab.encode(x), vocab.encode(y)) for x, y in pairs]
    for _ in range(cfg.get_int("train.epochs")):
        order = rng.permutation(len(pairs))
        nll_sum = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            batch = [encoded[i] for i in order[start : start + batch_size]]
            nll_sum += ref_mle_step(model, batch, lr)
            n_batches += 1
        last_nll = nll_sum / n_batches
        _check_finite(model, f"individual training of model {index}")
    return model, last_nll


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def random_stack(
    rng, n_models: int, max_len: int, embed: int | None = None
) -> tuple[list[PolicyModel], np.ndarray]:
    """Models of one random architecture, each with its own parameters,
    stacked; embedding and hidden widths of 1 included."""
    vocab = Vocabulary.build([f"t{i}" for i in range(int(rng.integers(1, 7)))])
    embed = int(rng.integers(1, 6)) if embed is None else embed
    hidden = int(rng.integers(1, 8))
    models = [
        PolicyModel(vocab, embed, hidden, max_len, init_seed=int(rng.integers(1 << 30)))
        for _ in range(n_models)
    ]
    return models, stack_params(models)


def widest(rows) -> int:
    return max(map(len, rows), default=0)


class TestStackedKernel:
    def test_each_model_gets_its_batch_alone_bit_for_bit(self):
        rng = np.random.default_rng(71)
        differing = 0
        for trial in range(160):
            n_models, rows = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            models, stack = random_stack(rng, n_models, max_len=int(rng.integers(1, 7)))
            batches = [random_batch(rng, models[0], rows) for _ in models]
            xs, ys, eos, weights = map(list, zip(*batches))
            if trial % 5 == 0:
                eos = bool(trial % 2)  # one flag for every row of every model
            if trial % 4 == 1:
                weights = None
            lps, grads = policy._grad_batch(models[0], xs, ys, eos, weights, stack)
            for m, model in enumerate(models):
                want_lps, want_grad = ref_grad_logprob_batch(
                    model, xs[m], ys[m], eos if isinstance(eos, bool) else eos[m],
                    None if weights is None else weights[m],
                )
                # a batch without target tokens gets integer zeros from np.bincount
                assert same_bits(lps[m], want_lps.astype(np.float64))
                assert same_bits(grads[m], want_grad)
            if len({widest(x) for x in xs}) > 1 and len({widest(y) for y in ys}) > 1:
                differing += 1
        assert differing >= 40  # source and target widths differ between the models

    def test_one_row_of_width_one_embeddings(self):
        """With one row of one-wide embeddings, a model's sums over steps
        are contiguous vectors, which numpy adds pairwise from 9 terms on,
        not in step order; each model must still sum only its own steps."""
        rng = np.random.default_rng(73)
        for _ in range(60):
            models, stack = random_stack(rng, int(rng.integers(2, 5)), max_len=16, embed=1)
            batches = [random_batch(rng, models[0], 1, longest_source=16) for _ in models]
            xs, ys, eos, weights = map(list, zip(*batches))
            lps, grads = policy._grad_batch(models[0], xs, ys, eos, weights, stack)
            for m, model in enumerate(models):
                want_lps, want_grad = ref_grad_logprob_batch(model, xs[m], ys[m], eos[m], weights[m])
                assert same_bits(lps[m], want_lps.astype(np.float64))
                assert same_bits(grads[m], want_grad)

    def test_single_model_calls_match_the_reference(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            model = random_model(rng, max_len=int(rng.integers(1, 7)))
            xs, ys, eos, weights = random_batch(rng, model)
            lps, grad = grad_logprob_batch(model, xs, ys, eos, weights)
            want_lps, want_grad = ref_grad_logprob_batch(model, xs, ys, eos, weights)
            assert same_bits(lps, want_lps.astype(np.float64)) and same_bits(grad, want_grad)
            want_lps = ref_forward_batch(model, xs, ys, eos)[0].astype(np.float64)
            assert same_bits(logprob_batch(model, xs, ys, eos), want_lps)
            twin = model.copy()
            batch = list(zip(xs, ys))
            assert mle_step(model, batch, 0.05) == ref_mle_step(twin, batch, 0.05)
            assert same_bits(model.params, twin.params)

    def test_a_stack_needs_one_batch_per_model_of_one_size(self):
        models, stack = random_stack(np.random.default_rng(3), 2, max_len=4)
        with pytest.raises(ValueError, match="needs one batch each"):
            policy._grad_batch(models[0], [[("t0",)]], [[("t0",)]], True, None, stack)
        with pytest.raises(ValueError, match="needs one batch each"):
            policy._grad_batch(models[0], [[("t0",)], []], [[("t0",)], []], True, None, stack)

    def test_stack_params_makes_each_model_a_view_of_its_row(self):
        models, stack = random_stack(np.random.default_rng(4), 3, max_len=4)
        before = [model.params.copy() for model in models]
        stack[1] += 1.0
        assert same_bits(models[0].params, before[0]) and same_bits(models[2].params, before[2])
        assert same_bits(models[1].params, before[1] + 1.0)
        assert same_bits(models[1]._views["out_b"], models[1].params[-len(models[1].vocab):])


def gen_train_data(root: Path, seed: int, sentences: int) -> list[list[TokenSeq]]:
    """``gen`` into ``root``/run with ``sentences`` training and dev
    sentences; the training sources and references it wrote."""
    args = ["--seed", str(seed), "--set", f"data.dir={root / 'run'}",
            "--set", f"gen.train={sentences}", "--set", f"gen.dev={sentences}", "--set", "gen.test=5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", *args]) == 0
    data = root / "run" / "data"
    return [
        [tokenize(line) for line in (data / name).read_text(encoding="utf-8").splitlines()]
        for name in ("train.src", "train.ref")
    ]


def test_stacked_kernel_on_the_benchmark_train_inputs(tmp_path):
    """The train workload's inputs at CLI seed 1000 (10 sentences, 40
    pairs) and the default architecture: every minibatch of the first two
    lockstep epochs of three models, at their initial parameters."""
    src, ref = gen_train_data(tmp_path, 1000, 10)
    pairs = list(zip(src, ref))
    assert len(pairs) == 40 and all(len(y) <= 16 for y in ref)
    vocab = Vocabulary.build(tok for x, y in pairs for tok in x + y)
    encoded = [(vocab.encode(x), vocab.encode(y)) for x, y in pairs]
    models = [PolicyModel(vocab, 32, 64, 16, init_seed=1000 * 1000 + 100 + i) for i in range(3)]
    stack = stack_params(models)
    rngs = [np.random.default_rng((1000, 200 + i)) for i in range(3)]
    for _ in range(2):
        orders = [rng.permutation(len(pairs)) for rng in rngs]
        for start in range(0, len(pairs), 4):
            batches = [[encoded[i] for i in order[start : start + 4]] for order in orders]
            xs = [[x for x, _ in batch] for batch in batches]
            ys = [[y for _, y in batch] for batch in batches]
            lps, grads = policy._grad_batch(models[0], xs, ys, True, None, stack)
            for m, model in enumerate(models):
                want_lps, want_grad = ref_grad_logprob_batch(model, xs[m], ys[m])
                assert same_bits(lps[m], want_lps) and same_bits(grads[m], want_grad)


@pytest.mark.parametrize(
    "n_models, max_len, kept",
    [(1, 16, 36), (4, 16, 36), (3, 7, 24)],
    ids=["one-model", "four-models", "pairs-over-max-len-dropped"],
)
def test_lockstep_training_matches_separate_training(tmp_path, capsys, n_models, max_len, kept):
    """36 pairs in minibatches of 7, so the last minibatch is smaller
    (1 row, or 3 of the 24 pairs that fit ``policy.max_len`` 7)."""
    src, ref = gen_train_data(tmp_path, 5, 9)
    settings = {"train.batch": 7, "train.epochs": 3, "train.models": n_models,
                "policy.max_len": max_len, "data.dir": str(tmp_path / "run")}
    args = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
    assert cli.main(["train", "--seed", "5", *args]) == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    cfg = ExperimentConfig.load(None, overrides={"seed": 5, **settings})
    pairs = [(x, y) for x, y in zip(src, ref) if len(y) <= max_len]
    assert len(pairs) == kept
    vocab = Vocabulary.build(tok for x, y in pairs for tok in x + y)
    models, nlls = cli._train_models(cfg, vocab, pairs)
    assert len(models) == n_models
    for i in range(n_models):
        want, want_nll = ref_train_one(cfg, vocab, pairs, i)
        assert nlls[i] == want_nll
        assert summary[f"model_{i}_nll"] == cli._fmt(want_nll)
        save_model(want, str(tmp_path / "want.txt"))
        written = tmp_path / "run" / "models" / f"model_{i}.txt"
        assert written.read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert same_bits(models[i].params, want.params)


# ---------------------------------------------------------------------------
# one source's encoding against the batch context it used to share
# ---------------------------------------------------------------------------

def ref_context(
    x_emb: np.ndarray, x_mask: np.ndarray, starts: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean embedding of the real source steps and the source lengths (at
    least 1), of time-major sources: (Tx, B, E) for a batch, (Tx, E) for one
    source.  With ``starts``, the sources are a stack's (Tx, M, B, E), and
    model m adds up its own steps only, from ``starts[m]`` on: the order of
    a sum depends on the shape of what it adds up."""
    x_count = np.maximum(x_mask.sum(axis=0), 1)[..., None]
    masked = x_emb * x_mask[..., None]
    if starts is None:
        total = masked.sum(axis=0)
    else:
        total = np.stack([masked[start:, m].sum(axis=0) for m, start in enumerate(starts)])
    return total / x_count, x_count


def ref_encode_source(w: dict[str, np.ndarray], x_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Final encoder state and context of one source, as 1-D vectors."""
    x_emb, x_mask = w["emb"][x_ids], np.ones(len(x_ids))
    context, _ = ref_context(x_emb, x_mask)
    return policy._encoder(w, x_emb, x_mask)[-1], context


def test_one_source_encoding_and_decoding_match_the_batch_context(monkeypatch):
    """Sources of up to 16 tokens (numpy sums 9 or more contiguous terms
    pairwise), empty sources and embeddings of width 1; the decoders must
    draw the same tokens on either encoding."""
    rng = np.random.default_rng(91)
    empty = width_one = emitted = 0
    for trial in range(120):
        model = random_model(rng, max_len=int(rng.integers(1, 7)))
        if trial % 3 == 0:
            model = PolicyModel(model.vocab, 1, model.hidden_width, model.max_len, model.init_seed)
            width_one += 1
        model.params *= rng.uniform(1.0, 40.0)  # peaked enough to emit tokens
        xs = random_batch(rng, model, longest_source=16)[0]
        for x in xs:
            x_ids = model.vocab.encode(x)
            state, context = policy._encode_source(model._views, x_ids)
            want_state, want_context = ref_encode_source(model._views, x_ids)
            assert same_bits(state, want_state) and same_bits(context, want_context)
            empty += not x
        seed = int(rng.integers(1 << 30))
        got = [greedy_decode(model, x) for x in xs]
        got += policy.sample_many(model, xs[0], np.random.default_rng(seed), 4)
        with monkeypatch.context() as patched:
            patched.setattr(policy, "_encode_source", ref_encode_source)
            want = [greedy_decode(model, x) for x in xs]
            want += policy.sample_many(model, xs[0], np.random.default_rng(seed), 4)
        assert got == want
        emitted += sum(map(len, got))
    assert empty >= 20 and width_one == 40 and emitted >= 1000
