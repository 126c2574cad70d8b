"""A small trainable correction policy: recurrent encoder-decoder with exact
log-likelihoods, multinomial sampling, and hand-derived analytic gradients.

The model is deliberately tiny (single-layer tanh RNNs, a bag-of-source-
embeddings context vector added to each decoder input, flat float64
parameter vector) so that every gradient can be validated against central
finite differences and every sampling distribution enumerated exactly.

Likelihoods and gradients are computed by one kernel for a stack of M
models of one architecture, each on its own batch of B rows: their
parameters are the rows of one (M, P) array (``stack_params``), and every
time-major array has a model axis after the step axis, (T, M, B, ...).  One
model is a stack of one: ``logprob_batch``, ``grad_logprob_batch`` and
``mle_step`` pass ``model.params[None]`` and return row 0.  All models'
rows are padded to common widths, sources on the left and targets on the
right; the teacher-forced recurrences run once per time step for the whole
stack, and each per-step product is one broadcast matmul, (M, B, H) @
(M, H, H), that runs one GEMM per model with the shapes of that model's
batch alone.  Padded steps only add exact zeros.  Sums over steps and the
weight-gradient products after the backward recurrence, whose rounding
depends on the number and layout of the terms, take each model's own steps:
the steps its batch alone would have.  So every model gets, bit for bit, the
numbers of its batch alone.  Greedy decoding and sampling reuse the
kernel's helpers on the 1-D rows of one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .textcore import TokenSeq

BOS, EOS, UNK = "<bos>", "<eos>", "<unk>"
RESERVED = (BOS, EOS, UNK)
BOS_ID, EOS_ID, UNK_ID = 0, 1, 2

PROB_FLOOR = 1e-12  # guards log() against underflow; gradients ignore it


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token list; reserved symbols occupy the first three slots."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        for sym, pos in zip(RESERVED, (BOS_ID, EOS_ID, UNK_ID)):
            if self.tokens.count(sym) != 1 or self.tokens[pos] != sym:
                raise ValueError(f"reserved symbol {sym} must appear exactly once at slot {pos}")
        if any(not t or t.split() != [t] for t in self.tokens):
            raise ValueError("tokens must be non-empty and whitespace-free")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def build(cls, content_tokens: Iterable[str]) -> "Vocabulary":
        """Reserved symbols, then each content token once, in first-seen order."""
        seen = dict.fromkeys(content_tokens)
        for t in RESERVED:
            if t in seen:
                raise ValueError(f"{t} is reserved")
        return cls(RESERVED + tuple(seen))

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def encode(self, seq: TokenSeq) -> list[int]:
        return [self.id_of(t) for t in seq]


def save_vocab(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(vocab.tokens) + "\n")


def load_vocab(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        tokens = tuple(line.rstrip("\n") for line in fh if line.strip())
    return Vocabulary(tokens)


class PolicyModel:
    """Parameters plus architecture metadata; reads are thread-safe, updates
    require exclusive access."""

    def __init__(
        self,
        vocab: Vocabulary,
        embed_width: int = 16,
        hidden_width: int = 24,
        max_len: int = 20,
        init_seed: int = 0,
        params: np.ndarray | None = None,
    ) -> None:
        if embed_width < 1 or hidden_width < 1 or max_len < 0:
            raise ValueError("bad architecture sizes")
        self.vocab = vocab
        self.embed_width = embed_width
        self.hidden_width = hidden_width
        self.max_len = max_len
        self.init_seed = init_seed
        self._layout = _layout(len(vocab), embed_width, hidden_width)
        count = self._layout[-1][1].stop
        if params is None:
            params = np.random.default_rng(init_seed).uniform(-0.1, 0.1, count)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (count,):
            raise ValueError(f"expected {count} parameters, got {params.shape}")
        self.params = params
        self._views = _make_views(params, self._layout)

    @staticmethod
    def param_count(v: int, e: int, h: int) -> int:
        _, last, _ = _layout(v, e, h)[-1]
        return last.stop

    def copy(self) -> "PolicyModel":
        return PolicyModel(
            self.vocab, self.embed_width, self.hidden_width,
            self.max_len, self.init_seed, self.params.copy(),
        )

    def zero_grad_like(self) -> np.ndarray:
        return np.zeros_like(self.params)


def _layout(v: int, e: int, h: int) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """Name, position and shape of each weight block in the flat vector."""
    shapes = (
        ("emb", (v, e)), ("enc_in", (h, e)), ("enc_rec", (h, h)), ("enc_b", (h,)),
        ("dec_in", (h, e)), ("dec_rec", (h, h)), ("dec_b", (h,)),
        ("out_w", (v, h)), ("out_b", (v,)),
    )
    blocks = []
    off = 0
    for name, shape in shapes:
        size = math.prod(shape)
        blocks.append((name, slice(off, off + size), shape))
        off += size
    return tuple(blocks)


def _make_views(flat: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Weight blocks of one parameter vector (P,), or of the rows of a stack
    (M, P) with the model axis first.  Each matrix also appears transposed as
    ``<name>_t``; a stacked bias is (M, 1, n), so that it broadcasts over the
    rows of (..., M, B, n)."""
    lead = flat.shape[:-1]
    views = {}
    for name, where, shape in layout:
        block = flat[..., where].reshape(*lead, *shape)
        if len(shape) == 2:
            views[name + "_t"] = block.swapaxes(-1, -2)
        elif lead:
            block = block[..., None, :]
        views[name] = block
    return views


def stack_params(models: Sequence[PolicyModel]) -> np.ndarray:
    """Copy the parameters of models of one architecture into the rows of
    one (M, P) array and point each model at its row, so that an update of
    the array updates every model."""
    stack = np.stack([model.params for model in models])
    for model, row in zip(models, stack):
        model.params = row
        model._views = _make_views(row, model._layout)
    return stack


def _encoder(w: dict[str, np.ndarray], x_emb: np.ndarray, x_mask: np.ndarray) -> np.ndarray:
    """Encoder states (Tx + 1, ..., H) from a zero start, of time-major
    sources: (Tx, M, B, E) for a stack of batches, (Tx, E) for one source;
    ``x_mask`` is 1.0 on real steps and 0.0 on padding."""
    pre = x_emb @ w["enc_in_t"]
    pre += w["enc_b"]
    pre *= x_mask[..., None]
    enc = np.zeros((len(x_emb) + 1, *pre.shape[1:]))
    rec = w["enc_rec_t"]
    for t in range(len(x_emb)):
        z = enc[t] @ rec
        z += pre[t]
        np.tanh(z, out=enc[t + 1])
    return enc


def _context(
    x_emb: np.ndarray, x_mask: np.ndarray, starts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean embedding of the real source steps and the source lengths (at
    least 1), of a stack's time-major sources (Tx, M, B, E).  Model m adds up
    its own steps only, from ``starts[m]`` on: the order of a sum depends on
    the shape of what it adds up."""
    x_count = np.maximum(x_mask.sum(axis=0), 1)[..., None]
    masked = x_emb * x_mask[..., None]
    total = np.stack([masked[start:, m].sum(axis=0) for m, start in enumerate(starts)])
    return total / x_count, x_count


def _encode_source(w: dict[str, np.ndarray], x_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Final encoder state and context (mean embedding, zero for an empty
    source) of one source, as 1-D vectors."""
    x_emb = w["emb"][x_ids]
    context = x_emb.sum(axis=0) / max(len(x_ids), 1)
    return _encoder(w, x_emb, np.ones(len(x_ids)))[-1], context


def _decoder_input(w: dict[str, np.ndarray], prev_emb: np.ndarray, context: np.ndarray):
    """Decoder inputs from the previous tokens' embeddings, and their share
    of the decoder pre-activation."""
    inp = prev_emb + context
    pre = inp @ w["dec_in_t"]
    pre += w["dec_b"]
    return inp, pre


def _output_probs(w: dict[str, np.ndarray], states: np.ndarray) -> np.ndarray:
    """Next-token distribution over the vocabulary from decoder states."""
    logits = states @ w["out_w_t"]
    logits += w["out_b"]
    logits[..., BOS_ID] = -np.inf  # BOS is never emitted
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _decoder_step(w: dict[str, np.ndarray], s: np.ndarray, prev_id: int, context: np.ndarray):
    """Next state and next-token distribution of one row, as 1-D vectors."""
    _, pre = _decoder_input(w, w["emb"][prev_id], context)
    s = np.tanh(pre + s @ w["dec_rec_t"])
    return s, _output_probs(w, s)


def logprob(model: PolicyModel, x: TokenSeq, y: TokenSeq, include_eos: bool = True) -> float:
    """Sum of log P(y_t | y_<t, x), plus the end-of-sentence term by default.

    ``include_eos=False`` scores a sequence that was cut off at the decode
    length limit, where no stop symbol was drawn.
    """
    return float(logprob_batch(model, [x], [y], [include_eos])[0])


def logprob_batch(
    model: PolicyModel,
    xs: Sequence[Sequence],
    ys: Sequence[Sequence],
    include_eos: bool | Sequence[bool] = True,
) -> np.ndarray:
    """``logprob`` of each (source, target) row, from one batched forward."""
    lps, _ = _forward_batch(model, [xs], [ys], [include_eos], model.params[None])
    return lps[0]


def _ids(vocab: Vocabulary, seq: Sequence) -> Sequence[int]:
    """Token ids of ``seq``; a sequence that already holds ids passes through."""
    return vocab.encode(seq) if len(seq) and isinstance(seq[0], str) else seq


def _pad(rows: list[Sequence[int]], left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Time-major (longest, rows) id matrix and its validity mask; padding
    goes before each row when ``left``, after it otherwise."""
    lengths = [len(r) for r in rows]
    width = max(lengths, default=0)
    padded = [
        [BOS_ID] * (width - n) + list(r) if left else list(r) + [BOS_ID] * (width - n)
        for r, n in zip(rows, lengths)
    ]
    ids = np.array(padded, dtype=np.intp).reshape(len(rows), width).T
    steps = np.arange(width)[:, None]
    return ids, (steps >= width - np.array(lengths) if left else steps < np.array(lengths))


@dataclass
class _Tape:
    """Forward values the backward pass reuses, time-major: Tx source and Ty
    target steps of M models' B rows each.  Model m's own steps, the ones
    its batch alone would have, are the source steps from ``x_starts[m]`` on
    and the first ``t_ends[m]`` target steps."""

    w: dict[str, np.ndarray]  # weight views of the stack
    x_ids: np.ndarray  # (Tx, M, B)
    x_mask: np.ndarray  # (Tx, M, B), 1.0 on real steps
    x_emb: np.ndarray  # (Tx, M, B, E)
    x_count: np.ndarray  # (M, B, 1) source length, at least 1
    enc: np.ndarray  # (Tx + 1, M, B, H) encoder states, enc[0] = 0
    prev_ids: np.ndarray  # (Ty, M, B) decoder input ids
    inp: np.ndarray  # (Ty, M, B, E) decoder inputs
    dec: np.ndarray  # (Ty + 1, M, B, H) decoder states, dec[0] = enc[-1]
    targets: np.ndarray  # (Ty, M, B)
    t_mask: np.ndarray  # (Ty, M, B)
    t_valid: tuple[np.ndarray, ...]  # (step, model, row) of each real target
    probs: np.ndarray  # (Ty, M, B, V)
    x_starts: list[int]
    t_ends: list[int]


def _own_rows(a: np.ndarray, m: int, steps: slice) -> np.ndarray:
    """Model m's own ``steps`` of a time-major array as (steps * B, n) rows
    in contiguous memory, the layout its batch alone has: BLAS takes
    another path for a strided vector, which adds in another order."""
    return np.ascontiguousarray(a[steps, m].reshape(-1, a.shape[-1]))


def _forward_batch(model: PolicyModel, xs, ys, include_eos, stack: np.ndarray):
    """Row log-likelihoods (M, B) and the tape of a stack of M models.

    ``stack`` (M, P) holds one model of ``model``'s architecture and
    vocabulary per row (see ``stack_params``; ``model.params[None]`` for
    ``model`` alone); ``xs[m]``, ``ys[m]`` and ``include_eos[m]`` (one flag
    or one per row; or one flag for all models) are model m's batch, and
    every batch has B rows.
    """
    if not len(xs) == len(ys) == len(stack) or any(len(m_ys) != len(ys[0]) for m_ys in ys):
        raise ValueError(f"a stack of {len(stack)} models needs one batch each, all of one size")
    if isinstance(include_eos, bool):
        include_eos = [include_eos] * len(stack)
    vocab = model.vocab
    sources, targets = [], []
    for m_xs, m_ys, m_eos in zip(xs, ys, include_eos, strict=True):
        if len(m_xs) != len(m_ys):
            raise ValueError(f"{len(m_xs)} sources for {len(m_ys)} targets")
        if isinstance(m_eos, bool):
            m_eos = [m_eos] * len(m_ys)
        for y, ended in zip(m_ys, m_eos, strict=True):
            if len(y) > model.max_len:
                raise ValueError(f"target of length {len(y)} exceeds decode limit {model.max_len}")
            y_ids = list(_ids(vocab, y))
            targets.append(y_ids + [EOS_ID] if ended else y_ids)
        sources += [_ids(vocab, x) for x in m_xs]
    n_models, rows = len(ys), len(ys[0])
    # sources are left-padded: a padded step has zero input and keeps the
    # zero initial state, so the encoder loop needs no mask
    x_ids, x_mask = _pad(sources, left=True)
    t_ids, t_mask = _pad(targets, left=False)
    x_mask = x_mask.astype(np.float64)  # as floats, it scales four arrays without a cast
    x_ids, x_mask, t_ids, t_mask = (
        a.reshape(len(a), n_models, rows) for a in (x_ids, x_mask, t_ids, t_mask)
    )
    per_model = [slice(m * rows, (m + 1) * rows) for m in range(n_models)]
    x_starts = [len(x_ids) - max(map(len, sources[s]), default=0) for s in per_model]
    t_ends = [max(map(len, targets[s]), default=0) for s in per_model]
    w = _make_views(stack, model._layout)
    models = np.arange(n_models)[:, None]
    x_emb = w["emb"][models, x_ids]
    enc = _encoder(w, x_emb, x_mask)
    context, x_count = _context(x_emb, x_mask, x_starts)

    # teacher forcing: the recurrence never reads the logits, so they and the
    # softmax are computed for all steps at once after the loop; steps past a
    # row's end are masked out of its likelihood
    prev_ids = np.full_like(t_ids, BOS_ID)
    prev_ids[1:] = t_ids[:-1]
    prev_emb = w["emb"][models, prev_ids]
    inp, dec_pre = _decoder_input(w, prev_emb, context)
    dec = np.empty((len(t_ids) + 1, *t_ids.shape[1:], model.hidden_width))
    dec[0] = enc[-1]
    rec = w["dec_rec_t"]
    for t in range(len(t_ids)):
        z = dec[t] @ rec
        z += dec_pre[t]
        np.tanh(z, out=dec[t + 1])
    probs = _output_probs(w, dec[1:])
    t_valid = np.nonzero(t_mask)
    p_target = probs[(*t_valid, t_ids[t_valid])]
    # per row, the terms are summed in step order; without any terms,
    # np.bincount would count in integers
    row = t_valid[1] * rows + t_valid[2]
    lps = np.bincount(row, np.log(np.maximum(p_target, PROB_FLOOR)), minlength=n_models * rows)
    lps = lps.astype(np.float64, copy=False)
    tape = _Tape(
        w, x_ids, x_mask, x_emb, x_count, enc, prev_ids, inp, dec, t_ids, t_mask, t_valid,
        probs, x_starts, t_ends,
    )
    return lps.reshape(n_models, rows), tape


def _grad_batch(
    model: PolicyModel, xs, ys, include_eos, weights, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row log-likelihoods (M, B) and, per model, the weighted sum of their
    exact gradients (M, P), with the arguments of ``_forward_batch``;
    ``weights`` is None or one per row of each model (M, B).  Each model's
    numbers are bit-identical to those of its batch alone."""
    lps, tape = _forward_batch(model, xs, ys, include_eos, stack)
    w, n_models = tape.w, len(tape.t_ends)
    vocab_size, embed, hidden = len(model.vocab), model.embed_width, model.hidden_width

    d_logits = -tape.probs
    d_logits[(*tape.t_valid, tape.targets[tape.t_valid])] += 1.0
    d_logits *= tape.t_mask[..., None]
    if weights is not None:
        d_logits *= np.asarray(weights, dtype=np.float64)[..., None]

    # decoder: only the d_s recurrence is sequential; steps past a row's end
    # have zero d_logits, so their d_s stays exactly zero
    dec_out = tape.dec[1:]
    dec_tanh = dec_out * dec_out
    np.subtract(1.0, dec_tanh, out=dec_tanh)
    d_z_dec = d_logits @ w["out_w"]  # d_s from the logits, then d_z in place
    d_z_dec *= dec_tanh
    rec = w["dec_rec"]
    for t in range(len(d_z_dec) - 1, 0, -1):
        d_s = d_z_dec[t] @ rec
        d_s *= dec_tanh[t - 1]
        d_z_dec[t - 1] += d_s
    d_inp = d_z_dec @ w["dec_in"]
    d_context = np.stack([d_inp[:end, m].sum(axis=0) for m, end in enumerate(tape.t_ends)])

    # encoder: the decoder start state is the final encoder state; padded
    # steps come first and are masked, so their d_z is zero
    enc_out = tape.enc[1:]
    enc_tanh = enc_out * enc_out
    np.subtract(1.0, enc_tanh, out=enc_tanh)
    enc_tanh *= tape.x_mask[..., None]
    d_z_enc = np.empty_like(enc_out)
    d_h = d_z_dec[0] @ rec if len(d_z_dec) else np.zeros((*lps.shape, hidden))
    rec = w["enc_rec"]
    for t in range(len(enc_out) - 1, -1, -1):
        np.multiply(d_h, enc_tanh[t], out=d_z_enc[t])
        d_h = d_z_enc[t] @ rec
    d_x_emb = d_z_enc @ w["enc_in"]
    d_x_emb += (d_context / tape.x_count) * tape.x_mask[..., None]

    # every model's embedding gradient in one count: per entry, the decoder
    # terms and then the source terms, each in step order, as two in-place
    # adds would take them; padded steps add zeros
    rows_of = np.concatenate([tape.prev_ids, tape.x_ids])
    rows_of += vocab_size * np.arange(n_models)[:, None]
    g_emb = np.bincount(
        (rows_of[..., None] * embed + np.arange(embed)).ravel(),
        np.concatenate([d_inp, d_x_emb]).ravel(),
        minlength=n_models * vocab_size * embed,
    ).reshape(n_models, -1)

    # the weight gradients are products and sums over each model's own steps:
    # a product's rounding depends on its inner dimension, a sum's order on
    # its shape
    grads = np.empty((n_models, len(model.params)))
    for m, (start, end) in enumerate(zip(tape.x_starts, tape.t_ends)):
        src, tgt = slice(start, None), slice(end)
        e_z = _own_rows(d_z_enc, m, src)
        d_z = _own_rows(d_z_dec, m, tgt)
        blocks = {
            "emb": g_emb[m],
            "enc_in": e_z.T @ _own_rows(tape.x_emb, m, src),
            "enc_rec": e_z.T @ _own_rows(tape.enc[:-1], m, src),
            "enc_b": e_z.sum(axis=0),
            "dec_in": d_z.T @ _own_rows(tape.inp, m, tgt),
            "dec_rec": d_z.T @ _own_rows(tape.dec[:-1], m, tgt),
            "dec_b": d_z.sum(axis=0),
            "out_w": _own_rows(d_logits, m, tgt).T @ _own_rows(dec_out, m, tgt),
            "out_b": d_logits[tgt, m].sum(axis=(0, 1)),
        }
        np.concatenate([blocks[name].ravel() for name, _, _ in model._layout], out=grads[m])
    return lps, grads


def grad_logprob_batch(
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
    lps, grads = _grad_batch(
        model, [xs], [ys], [include_eos], None if weights is None else [weights], model.params[None]
    )
    return lps[0], grads[0]


def grad_logprob(
    model: PolicyModel, x: TokenSeq, y: TokenSeq, include_eos: bool = True
) -> tuple[float, np.ndarray]:
    """Log-likelihood and its exact gradient as a flat vector over params."""
    lps, grad = grad_logprob_batch(model, [x], [y], [include_eos])
    return float(lps[0]), grad


def sample(
    model: PolicyModel,
    x: TokenSeq,
    rng: np.random.Generator,
) -> TokenSeq:
    """Draw tokens sequentially from the policy until EOS or the model's
    ``max_len``.

    Deterministic given the generator state; one uniform draw per step via
    inverse CDF over the vocabulary in index order.
    """
    return sample_many(model, x, rng, 1)[0]


def sample_many(
    model: PolicyModel,
    x: TokenSeq,
    rng: np.random.Generator,
    k: int,
) -> list[TokenSeq]:
    """k draws as by ``sample``, one after another from the same generator.

    The source encoding and the first decoder step from BOS are shared by
    all draws and computed once; the generator is consumed in the same
    order as k successive ``sample`` calls, so the draws are identical.
    """
    if model.max_len < 1:
        return [()] * k
    w = model._views
    s_start, context = _encode_source(w, model.vocab.encode(x))
    s_first, probs = _decoder_step(w, s_start, BOS_ID, context)
    cdf_first = np.cumsum(probs)
    draws: list[TokenSeq] = []
    for _ in range(k):
        s, cdf = s_first, cdf_first
        out: list[str] = []
        while True:
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
            idx = min(idx, len(cdf) - 1)
            if idx == EOS_ID:
                break
            out.append(model.vocab.tokens[idx])
            if len(out) == model.max_len:
                break
            s, probs = _decoder_step(w, s, idx, context)
            cdf = np.cumsum(probs)
        draws.append(tuple(out))
    return draws


def greedy_decode(model: PolicyModel, x: TokenSeq) -> TokenSeq:
    """Argmax decode up to the model's ``max_len``; ties go to the lowest
    vocabulary index."""
    w = model._views
    s, context = _encode_source(w, model.vocab.encode(x))
    prev = BOS_ID
    out: list[str] = []
    for _ in range(model.max_len):
        s, probs = _decoder_step(w, s, prev, context)
        prev = int(np.argmax(probs))
        if prev == EOS_ID:
            break
        out.append(model.vocab.tokens[prev])
    return tuple(out)


def mle_step(
    model: PolicyModel,
    batch: Sequence[tuple[TokenSeq, TokenSeq]],
    learning_rate: float,
) -> float:
    """One gradient-ascent step on the summed reference log-likelihood.

    Pairs may hold tokens or token ids (see ``grad_logprob_batch``).
    Returns the pre-step mean negative log-likelihood of the batch.
    """
    return mle_step_stack(model, model.params[None], [batch], learning_rate)[0]


def mle_step_stack(
    model: PolicyModel,
    stack: np.ndarray,
    batches: Sequence[Sequence[tuple[TokenSeq, TokenSeq]]],
    learning_rate: float,
) -> list[float]:
    """``mle_step`` of a stack of M models (see ``stack_params``) of
    ``model``'s architecture and vocabulary, in one forward and backward
    pass: row m of ``stack`` steps on ``batches[m]``, and all batches have
    one size.  Returns each model's pre-step mean NLL, bit-identical to that
    of its own ``mle_step``."""
    if not all(batches):
        raise ValueError("empty batch")
    xs = [[x for x, _ in batch] for batch in batches]
    ys = [[y for _, y in batch] for batch in batches]
    lps, grads = _grad_batch(model, xs, ys, True, None, stack)
    grads *= learning_rate  # in place: a second (M, P) array costs page faults
    stack += grads
    return [-sum(row) / len(batch) for row, batch in zip(lps.tolist(), batches)]


CHECKPOINT_MAGIC = "corrfuse-policy"
CHECKPOINT_VERSION = 1


def save_model(model: PolicyModel, path: str) -> None:
    header = (
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} "
        f"vocab={len(model.vocab)} embed={model.embed_width} "
        f"hidden={model.hidden_width} max_len={model.max_len} seed={model.init_seed}"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(map(repr, model.params.tolist())) + "\n")


def load_model(path: str, vocab: Vocabulary) -> PolicyModel:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        values = [float(line) for line in fh if line.strip()]
    if len(header) < 2 or header[0] != CHECKPOINT_MAGIC or header[1] != f"v{CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} policy checkpoint")
    meta = dict(kv.split("=") for kv in header[2:])
    if int(meta["vocab"]) != len(vocab):
        raise ValueError(
            f"{path}: checkpoint vocab size {meta['vocab']} != vocabulary size {len(vocab)}"
        )
    return PolicyModel(
        vocab,
        embed_width=int(meta["embed"]),
        hidden_width=int(meta["hidden"]),
        max_len=int(meta["max_len"]),
        init_seed=int(meta["seed"]),
        params=np.array(values),
    )
