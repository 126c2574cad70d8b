"""A small trainable correction policy: recurrent encoder-decoder with exact
log-likelihoods, multinomial sampling, and hand-derived analytic gradients.

The model is deliberately tiny (single-layer tanh RNNs, a bag-of-source-
embeddings context vector added to each decoder input, flat float64
parameter vector) so that every gradient can be validated against central
finite differences and every sampling distribution enumerated exactly.

Likelihoods and gradients are computed per batch: sources and targets are
padded with masks, the teacher-forced recurrences run once per time step
for the whole batch, and every weight gradient is one stacked product after
the backward recurrence.  Single-sentence ``logprob`` and ``grad_logprob``
are batches of one; greedy decoding and sampling reuse its helpers on 1-D rows.
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
    return {name: flat[where].reshape(shape) for name, where, shape in layout}


def _encoder(w: dict[str, np.ndarray], x_emb: np.ndarray, x_mask: np.ndarray):
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


def _decoder_input(w: dict[str, np.ndarray], prev_ids, context: np.ndarray):
    """Decoder inputs and their share of the decoder pre-activation."""
    inp = w["emb"][prev_ids] + context
    return inp, inp @ w["dec_in"].T + w["dec_b"]


def _output_probs(w: dict[str, np.ndarray], states: np.ndarray) -> np.ndarray:
    """Next-token distribution over the vocabulary from decoder states."""
    logits = states @ w["out_w"].T + w["out_b"]
    logits[..., BOS_ID] = -np.inf  # BOS is never emitted
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _decoder_step(w: dict[str, np.ndarray], s: np.ndarray, prev_id: int, context: np.ndarray):
    """Next state and next-token distribution of one row, as 1-D vectors."""
    _, pre = _decoder_input(w, prev_id, context)
    s = np.tanh(pre + s @ w["dec_rec"].T)
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
    lps, _ = _forward_batch(model, xs, ys, include_eos)
    return lps


def _ids(vocab: Vocabulary, seq: Sequence) -> Sequence[int]:
    """Token ids of ``seq``; a sequence that already holds ids passes through."""
    return vocab.encode(seq) if len(seq) and isinstance(seq[0], str) else seq


def _pad(rows: list[Sequence[int]], left: bool) -> tuple[np.ndarray, np.ndarray]:
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
class _Tape:
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


def _forward_batch(model: PolicyModel, xs, ys, include_eos) -> tuple[np.ndarray, _Tape]:
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
    x_ids, x_mask = _pad([_ids(vocab, x) for x in xs], left=True)
    t_ids, t_mask = _pad(targets, left=False)
    w = model._views
    rows = len(ys)

    x_emb = w["emb"][x_ids]
    enc, context, x_count = _encoder(w, x_emb, x_mask)

    # teacher forcing: the recurrence never reads the logits, so they and the
    # softmax are computed for all steps at once after the loop; steps past a
    # row's end are masked out of its likelihood
    prev_ids = np.full_like(t_ids, BOS_ID)
    prev_ids[1:] = t_ids[:-1]
    inp, dec_pre = _decoder_input(w, prev_ids, context)
    dec = np.empty((len(t_ids) + 1, rows, model.hidden_width))
    dec[0] = enc[-1]
    rec = w["dec_rec"].T
    for t in range(len(t_ids)):
        np.tanh(dec_pre[t] + dec[t] @ rec, out=dec[t + 1])
    probs = _output_probs(w, dec[1:])
    steps, which = t_valid = np.nonzero(t_mask)
    p_target = probs[steps, which, t_ids[steps, which]]
    # per row, the terms are summed in step order
    lps = np.bincount(which, np.log(np.maximum(p_target, PROB_FLOOR)), minlength=rows)
    tape = _Tape(
        x_ids, x_mask, x_emb, x_count, enc, prev_ids, inp, dec, t_ids, t_mask, t_valid, probs
    )
    return lps, tape


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
    lps, tape = _forward_batch(model, xs, ys, include_eos)
    w = model._views
    grad = model.zero_grad_like()
    g = _make_views(grad, model._layout)
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
    max_len: int | None = None,
) -> TokenSeq:
    """Draw tokens sequentially from the policy until EOS or the length cap.

    Deterministic given the generator state; one uniform draw per step via
    inverse CDF over the vocabulary in index order.
    """
    return sample_many(model, x, rng, 1, max_len)[0]


def sample_many(
    model: PolicyModel,
    x: TokenSeq,
    rng: np.random.Generator,
    k: int,
    max_len: int | None = None,
) -> list[TokenSeq]:
    """k draws as by ``sample``, one after another from the same generator.

    The source encoding and the first decoder step from BOS are shared by
    all draws and computed once; the generator is consumed in the same
    order as k successive ``sample`` calls, so the draws are identical.
    """
    limit = model.max_len if max_len is None else min(max_len, model.max_len)
    if limit < 1:
        return [()] * k
    w, x_ids = model._views, model.vocab.encode(x)
    enc, context, _ = _encoder(w, w["emb"][x_ids], np.ones(len(x_ids), bool))
    s_first, probs = _decoder_step(w, enc[-1], BOS_ID, context)
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
            if len(out) == limit:
                break
            s, probs = _decoder_step(w, s, idx, context)
            cdf = np.cumsum(probs)
        draws.append(tuple(out))
    return draws


def greedy_decode(model: PolicyModel, x: TokenSeq, max_len: int | None = None) -> TokenSeq:
    """Argmax decode; ties go to the lowest vocabulary index."""
    limit = model.max_len if max_len is None else min(max_len, model.max_len)
    w, x_ids = model._views, model.vocab.encode(x)
    enc, context, _ = _encoder(w, w["emb"][x_ids], np.ones(len(x_ids), bool))
    s, prev = enc[-1], BOS_ID
    out: list[str] = []
    for _ in range(limit):
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
    if not batch:
        raise ValueError("empty batch")
    lps, total = grad_logprob_batch(model, [x for x, _ in batch], [y for _, y in batch])
    model.params += learning_rate * total
    return -sum(lps.tolist()) / len(batch)


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
