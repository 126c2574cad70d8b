"""A small trainable correction policy: recurrent encoder-decoder with exact
log-likelihoods, multinomial sampling, and hand-derived analytic gradients.

The model is deliberately tiny (single-layer tanh RNNs, a bag-of-source-
embeddings context vector added to each decoder input, flat float64
parameter vector) so that every gradient can be validated against central
finite differences and every sampling distribution enumerated exactly.

Likelihoods and gradients come from one kernel, ``_grad_batch``, which runs
the teacher-forced forward and backward passes of a stack of M models of
one architecture, each on its own batch of B rows: their parameters are the
rows of one (M, P) array (``stack_params``), and every time-major array has
a model axis after the step axis, (T, M, B, ...).  The kernel writes every
array into the ``StepWorkspace`` of its stack.  One model is a stack of
one: ``grad_logprob_batch`` makes a workspace for ``model.params[None]``
and returns row 0, ``logprob`` is the likelihood that ``grad_logprob``
returns, and ``mle_step`` steps the stack of its workspace in place.  Rows
are (source, target) pairs of tokens.  ``pad_batches`` pads one batch,
sources on the left and targets on the right (``PaddedBatches``); a
training loop pads all its pairs once and ``epoch_batches`` cuts each
epoch's stacks of M minibatches from them in one pass.  The recurrences run
once per time step for the whole stack, and each per-step product is one
broadcast matmul, (M, B, H) @ (M, H, H), that runs one GEMM per model with
the shapes of that model's batch alone.  Padded steps only add exact zeros.
Sums over steps and the weight-gradient products after the backward
recurrence, whose rounding depends on the number and layout of the terms,
take each model's own steps: the steps its batch alone would have, as one
C-contiguous block, and write straight into that model's blocks of the
(M, P) gradients.  So every model gets, bit for bit, the numbers of its
batch alone.  Greedy decoding and sampling are one loop (``_decode``) over
the kernel's helpers on the 1-D rows of one model, with an argmax or an
inverse-CDF pick per token.

A training run makes one workspace and hands it to every ``mle_step``: the
gradients and every temporary of a step live in buffers made once, at the
sizes of the run's widest step, so that no step maps, trims and faults in
its arrays anew (the measurements are in CHANGES.md).

Checkpoints and the vocabulary file are plain text, made and read by pure
functions of strings: ``format_model``/``parse_model`` and
``format_vocab``/``parse_vocab``.  Opening the files is the CLI's job.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .alignment import MAX_TOKENS
from .errors import NumericError
from .textcore import TokenSeq, split_lines

BOS, EOS, UNK = "<bos>", "<eos>", "<unk>"
RESERVED = (BOS, EOS, UNK)
BOS_ID, EOS_ID, UNK_ID = 0, 1, 2

PROB_FLOOR = 1e-12  # guards log() against underflow; gradients ignore it


class Vocabulary:
    """Ordered token list; reserved symbols occupy the first three slots.
    Two vocabularies are equal when their tokens are."""

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens: tuple[str, ...]) -> None:
        for sym, pos in zip(RESERVED, (BOS_ID, EOS_ID, UNK_ID)):
            if tokens.count(sym) != 1 or tokens[pos] != sym:
                raise ValueError(f"reserved symbol {sym} must appear exactly once at slot {pos}")
        if any(not t or t.split() != [t] for t in tokens):
            raise ValueError("tokens must be non-empty and whitespace-free")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

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


def format_vocab(vocab: Vocabulary) -> str:
    """The vocabulary file: one token per line, in id order."""
    return "\n".join(vocab.tokens) + "\n"


def parse_vocab(text: str) -> Vocabulary:
    """The vocabulary of ``format_vocab``'s text; blank lines are skipped."""
    return Vocabulary(tuple(line for line in split_lines(text) if line.strip()))


class PolicyModel:
    """Parameters plus architecture metadata."""

    def __init__(
        self,
        vocab: Vocabulary,
        embed_width: int,
        hidden_width: int,
        max_len: int,
        init_seed: int,
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


def check_finite(model: PolicyModel, what: str) -> None:
    """Raise ``NumericError``, naming ``what``, when a parameter is not finite."""
    if not np.isfinite(model.params).all():
        raise NumericError(f"non-finite parameters after {what}")


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


def _encoder(
    w: dict[str, np.ndarray], x_emb: np.ndarray, x_mask: np.ndarray, enc: np.ndarray | None = None
) -> np.ndarray:
    """Encoder states (Tx + 1, ..., H) from a zero start, of time-major
    sources: (Tx, M, B, E) for a stack of batches, (Tx, E) for one source;
    ``x_mask`` is 1.0 on real steps and 0.0 on padding.  The states go into
    ``enc`` when it is given."""
    if enc is None:
        enc = np.empty((len(x_emb) + 1, *x_emb.shape[1:-1], w["enc_b"].shape[-1]))
    enc[0] = 0.0
    pre = np.matmul(x_emb, w["enc_in_t"], out=enc[1:])  # each state starts as its input share
    pre += w["enc_b"]
    pre *= x_mask[..., None]
    rec = w["enc_rec_t"]
    for t in range(len(x_emb)):
        z = enc[t] @ rec
        z += enc[t + 1]
        np.tanh(z, out=enc[t + 1])
    return enc


def _context(
    x_emb: np.ndarray, x_mask: np.ndarray, starts: list[int], masked: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean embedding of the real source steps and the source lengths (at
    least 1), of a stack's time-major sources (Tx, M, B, E), with the masked
    embeddings written into ``masked``.  Model m adds up its own steps only,
    from ``starts[m]`` on: the order of a sum depends on the shape of what it
    adds up."""
    x_count = np.maximum(x_mask.sum(axis=0), 1)[..., None]
    np.multiply(x_emb, x_mask[..., None], out=masked)
    total = np.empty(x_emb.shape[1:])
    for m, start in enumerate(starts):
        masked[start:, m].sum(axis=0, out=total[m])
    return total / x_count, x_count


def _encode_source(w: dict[str, np.ndarray], x_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Final encoder state and context (mean embedding, zero for an empty
    source) of one source, as 1-D vectors."""
    x_emb = w["emb"][x_ids]
    context = x_emb.sum(axis=0) / max(len(x_ids), 1)
    return _encoder(w, x_emb, np.ones(len(x_ids)))[-1], context


def _decoder_input(
    w: dict[str, np.ndarray], prev_emb: np.ndarray, context: np.ndarray, inp=None, pre=None
):
    """Decoder inputs from the previous tokens' embeddings, and their share
    of the decoder pre-activation; into ``inp`` and ``pre`` when given."""
    inp = np.add(prev_emb, context, out=inp)
    pre = np.matmul(inp, w["dec_in_t"], out=pre)
    pre += w["dec_b"]
    return inp, pre


def _output_probs(w: dict[str, np.ndarray], logits: np.ndarray) -> np.ndarray:
    """Next-token distribution over the vocabulary, in place of ``logits``:
    the decoder states times ``w["out_w_t"]``."""
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
    return s, _output_probs(w, s @ w["out_w_t"])


def logprob(model: PolicyModel, x: TokenSeq, y: TokenSeq, include_eos: bool = True) -> float:
    """Sum of log P(y_t | y_<t, x), plus the end-of-sentence term by default.

    ``include_eos=False`` scores a sequence that was cut off at the decode
    length limit, where no stop symbol was drawn.
    """
    return grad_logprob(model, x, y, include_eos)[0]


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


class PaddedBatches:
    """M batches of B (source, target) rows each, as time-major token ids
    padded with BOS to common widths: sources on the left, targets (with
    their end symbols) on the right.  Model m's own steps, the ones its
    batch alone would have, are the source steps from ``x_starts[m]`` on
    and the first ``t_ends[m]`` target steps."""

    __slots__ = ("x_ids", "x_mask", "prev_ids", "t_ids", "t_mask", "x_starts", "t_ends")

    def __init__(self, x_ids, x_mask, prev_ids, t_ids, t_mask, x_starts, t_ends) -> None:
        self.x_ids: np.ndarray = x_ids  # (Tx, M, B)
        self.x_mask: np.ndarray = x_mask  # (Tx, M, B), 1.0 on real steps
        self.prev_ids: np.ndarray = prev_ids  # (Ty, M, B) decoder input ids: BOS, then the targets
        self.t_ids: np.ndarray = t_ids  # (Ty, M, B) targets
        self.t_mask: np.ndarray = t_mask  # (Ty, M, B), True on real steps
        self.x_starts: list[int] = x_starts
        self.t_ends: list[int] = t_ends


def pad_batches(model: PolicyModel, xs, ys, include_eos) -> PaddedBatches:
    """The ``PaddedBatches`` of one batch (M = 1) for ``model``: rows are
    (source, target) pairs of tokens, and ``include_eos`` is one flag or
    one per row.  No target may be longer than ``model.max_len``.  A stack
    of M batches is cut from one padded batch by ``epoch_batches``."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} sources for {len(ys)} targets")
    if isinstance(include_eos, bool):
        include_eos = [include_eos] * len(ys)
    encode = model.vocab.encode
    targets = []
    for y, ended in zip(ys, include_eos, strict=True):
        if len(y) > model.max_len:
            raise ValueError(f"target of length {len(y)} exceeds decode limit {model.max_len}")
        y_ids = encode(y)
        targets.append(y_ids + [EOS_ID] if ended else y_ids)
    # sources are left-padded: a padded step has zero input and keeps the
    # zero initial state, so the encoder loop needs no mask
    x_ids, x_mask = _pad([encode(x) for x in xs], left=True)
    t_ids, t_mask = _pad(targets, left=False)
    x_mask = x_mask.astype(np.float64)  # as floats, it scales four arrays without a cast
    x_ids, x_mask, t_ids, t_mask = (
        a.reshape(len(a), 1, len(ys)) for a in (x_ids, x_mask, t_ids, t_mask)
    )
    prev_ids = np.full_like(t_ids, BOS_ID)
    prev_ids[1:] = t_ids[:-1]
    return PaddedBatches(x_ids, x_mask, prev_ids, t_ids, t_mask, [0], [len(t_ids)])


def epoch_batches(
    pairs: PaddedBatches, orders: np.ndarray, batch_size: int
) -> Iterator[PaddedBatches]:
    """The minibatches of one lockstep epoch, padded in one pass.

    ``pairs`` holds every training pair as one batch (``pad_batches``),
    and row m of ``orders`` (M, N) is model m's order of them: step s gives
    model m the pairs ``orders[m, s * batch_size : (s + 1) * batch_size]``,
    the last step fewer when ``batch_size`` does not divide N.  Each step's
    arrays are views of the epoch's, cut to the widths of that step's rows:
    on model m's own steps they hold what ``pad_batches`` gives m's rows
    alone, and every other entry is padding (BOS, mask 0)."""
    x_ids, x_mask, prev_ids, t_ids, t_mask = (
        a[:, 0, orders]
        for a in (pairs.x_ids, pairs.x_mask, pairs.prev_ids, pairs.t_ids, pairs.t_mask)
    )
    starts = np.arange(0, orders.shape[1], batch_size)
    # each model's longest source and target at each step, (steps, M)
    x_longest = np.maximum.reduceat(np.count_nonzero(x_mask, axis=0), starts, axis=1).T
    t_longest = np.maximum.reduceat(np.count_nonzero(t_mask, axis=0), starts, axis=1).T
    for start, x_lens, t_lens in zip(starts.tolist(), x_longest.tolist(), t_longest.tolist()):
        rows = slice(start, start + batch_size)
        x_steps, t_steps = max(x_lens), max(t_lens)
        src = slice(len(x_ids) - x_steps, None)
        yield PaddedBatches(
            x_ids[src, :, rows], x_mask[src, :, rows], prev_ids[:t_steps, :, rows],
            t_ids[:t_steps, :, rows], t_mask[:t_steps, :, rows],
            [x_steps - n for n in x_lens], t_lens,
        )


class StepWorkspace:
    """The arrays that the lockstep steps of one stack of models write into,
    made once for a run: the weight blocks of the stack (M, P) and of its
    gradients (``grads``), and a flat buffer for each temporary of
    ``_grad_batch``, as long as the widest step needs.

    ``padded`` holds the pairs that the steps are cut from (``pad_batches``)
    and ``rows`` is the most rows a step gives each model.  A step sees each
    buffer as a prefix reshaped to its sizes (``arrays``).  The passes run
    on time-major (steps, M, B, n) arrays.  The weight-gradient products
    read each model's own steps as one block of model-major memory, (M,
    steps, B, n): the embeddings and the decoder inputs are written so, and
    the other operands are copied so after the passes.  For one model the
    two layouts are the same, and nothing is copied.  The module docstring
    says why the buffers outlive the step.
    """

    # each buffer's steps (per source step, per target step, more) and width
    _SIZES = {
        "emb_in": (1, 1, 0, "e"), "emb_index": (1, 1, 0, "e"), "d_emb": (1, 1, 0, "e"),
        "enc": (1, 0, 1, "h"), "masked": (1, 0, 0, "e"), "enc_tanh": (1, 0, 0, "h"),
        "d_z_enc": (1, 0, 0, "h"), "inp": (0, 1, 0, "e"), "dec": (0, 1, 1, "h"),
        "probs": (0, 1, 0, "v"), "dec_tanh": (0, 1, 0, "h"), "d_z_dec": (0, 1, 0, "h"),
    }
    _MODEL_MAJOR = ("emb_in", "inp")
    _COPIED = ("enc", "dec", "probs", "d_z_enc", "d_z_dec")  # into <name>_by_model

    def __init__(
        self, model: PolicyModel, stack: np.ndarray, padded: PaddedBatches, rows: int
    ) -> None:
        self.vocab_size, self.embed = len(model.vocab), model.embed_width
        self.hidden = model.hidden_width
        self.stack, self.grads = stack, np.empty_like(stack)
        self.w, self.g = _make_views(stack, model._layout), _make_views(self.grads, model._layout)
        # the stack's embedding tables, contiguous, for one np.take of every lookup
        self.emb = np.empty((len(stack) * self.vocab_size, self.embed))
        self.emb_tables = self.emb.reshape(len(stack), self.vocab_size, self.embed)
        size = len(stack) * min(rows, padded.t_ids.shape[-1])
        sizes = self._sizes(len(padded.x_ids), len(padded.t_ids))
        self._flat = {
            name: np.empty(steps * size * width, np.intp if name == "emb_index" else np.float64)
            for name, (steps, width) in sizes.items()
        }
        self._arrays: dict[tuple[int, int, int], tuple[dict[str, np.ndarray], list]] = {}

    def _sizes(self, tx: int, ty: int) -> dict[str, tuple[int, int]]:
        """Steps and width of each buffer, for sources of ``tx`` steps and
        targets of ``ty`` steps."""
        widths = {"e": self.embed, "h": self.hidden, "v": self.vocab_size}
        sizes = {
            name: (per_x * tx + per_y * ty + more, widths[width])
            for name, (per_x, per_y, more, width) in self._SIZES.items()
        }
        if len(self.stack) > 1:
            sizes.update((name + "_by_model", sizes[name]) for name in self._COPIED)
        return sizes

    def arrays(self, tx: int, ty: int, rows: int) -> tuple[dict[str, np.ndarray], list]:
        """The arrays of a step with sources of ``tx`` steps, targets of
        ``ty`` steps and ``rows`` rows per model, made at the first step of
        those sizes, and the (model-major destination, source) pairs that
        the step copies.  Each buffer is a reshaped prefix: a time-major
        array, or the time-major view of a model-major one, whose (M, steps
        * rows, n) rows are ``<name>_rows``."""
        key = (tx, ty, rows)
        if key not in self._arrays:
            n_models, arrays = len(self.stack), {}
            for name, (steps, width) in self._sizes(tx, ty).items():
                flat = self._flat[name][: steps * n_models * rows * width]
                by_model = name in self._MODEL_MAJOR or name.endswith("_by_model")
                if by_model and n_models > 1:
                    arrays[name] = flat.reshape(n_models, steps, rows, width).swapaxes(0, 1)
                else:  # for one model, time-major is model-major
                    arrays[name] = flat.reshape(steps, n_models, rows, width)
                if by_model or (n_models == 1 and name in self._COPIED):
                    rows_of = flat.reshape(n_models, steps * rows, width)
                    arrays[name.removesuffix("_by_model") + "_rows"] = rows_of
            copied = self._COPIED if n_models > 1 else ()
            copies = [(arrays.pop(name + "_by_model"), arrays[name]) for name in copied]
            self._arrays[key] = arrays, copies
        return self._arrays[key]


def _grad_batch(
    ws: StepWorkspace, batches: PaddedBatches, weights
) -> tuple[np.ndarray, np.ndarray]:
    """Row log-likelihoods (M, B) and, per model, the weighted sum of their
    exact gradients (M, P) of the stack of M models of ``ws``.

    ``batches[m]`` is model m's batch, and ``weights`` is None or one per
    row of each model (M, B).  The gradients are written into ``ws.grads``,
    which the call overwrites and returns.  Each model's numbers are
    bit-identical to those of its batch alone.
    """
    x_ids, x_mask, t_ids, t_mask = batches.x_ids, batches.x_mask, batches.t_ids, batches.t_mask
    n_models, rows = x_ids.shape[1:]
    if n_models != len(ws.stack):
        raise ValueError(f"a stack of {len(ws.stack)} models needs one batch each, all of one size")
    tx, ty = len(x_ids), len(t_ids)
    vocab_size, embed, hidden = ws.vocab_size, ws.embed, ws.hidden
    w, g = ws.w, ws.g
    arrays, copies = ws.arrays(tx, ty, rows)

    # every embedding lookup in one take, as rows of the stack's tables: the
    # decoder inputs (BOS, then the targets), then the sources; the ids are
    # in range, and with mode="clip" np.take writes straight into ``out``
    ids = np.concatenate([batches.prev_ids, x_ids])
    ids += vocab_size * np.arange(n_models)[:, None]
    np.copyto(ws.emb_tables, w["emb"])
    emb_in = arrays["emb_in"]
    np.take(ws.emb, ids.swapaxes(0, 1), axis=0, out=emb_in.swapaxes(0, 1), mode="clip")
    x_emb = emb_in[ty:]  # (Tx, M, B, E)
    enc = _encoder(w, x_emb, x_mask, arrays["enc"])  # (Tx + 1, M, B, H), enc[0] = 0
    masked = arrays["masked"]
    context, x_count = _context(x_emb, x_mask, batches.x_starts, masked)

    # teacher forcing: the recurrence never reads the logits, so they and the
    # softmax are computed for all steps at once after the loop; steps past a
    # row's end are masked out of its likelihood
    dec = arrays["dec"]
    # each state starts as its input share
    inp, _ = _decoder_input(w, emb_in[:ty], context, arrays["inp"], dec[1:])
    dec[0] = enc[-1]
    rec = w["dec_rec_t"]
    for t in range(ty):
        z = dec[t] @ rec
        z += dec[t + 1]
        np.tanh(z, out=dec[t + 1])
    probs = _output_probs(w, np.matmul(dec[1:], w["out_w_t"], out=arrays["probs"]))  # (Ty, M, B, V)
    t_valid = np.nonzero(t_mask)  # (step, model, row) of each real target
    target = (*t_valid, t_ids[t_valid])
    # per row, the terms are summed in step order; without any terms,
    # np.bincount would count in integers
    row = t_valid[1] * rows + t_valid[2]
    lps = np.bincount(row, np.log(np.maximum(probs[target], PROB_FLOOR)), minlength=n_models * rows)
    lps = lps.astype(np.float64, copy=False).reshape(n_models, rows)

    d_logits = np.negative(probs, out=probs)
    d_logits[target] += 1.0
    d_logits *= t_mask[..., None]
    if weights is not None:
        d_logits *= np.asarray(weights, dtype=np.float64)[..., None]

    # decoder: only the d_s recurrence is sequential; steps past a row's end
    # have zero d_logits, so their d_s stays exactly zero
    dec_out = dec[1:]
    dec_tanh = np.multiply(dec_out, dec_out, out=arrays["dec_tanh"])
    np.subtract(1.0, dec_tanh, out=dec_tanh)
    # d_s from the logits, then d_z in place
    d_z_dec = np.matmul(d_logits, w["out_w"], out=arrays["d_z_dec"])
    d_z_dec *= dec_tanh
    rec = w["dec_rec"]
    for t in range(ty - 1, 0, -1):
        d_s = d_z_dec[t] @ rec
        d_s *= dec_tanh[t - 1]
        d_z_dec[t - 1] += d_s
    d_emb = arrays["d_emb"]  # as emb_in: decoder inputs, then sources
    d_inp = np.matmul(d_z_dec, w["dec_in"], out=d_emb[:ty])
    d_context = np.empty(context.shape)
    for m, end in enumerate(batches.t_ends):
        d_inp[:end, m].sum(axis=0, out=d_context[m])

    # encoder: the decoder start state is the final encoder state; padded
    # steps come first and are masked, so their d_z is zero
    enc_out = enc[1:]
    enc_tanh = np.multiply(enc_out, enc_out, out=arrays["enc_tanh"])
    np.subtract(1.0, enc_tanh, out=enc_tanh)
    enc_tanh *= x_mask[..., None]
    d_z_enc = arrays["d_z_enc"]
    d_h = d_z_dec[0] @ rec if ty else np.zeros((*lps.shape, hidden))
    rec = w["enc_rec"]
    for t in range(tx - 1, -1, -1):
        np.multiply(d_h, enc_tanh[t], out=d_z_enc[t])
        d_h = d_z_enc[t] @ rec
    d_x_emb = np.matmul(d_z_enc, w["enc_in"], out=d_emb[ty:])
    share = masked  # the context's share of each source embedding's gradient
    share[...] = d_context / x_count
    share *= x_mask[..., None]
    d_x_emb += share

    # every model's embedding gradient in one count: per entry, the decoder
    # terms and then the source terms, each in step order, as two in-place
    # adds would take them; padded steps add zeros
    emb_index = np.multiply(ids[..., None], embed, out=arrays["emb_index"])
    emb_index += np.arange(embed)
    g["emb"][...] = np.bincount(
        emb_index.ravel(), d_emb.ravel(), minlength=n_models * vocab_size * embed
    ).reshape(n_models, vocab_size, embed)

    # the weight gradients are products and sums over each model's own steps,
    # the rows its batch alone would have, in C-contiguous memory: a
    # product's rounding depends on its inner dimension and BLAS takes
    # another path for a strided vector, and a sum's order depends on its
    # shape.  Each goes straight into its block of the model's row.
    for destination, source in copies:
        np.copyto(destination, source)
    x_emb_rows = arrays["emb_in_rows"][:, ty * rows :]
    enc_rows, dec_rows, d_logit_rows = arrays["enc_rows"], arrays["dec_rows"], arrays["probs_rows"]
    for m, (start, end) in enumerate(zip(batches.x_starts, batches.t_ends)):
        src, tgt = slice(start * rows, None), slice(end * rows)
        e_z, d_z = arrays["d_z_enc_rows"][m, src], arrays["d_z_dec_rows"][m, tgt]
        np.matmul(e_z.T, x_emb_rows[m, src], out=g["enc_in"][m])
        np.matmul(e_z.T, enc_rows[m, start * rows : tx * rows], out=g["enc_rec"][m])
        e_z.sum(axis=0, out=g["enc_b"][m, 0])
        np.matmul(d_z.T, arrays["inp_rows"][m, tgt], out=g["dec_in"][m])
        np.matmul(d_z.T, dec_rows[m, tgt], out=g["dec_rec"][m])
        d_z.sum(axis=0, out=g["dec_b"][m, 0])
        np.matmul(d_logit_rows[m, tgt].T, dec_rows[m, rows : (end + 1) * rows], out=g["out_w"][m])
        d_logits[:end, m].sum(axis=(0, 1), out=g["out_b"][m, 0])
    return lps, ws.grads


def grad_logprob_batch(
    model: PolicyModel,
    xs: Sequence[Sequence],
    ys: Sequence[Sequence],
    include_eos: bool | Sequence[bool] = True,
    weights: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's log-likelihood, and the weighted sum of their exact
    gradients as a flat vector over params (unit weights by default).

    Rows are (source, target) pairs of tokens; ``include_eos`` is one flag
    or one per row.
    """
    padded = pad_batches(model, xs, ys, include_eos)
    ws = StepWorkspace(model, model.params[None], padded, len(ys))
    lps, grads = _grad_batch(ws, padded, None if weights is None else [weights])
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
    With ``max_len`` 0 every draw is empty and the generator is not read.
    """

    def pick(probs: np.ndarray) -> int:
        idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        return min(idx, len(probs) - 1)

    first = _first_step(model, x)
    return [_decode(model, first, pick) for _ in range(k)]


def greedy_decode(model: PolicyModel, x: TokenSeq) -> TokenSeq:
    """Argmax decode up to the model's ``max_len``; ties go to the lowest
    vocabulary index."""
    return _decode(model, _first_step(model, x), lambda probs: int(np.argmax(probs)))


def _first_step(model: PolicyModel, x: TokenSeq):
    """The decoder state after BOS, its next-token distribution and the
    context of source ``x``: where every decode of ``x`` starts."""
    w = model._views
    s, context = _encode_source(w, model.vocab.encode(x))
    return (*_decoder_step(w, s, BOS_ID, context), context)


def _decode(model: PolicyModel, state, pick) -> TokenSeq:
    """Tokens chosen one at a time by ``pick`` from each next-token
    distribution, from ``state`` (``_first_step``) until EOS or the model's
    ``max_len``; the decoder steps only when another token is to be picked."""
    w = model._views
    s, probs, context = state
    out: list[str] = []
    for step in range(model.max_len):
        if step:
            s, probs = _decoder_step(w, s, idx, context)
        idx = pick(probs)
        if idx == EOS_ID:
            break
        out.append(model.vocab.tokens[idx])
    return tuple(out)


def mle_step(ws: StepWorkspace, batches: PaddedBatches, learning_rate: float) -> list[float]:
    """One gradient-ascent step on the summed reference log-likelihood for
    each model of the stack of ``ws`` (see ``stack_params``), in one forward
    and backward pass: row m of ``ws.stack`` steps on ``batches[m]``, and
    all batches have one size and end symbols (``epoch_batches``;
    ``pad_batches`` for one model).  Returns each model's pre-step mean
    negative log-likelihood, bit-identical to that of a step of its row
    alone.

    A training loop makes one workspace for the whole run and passes it to
    every step, for the reason the module docstring gives."""
    lps, grads = _grad_batch(ws, batches, None)
    grads *= learning_rate
    ws.stack += grads
    return [-sum(row) / len(row) for row in lps.tolist()]


CHECKPOINT_MAGIC = "corrfuse-policy"
CHECKPOINT_VERSION = 1
_HEADER_FIELDS = ("vocab", "embed", "hidden", "max_len", "seed")


def format_model(model: PolicyModel) -> str:
    """The checkpoint: a header line with the architecture, then one
    parameter per line as its ``repr``, which reads back bit for bit."""
    header = (
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} "
        f"vocab={len(model.vocab)} embed={model.embed_width} "
        f"hidden={model.hidden_width} max_len={model.max_len} seed={model.init_seed}"
    )
    return header + "\n" + "\n".join(map(repr, model.params.tolist())) + "\n"


def parse_model(text: str, vocab: Vocabulary) -> PolicyModel:
    """The model of ``format_model``'s text over ``vocab``.  The header must
    give each of its fields once, the vocabulary's size and a ``max_len`` of
    at most ``alignment.MAX_TOKENS``, and every parameter must be finite."""
    lines = split_lines(text)
    header = lines[0].split() if lines else []
    if header[:2] != [CHECKPOINT_MAGIC, f"v{CHECKPOINT_VERSION}"]:
        raise ValueError(f"not a version-{CHECKPOINT_VERSION} policy checkpoint")
    fields = [kv.partition("=") for kv in header[2:]]
    if sorted(key for key, _, _ in fields) != sorted(_HEADER_FIELDS):
        raise ValueError(f"checkpoint header must give each of {list(_HEADER_FIELDS)} once")
    meta = {key: int(value) for key, _, value in fields}
    if meta["vocab"] != len(vocab):
        raise ValueError(f"checkpoint vocab size {meta['vocab']} != vocabulary size {len(vocab)}")
    if meta["max_len"] > MAX_TOKENS:
        raise ValueError(f"checkpoint max_len {meta['max_len']} > alignment limit {MAX_TOKENS}")
    params = np.array([line for line in lines[1:] if line.strip()], dtype=float)
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameters in checkpoint")
    return PolicyModel(
        vocab,
        embed_width=meta["embed"],
        hidden_width=meta["hidden"],
        max_len=meta["max_len"],
        init_seed=meta["seed"],
        params=params,
    )
