"""Lattice-style hypothesis combination.

Hypotheses are pairwise aligned; emitting a word consumes it together with
its directly aligned counterparts in the other systems.  Partial outputs are
scored by a linear model over per-system match counts, output length, and an
n-gram language model, and searched breadth-synchronously with beam pruning
and recombination.  This lattice search is the only combiner.

The search is the hot loop of tuning and decoding, so it is one flat loop
over plain tuples ``(used, out, lm_ctx, feats, score)``:

- Each search space packs the per-system used masks into one int, system s
  in a field of ``max(len(h)) + 1`` bits, and precomputes every word's token,
  packed mask update and match-feature increments.  A successor's mask is
  one ``|``, a system's frontier is the lowest unset bit of its field, and
  states recombine on ``(used, lm_ctx)``.
- The LM memoizes transitions: ``(context, token)`` maps to the log
  probability and the next context, so scoring a word is one dict lookup.
- ``_successors`` is the successor rule, once per state; ``beam_search``
  recombines its output inline and ``extensions`` shows it as
  ``SearchState`` tuples with per-system masks.

Scores are still the full dot product of weights and features, summed left
to right, for every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import NamedTuple, Sequence

import numpy as np

from .alignment import Alignment, align_all
from .textcore import TokenSeq

LM_BOS, LM_EOS, LM_UNK = "<s>", "</s>", "<unk>"
BACKOFF = 0.4
UNIGRAM_SMOOTHING = 0.1


class NGramLM:
    """Count-based LM: stupid backoff renormalized to a proper distribution,
    with add-0.1 smoothing at the unigram level."""

    def __init__(self, corpus: Sequence[TokenSeq], order: int = 3) -> None:
        if order < 1:
            raise ValueError("LM order must be >= 1")
        if not corpus:
            raise ValueError("empty LM training corpus")
        self.order = order
        # continuations[ctx] lists (token, count); ctx_total[ctx] is the
        # prefix count, so seen continuation mass always sums to exactly 1
        self._continuations: dict[tuple[str, ...], dict[str, int]] = {}
        self._ctx_total: dict[tuple[str, ...], int] = {}
        self._unigram: dict[str, int] = {}
        self._total = 0
        for sent in corpus:
            padded = (LM_BOS,) * (order - 1) + tuple(sent) + (LM_EOS,)
            for pos in range(order - 1, len(padded)):
                w = padded[pos]
                self._unigram[w] = self._unigram.get(w, 0) + 1
                self._total += 1
                for n in range(2, order + 1):
                    ctx = padded[pos - n + 1 : pos]
                    slot = self._continuations.setdefault(ctx, {})
                    slot[w] = slot.get(w, 0) + 1
                    self._ctx_total[ctx] = self._ctx_total.get(ctx, 0) + 1
        self._types = set(self._unigram) | {LM_UNK}
        self._vocab_size = len(self._types)
        self._z_cache: dict[tuple[str, ...], float] = {}
        # (log P(token | context), next context) by (context, token): the
        # lattice search asks for the same pairs again in every state, level
        # and tuning round
        self._transitions: dict[
            tuple[tuple[str, ...], str], tuple[float, tuple[str, ...]]
        ] = {}

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._types)

    def start_context(self) -> tuple[str, ...]:
        return (LM_BOS,) * (self.order - 1)

    def _p_unigram(self, w: str) -> float:
        count = self._unigram.get(w, 0)
        return (count + UNIGRAM_SMOOTHING) / (self._total + UNIGRAM_SMOOTHING * self._vocab_size)

    def _p(self, w: str, ctx: tuple[str, ...]) -> float:
        if not ctx:
            return self._p_unigram(w)
        total = self._ctx_total.get(ctx)
        if total is None:
            return self._p(w, ctx[1:])
        count = self._continuations[ctx].get(w, 0)
        score = count / total if count else BACKOFF * self._p(w, ctx[1:])
        return score / self._z(ctx)

    def _z(self, ctx: tuple[str, ...]) -> float:
        z = self._z_cache.get(ctx)
        if z is None:
            seen_backoff_mass = sum(self._p(w, ctx[1:]) for w in self._continuations[ctx])
            z = 1.0 + BACKOFF * (1.0 - seen_backoff_mass)
            self._z_cache[ctx] = z
        return z

    def prob(self, token: str, context: tuple[str, ...]) -> float:
        """P(token | context); unknown tokens share the <unk> bucket."""
        w = token if token in self._types else LM_UNK
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._p(w, ctx)

    def logprob(self, token: str, context: tuple[str, ...]) -> float:
        return self.transition(context, token)[0]

    def transition(
        self, context: tuple[str, ...], token: str
    ) -> tuple[float, tuple[str, ...]]:
        """(log P(token | context), the context after ``token``), memoized."""
        key = (context, token)
        step = self._transitions.get(key)
        if step is None:
            after = (context + (token,))[1:] if self.order > 1 else ()
            step = self._transitions[key] = (math.log(self.prob(token, context)), after)
        return step


def train_lm(corpus: Sequence[TokenSeq], order: int = 3) -> NGramLM:
    return NGramLM(corpus, order)


@dataclass(frozen=True)
class FeatureSchema:
    """Named dimensions of the linear combination model."""

    n_systems: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"match_{s}" for s in range(self.n_systems)) + ("length", "lm")

    @property
    def dim(self) -> int:
        return self.n_systems + 2

    def default_weights(self) -> np.ndarray:
        w = np.full(self.dim, 1.0)
        w[-2] = 0.5  # length
        w[-1] = 0.5  # lm
        return w


def save_weights(schema: FeatureSchema, weights: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in zip(schema.names, weights):
            fh.write(f"{name}\t{repr(float(value))}\n")


def load_weights(path: str, schema: FeatureSchema) -> np.ndarray:
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            name, _, raw = line.rstrip("\n").partition("\t")
            values[name] = float(raw)
    if set(values) != set(schema.names):
        raise ValueError(
            f"{path}: weight names {sorted(values)} do not match schema {list(schema.names)}"
        )
    weights = np.array([values[name] for name in schema.names])
    if not np.isfinite(weights).all():
        bad = [name for name, w in zip(schema.names, weights) if not np.isfinite(w)]
        raise ValueError(f"{path}: non-finite weights {bad}")
    return weights


@dataclass(frozen=True)
class SearchSpace:
    hyps: tuple[TokenSeq, ...]
    groups: tuple[tuple[frozenset, ...], ...]  # groups[s][i]: aligned group of word (s, i)
    # words[s][i] = (token, bits, delta), derived from hyps and groups: emitting
    # word (s, i) ORs bits[t] into system t's used mask and adds delta to the
    # match features (1.0 for each system in the group) and the length feature
    words: tuple[tuple[tuple[str, tuple[int, ...], tuple[float, ...]], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # the search's form of words: all used masks live in one int, system s in
    # the field_width bits from s * field_width (one bit more than the longest
    # hypothesis, so a field's lowest unset bit never leaves it); packed[s] is
    # (s * field_width, row), row[i] = (token, bits of every system, delta),
    # then None: the frontier index of an exhausted system
    field_width: int = field(init=False, repr=False, compare=False)
    packed: tuple[tuple[int, tuple], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.hyps)
        words = []
        for s, row in enumerate(self.groups):
            entries = []
            for i, group in enumerate(row):
                bits = [0] * n
                delta = [0.0] * n + [1.0]
                for sys_idx, tok_idx in group:
                    bits[sys_idx] |= 1 << tok_idx
                    delta[sys_idx] = 1.0
                entries.append((self.hyps[s][i], tuple(bits), tuple(delta)))
            words.append(tuple(entries))
        object.__setattr__(self, "words", tuple(words))
        width = max(map(len, self.hyps), default=0) + 1
        packed = []
        for s, row in enumerate(words):
            packed_row = [
                (token, sum(b << (t * width) for t, b in enumerate(bits)), delta)
                for token, bits, delta in row
            ]
            packed.append((s * width, (*packed_row, None)))
        object.__setattr__(self, "field_width", width)
        object.__setattr__(self, "packed", tuple(packed))

    @property
    def n_systems(self) -> int:
        return len(self.hyps)

    def schema(self) -> FeatureSchema:
        return FeatureSchema(len(self.hyps))


def build_space(
    hyps: Sequence[TokenSeq], alignments: dict[tuple[int, int], Alignment]
) -> SearchSpace:
    """Precompute each word's aligned group: itself plus its direct
    alignment partners in every other system."""
    hyps = tuple(tuple(h) for h in hyps)
    n = len(hyps)
    if n < 2:
        raise ValueError("need at least 2 hypotheses to combine")
    maps: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in alignments:
                raise ValueError(f"missing alignment for system pair ({i}, {j})")
            ab = alignments[(i, j)].a_to_b()
            maps[(i, j)] = ab
            maps[(j, i)] = {b: a for a, b in ab.items()}
    groups = []
    for s in range(n):
        row = []
        for i in range(len(hyps[s])):
            group = {(s, i)}
            for t in range(n):
                if t == s:
                    continue
                j = maps[(s, t)].get(i)
                if j is not None:
                    group.add((t, j))
            row.append(frozenset(group))
        groups.append(tuple(row))
    return SearchSpace(hyps, tuple(groups))


def build_spaces(hyp_lines: Sequence[Sequence[TokenSeq]]) -> list[SearchSpace]:
    """One aligned search space per sentence from line-aligned hypothesis
    lists (``hyp_lines[s][i]`` is system s's output for sentence i)."""
    return [build_space(hyps, align_all(hyps)) for hyps in zip(*hyp_lines)]


class SearchState(NamedTuple):
    used: tuple[int, ...]  # per-system bitmask of consumed token indices
    out: TokenSeq
    lm_ctx: tuple[str, ...]
    feats: tuple[float, ...]
    score: float
    done: bool = False


def initial_state(space: SearchSpace, lm: NGramLM) -> SearchState:
    schema = space.schema()
    return SearchState(
        used=(0,) * space.n_systems,
        out=(),
        lm_ctx=lm.start_context(),
        feats=(0.0,) * schema.dim,
        score=0.0,
    )


def _successors(
    state: tuple, space: SearchSpace, lm: NGramLM, weights: Sequence[float]
) -> tuple[list[tuple], tuple | None]:
    """The successor rule on a packed state ``(used, out, lm_ctx, feats,
    score)``: one word emission per system with an unused frontier word, and
    the end state once any system is exhausted (None otherwise).

    Emissions that consume the same words and output the same token as an
    earlier system's emission are dropped (the earlier one is kept).
    """
    used0, out0, ctx, feats0, _ = state
    lm0 = feats0[-1]
    memo = lm._transitions
    succs = []
    seen = []
    exhausted = False
    for offset, row in space.packed:
        x = used0 >> offset
        word = row[(x ^ (x + 1)).bit_length() - 1]  # lowest unconsumed index
        if word is None:
            exhausted = True
            continue
        token, bits, delta = word
        used = used0 | bits
        key = (used, token)
        if key in seen:
            continue
        seen.append(key)
        lp, next_ctx = memo.get((ctx, token)) or lm.transition(ctx, token)
        # match and length features only ever hold sums of 1.0 from +0.0, so
        # adding a 0.0 increment leaves them bit-for-bit unchanged
        feats = (*map(add, feats0, delta), lm0 + lp)
        succs.append((used, out0 + (token,), next_ctx, feats, sum(map(mul, weights, feats))))
    end = None
    if exhausted:
        lp = (memo.get((ctx, LM_EOS)) or lm.transition(ctx, LM_EOS))[0]
        feats = (*feats0[:-1], lm0 + lp)
        end = (used0, out0, ctx, feats, sum(map(mul, weights, feats)))
    return succs, end


def extensions(
    space: SearchSpace,
    state: SearchState,
    lm: NGramLM,
    weights: Sequence[float],
) -> list[SearchState]:
    """Successor states of ``state`` as ``beam_search`` generates them, with
    the end state (``done``) last; a finished state has none."""
    if state.done:
        return []
    width = space.field_width
    field = (1 << width) - 1
    used = sum(mask << (s * width) for s, mask in enumerate(state.used))
    succs, end = _successors((used, *state[1:5]), space, lm, weights)
    result = [
        SearchState(tuple(u >> (s * width) & field for s in range(space.n_systems)), *rest)
        for u, *rest in succs
    ]
    if end is not None:
        result.append(SearchState(state.used, *end[1:], True))
    return result


def _rank(state: tuple) -> tuple:
    return -state[4], state[1]


def beam_search(
    space: SearchSpace,
    weights: Sequence[float],
    lm: NGramLM,
    beam: int | None = 64,
    k: int = 50,
) -> list[tuple[TokenSeq, np.ndarray, float]]:
    """Breadth-synchronous beam search over emitted length.

    States with the same (used words, LM context) recombine, keeping the
    higher score (ties: lexicographically smaller output).  Returns up to k
    completed hypotheses sorted by score, deduplicated by token sequence.
    beam=None disables pruning entirely.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = tuple(float(w) for w in weights)
    completed: dict[TokenSeq, tuple] = {}
    states = [(0, *initial_state(space, lm)[1:5])]  # packed: no word used
    while states:
        nxt: dict[tuple, tuple] = {}
        for state in states:
            succs, end = _successors(state, space, lm, weights)
            for succ in succs:
                key = (succ[0], succ[2])
                prev = nxt.get(key)
                # on equal scores and equal outputs the later state wins
                if (
                    prev is None
                    or succ[4] > prev[4]
                    or (succ[4] == prev[4] and succ[1] <= prev[1])
                ):
                    nxt[key] = succ
            if end is not None:
                prev = completed.get(end[1])
                if prev is None or end[4] >= prev[4]:
                    completed[end[1]] = end
        states = sorted(nxt.values(), key=_rank)
        if beam is not None:
            del states[beam:]
    assert completed, "the end action is always reachable"
    ranked = sorted(completed.values(), key=_rank)
    return [(out, np.array(feats), score) for _, out, _, feats, score in ranked[:k]]
