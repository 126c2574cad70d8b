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
- ``extensions`` is the successor rule, once per state; ``_search``
  recombines its output inline.

Scores are still the full dot product of weights and features, summed left
to right, for every state.

A search is a pure function of its space, LM, weights and beam, and k only
truncates its ranked result, so tuning rounds, the final decode and the
stages of one ``stages`` command repeat many searches.  ``build_spaces``
builds one space per distinct hypothesis tuple (optionally over several
corpora), and each space memoizes its searches in ``kbest``: keyed by the LM
object, the weights' exact bits and the beam, it keeps the ranked (tokens,
features, score) tuples up to the largest k asked for, never the search's
other states.  The memo lives and dies with its space.

The LM counts each n-gram order with one ``Counter`` over shifted slices of
the padded sentences.  A context's continuations keep the order in which
they first occur in the corpus: the normalizer ``_z`` sums their backoff
probabilities in that order, so the order fixes the bits of every
probability the search and the tuner see.

The tuned weights are a plain text file, made and read by the pure
functions ``format_weights`` and ``parse_weights``; the CLI opens the file.

Weights and features are tuples of floats: ``default_weights`` and
``parse_weights`` make weight tuples, and ``beam_search`` returns the
memo's own feature tuples, which no caller can change.  The module imports
no numpy, so that ``combine`` runs without it; the tuner turns the tuples
into arrays where it needs them.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from operator import add, mul
from typing import NamedTuple, Sequence

from .alignment import Alignment, align_all
from .textcore import TokenSeq, split_lines

LM_BOS, LM_EOS, LM_UNK = "<s>", "</s>", "<unk>"
BACKOFF = 0.4
UNIGRAM_SMOOTHING = 0.1


class NGramLM:
    """Count-based LM: stupid backoff renormalized to a proper distribution,
    with add-0.1 smoothing at the unigram level."""

    def __init__(self, corpus: Sequence[TokenSeq], order: int) -> None:
        if order < 1:
            raise ValueError("LM order must be >= 1")
        if not corpus:
            raise ValueError("empty LM training corpus")
        self.order = order
        padded = [(LM_BOS,) * (order - 1) + tuple(sent) + (LM_EOS,) for sent in corpus]
        # unigrams: every token after the start padding, the end marker included
        self._unigram: dict[str, int] = Counter(w for sent in padded for w in sent[order - 1 :])
        self._total = sum(self._unigram.values())
        # continuations[ctx] maps each token seen after ctx to its count, in
        # order of first occurrence (see the module docstring); ctx_total[ctx]
        # is the prefix count, so seen continuation mass always sums to exactly 1
        self._continuations: dict[tuple[str, ...], dict[str, int]] = {}
        for n in range(2, order + 1):
            # the n-grams ending at each counted token, in corpus order
            grams = Counter(
                gram for sent in padded for gram in zip(*(sent[k:] for k in range(order - n, order)))
            )
            for gram, count in grams.items():
                self._continuations.setdefault(gram[:-1], {})[gram[-1]] = count
        self._ctx_total = {ctx: sum(slot.values()) for ctx, slot in self._continuations.items()}
        self._types = set(self._unigram) | {LM_UNK}
        self._vocab_size = len(self._types)
        self._z_cache: dict[tuple[str, ...], float] = {}
        # (log P(token | context), next context) by (context, token): the
        # lattice search asks for the same pairs again in every state, level
        # and tuning round
        self._transitions: dict[
            tuple[tuple[str, ...], str], tuple[float, tuple[str, ...]]
        ] = {}

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


def train_lm(corpus: Sequence[TokenSeq], order: int) -> NGramLM:
    return NGramLM(corpus, order)


class FeatureSchema(NamedTuple):
    """Named dimensions of the linear combination model."""

    n_systems: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"match_{s}" for s in range(self.n_systems)) + ("length", "lm")

    @property
    def dim(self) -> int:
        return self.n_systems + 2

    def default_weights(self) -> tuple[float, ...]:
        """1.0 for each match feature, 0.5 for length and for the LM."""
        return (1.0,) * self.n_systems + (0.5, 0.5)


def format_weights(schema: FeatureSchema, weights: Sequence[float]) -> str:
    """The weights file: one ``name<TAB>repr(value)`` line per feature."""
    return "".join(f"{name}\t{repr(float(value))}\n" for name, value in zip(schema.names, weights))


def parse_weights(text: str, schema: FeatureSchema) -> tuple[float, ...]:
    """The weights of ``format_weights``'s text, in ``schema`` order: every
    name of the schema exactly once, each with a finite value."""
    entries = [line.partition("\t") for line in split_lines(text) if line.strip()]
    names = [name for name, _, _ in entries]
    if sorted(names) != sorted(schema.names):
        raise ValueError(f"weight names {names} are not {list(schema.names)}, each once")
    values = {name: float(raw) for name, _, raw in entries}
    weights = tuple(values[name] for name in schema.names)
    bad = [name for name, w in zip(schema.names, weights) if not math.isfinite(w)]
    if bad:
        raise ValueError(f"non-finite weights {bad}")
    return weights


class SearchSpace:
    """One sentence's hypotheses and their aligned word groups; two spaces
    are equal when their ``(hyps, groups)`` are."""

    __slots__ = ("hyps", "groups", "packed", "kbest")

    def __init__(self, hyps: tuple[TokenSeq, ...], groups: tuple[tuple[frozenset, ...], ...]) -> None:
        self.hyps = hyps
        self.groups = groups  # groups[s][i]: aligned group of word (s, i)
        # the search's form of groups: all used masks live in one int, system s in
        # the width bits from s * width (width is one more than the longest
        # hypothesis, so a field's lowest unset bit never leaves it); packed[s] is
        # (s * width, row), row[i] = (token, bits, delta): emitting word (s, i) ORs
        # bits into the used mask and adds delta to the match features (1.0 for
        # each system in the group) and the length feature; row ends with None,
        # the frontier index of an exhausted system
        n = len(hyps)
        width = max(map(len, hyps), default=0) + 1
        packed = []
        for s, row in enumerate(groups):
            entries = []
            for i, group in enumerate(row):
                bits = 0
                delta = [0.0] * n + [1.0]
                for sys_idx, tok_idx in group:
                    bits |= 1 << (sys_idx * width + tok_idx)
                    delta[sys_idx] = 1.0
                entries.append((hyps[s][i], bits, tuple(delta)))
            packed.append((s * width, (*entries, None)))
        self.packed: tuple[tuple[int, tuple], ...] = tuple(packed)
        # beam_search's memo: (LM, weight bits, beam) -> (ranked (tokens, features,
        # score) tuples, whether they are all the completed hypotheses)
        self.kbest: dict[tuple, tuple[list[tuple], bool]] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SearchSpace) and (self.hyps, self.groups) == (other.hyps, other.groups)

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


def build_spaces(
    hyp_lines: Sequence[Sequence[TokenSeq]],
    known: dict[tuple[TokenSeq, ...], SearchSpace] | None = None,
) -> list[SearchSpace]:
    """One aligned search space per sentence from line-aligned hypothesis
    lists (``hyp_lines[s][i]`` is system s's output for sentence i).

    Sentences with the same hypothesis tuple share one space.  ``known`` maps
    hypothesis tuples to spaces built before and receives the new ones, so a
    caller that keeps it aligns each tuple once over several corpora.
    """
    if known is None:
        known = {}
    spaces = []
    for hyps in zip(*hyp_lines):
        hyps = tuple(map(tuple, hyps))
        space = known.get(hyps)
        if space is None:
            space = known[hyps] = build_space(hyps, align_all(hyps))
        spaces.append(space)
    return spaces


def extensions(
    space: SearchSpace, state: tuple, lm: NGramLM, weights: Sequence[float]
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


def _rank(state: tuple) -> tuple:
    return -state[4], state[1]


def beam_search(
    space: SearchSpace,
    weights: Sequence[float],
    lm: NGramLM,
    beam: int | None,
    k: int,
) -> list[tuple[TokenSeq, tuple[float, ...], float]]:
    """Breadth-synchronous beam search over emitted length.

    States with the same (used words, LM context) recombine, keeping the
    higher score (ties: lexicographically smaller output).  Returns up to k
    completed (tokens, feature tuple, score) triples sorted by score,
    deduplicated by token sequence.  beam=None disables pruning entirely.

    The result depends on k only by truncation, so ``space.kbest`` keeps the
    ranked list of each (LM object, exact weight bits, beam) searched, up to
    the largest k asked for; a repeated call searches again only when it
    asks for more hypotheses than were kept and more exist.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = tuple(float(w) for w in weights)
    key = (lm, struct.pack(f"{len(weights)}d", *weights), beam)
    kept = space.kbest.get(key)
    if kept is None or (len(kept[0]) < k and not kept[1]):
        ranked = _search(space, weights, lm, beam)
        kept = space.kbest[key] = (
            [(out, feats, score) for _, out, _, feats, score in ranked[:k]],
            len(ranked) <= k,
        )
    return kept[0][:k]


def _search(
    space: SearchSpace, weights: tuple[float, ...], lm: NGramLM, beam: int | None
) -> list[tuple]:
    """Every completed packed state of ``beam_search``'s search, ranked."""
    completed: dict[TokenSeq, tuple] = {}
    states = [(0, (), lm.start_context(), (0.0,) * space.schema().dim, 0.0)]  # no word used
    while states:
        nxt: dict[tuple, tuple] = {}
        for state in states:
            succs, end = extensions(space, state, lm, weights)
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
    return sorted(completed.values(), key=_rank)
