"""Weight tuning for the combination model: exact line search over the
upper envelope of per-sentence candidate scores, coordinate plus random
directions, and the outer decode/merge/optimize loop.

The objective is corpus F0.5 computed from summed per-sentence statistics
over accumulated k-best pools.  The pool stores each candidate once; a
sentence's feature matrix and statistics list are derived from its
candidates on the first read after an ``add`` to it, so during one ``mert``
call, when the pool does not change, each is built once.  A line search gets
every candidate's slope and intercept from two matrix-vector products per
sentence, and ``corpus_f`` its argmax from one; both read the same matrix, so
they agree on which candidate is best.

A line search builds each sentence's envelope from plain sorted
``(slope, -intercept, id)`` tuples, records each breakpoint as integer
``(gamma, dtp, dfp, dfn)`` deltas, and sweeps all sentences' breakpoints in
one sorted pass.  ``mert`` does not repeat an axis search whose start point
has not moved since that axis was last searched.

``tune_loop`` and ``decode_corpus`` search through ``beam_search``, whose
per-space memo (keyed by LM object, exact weight bits and beam) serves a
repeated search, such as the final decode with weights that the last round
already searched.  ``tune_loop`` scores candidates through the split's
``evaluation.Scorer``, whose memo serves a caller that tunes several times on
the same sentences and reports on them, as ``stages`` does.

numpy is imported inside the functions that make arrays, not at the top:
``cli`` imports this module at start-up, and ``combine``, which decodes
through ``decode_corpus`` with a weight tuple, then runs without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .combiner import NGramLM, SearchSpace, beam_search
from .evaluation import Scorer, ScoreStats, f05
from .textcore import TokenSeq

if TYPE_CHECKING:
    import numpy as np


class Candidate(NamedTuple):
    tokens: TokenSeq
    feats: tuple[float, ...]
    stats: ScoreStats


class KBestPool:
    """Per-sentence candidate lists, deduplicated by token sequence.

    ``features(i)`` and ``stats(i)`` are derived from sentence i's
    candidates, in insertion order, on the first read after an ``add`` to
    it, and kept until the next one.  A pool starts as ``empty``.
    """

    __slots__ = ("sentences", "_derived")

    def __init__(self, sentences: list[dict[TokenSeq, Candidate]]) -> None:
        self.sentences = sentences
        # sentence -> (feature matrix, statistics), dropped by an add to it
        self._derived: dict[int, tuple[np.ndarray, list[ScoreStats]]] = {}

    @classmethod
    def empty(cls, n_sentences: int) -> "KBestPool":
        return cls([{} for _ in range(n_sentences)])

    def add(self, sentence: int, cand: Candidate) -> bool:
        """Insert unless a candidate with the same tokens exists; returns
        whether the pool grew."""
        slot = self.sentences[sentence]
        if cand.tokens in slot:
            return False
        slot[cand.tokens] = cand
        self._derived.pop(sentence, None)
        return True

    def _derive(self, sentence: int) -> tuple[np.ndarray, list[ScoreStats]]:
        derived = self._derived.get(sentence)
        if derived is None:
            import numpy as np

            cands = self.sentences[sentence].values()
            feats = np.array([c.feats for c in cands], dtype=float) if cands else np.empty((0, 0))
            derived = self._derived[sentence] = (feats, [c.stats for c in cands])
        return derived

    def features(self, sentence: int) -> np.ndarray:
        """Feature matrix of a sentence's candidates, one row each in
        insertion order."""
        return self._derive(sentence)[0]

    def stats(self, sentence: int) -> list[ScoreStats]:
        """Statistics of a sentence's candidates in insertion order."""
        return self._derive(sentence)[1]

    def size(self) -> int:
        return sum(len(s) for s in self.sentences)

    def corpus_f(self, weights: np.ndarray) -> float:
        """Corpus F0.5 of the per-sentence argmax candidates under ``weights``
        (ties: earliest inserted)."""
        tp = fp = fn = 0
        for i, slot in enumerate(self.sentences):
            if slot:
                feats, stats = self._derive(i)
                best = stats[int((feats @ weights).argmax())]
                tp += best.tp
                fp += best.fp
                fn += best.fn
        return f05(tp, fp, fn)


def line_search(
    pool: KBestPool,
    weights: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float]:
    """Best step size along ``direction`` by exact envelope sweep.

    Returns (gamma*, corpus F0.5 at gamma*), which is >= F0.5 at gamma 0.
    Among equally good intervals the representative closest to 0 wins, and
    representatives are interval midpoints, never breakpoints.
    """
    import numpy as np

    direction = np.asarray(direction, dtype=float)
    if not np.any(direction):
        raise ValueError("direction must be non-zero")
    if not any(pool.sentences):
        raise ValueError("empty pool")
    tp = fp = fn = 0
    events: list[tuple[float, int, int, int]] = []  # gamma, dtp, dfp, dfn
    for i in range(len(pool.sentences)):
        stats = pool.stats(i)
        if not stats:
            continue
        feats = pool.features(i)
        # candidate j is the line gamma * slope + intercept; sorted by slope,
        # then by height (negated intercept), then by id, the first line of
        # each slope dominates the rest and the steepest descent wins at -inf
        lines = sorted(
            zip((feats @ direction).tolist(), (-(feats @ weights)).tolist(), range(len(stats)))
        )
        hull: list[tuple[float, float, int]] = []  # upper envelope, left to right
        starts: list[float] = []  # starts[j]: gamma where hull[j + 1] takes over
        slope = None
        for line in lines:
            if line[0] == slope:
                continue
            slope, neg_ic, _ = line
            while hull:
                p_slope, p_neg_ic, _ = hull[-1]
                # intersection with the previous hull line; the same bits as
                # (p_intercept - intercept) / (slope - p_slope)
                x = (neg_ic - p_neg_ic) / (slope - p_slope)
                if starts and x <= starts[-1]:
                    hull.pop()
                    starts.pop()
                    continue
                starts.append(x)
                break
            hull.append(line)
        old = stats[hull[0][2]]
        tp += old.tp
        fp += old.fp
        fn += old.fn
        for gamma, (_, _, j) in zip(starts, hull[1:]):
            new = stats[j]
            events.append((gamma, new.tp - old.tp, new.fp - old.fp, new.fn - old.fn))
            old = new

    # sweep the intervals (-inf, g1), [g1, g2), ..., [gn, inf) in order
    events.sort()
    best_f = -1.0
    best_gamma = 0.0
    lo = -math.inf
    ev = 0
    while True:
        hi = events[ev][0] if ev < len(events) else math.inf
        f = f05(tp, fp, fn)
        if f >= best_f:
            if lo < 0.0 < hi:
                gamma = 0.0
            elif math.isinf(lo) and math.isinf(hi):
                gamma = 0.0
            elif math.isinf(lo):
                gamma = hi - 1.0
            elif math.isinf(hi):
                gamma = lo + 1.0
            else:
                gamma = (lo + hi) / 2.0
            if f > best_f or (abs(gamma), gamma) < (abs(best_gamma), best_gamma):
                best_f, best_gamma = f, gamma
        if ev == len(events):
            return best_gamma, best_f
        while ev < len(events) and events[ev][0] == hi:
            _, dtp, dfp, dfn = events[ev]
            tp += dtp
            fp += dfp
            fn += dfn
            ev += 1
        lo = hi


def mert(
    pool: KBestPool,
    w0: np.ndarray,
    iters: int,
    n_random: int,
    rng_seed: int | tuple[int, ...],
) -> np.ndarray:
    """Iterated line search over coordinate axes plus random directions,
    accepting only strictly improving steps.  Deterministic given the seed.

    An axis is not searched again while ``w`` is the array its last search
    started from: no step has been accepted since, so the search would
    return the same rejected step.
    """
    import numpy as np

    if iters < 1:
        raise ValueError("iters must be >= 1")
    w = np.asarray(w0, dtype=float).copy()
    dim = w.shape[0]
    rng = np.random.default_rng(rng_seed)
    current_f = pool.corpus_f(w)
    searched_at: list[np.ndarray | None] = [None] * dim  # w at each axis's last search
    axes = list(np.eye(dim))
    for _ in range(iters):
        directions = axes.copy()
        for _ in range(n_random):
            d = rng.normal(size=dim)
            directions.append(d / np.linalg.norm(d))
        for axis, d in enumerate(directions):
            if axis < dim:
                if searched_at[axis] is w:
                    continue
                searched_at[axis] = w
            gamma, f = line_search(pool, w, d)
            if f > current_f:
                w = w + gamma * d
                current_f = f
    return w


def tune_loop(
    scorer: Scorer,
    spaces: Sequence[SearchSpace],
    lm: NGramLM,
    w0: Sequence[float],
    beam: int | None,
    k: int,
    rounds: int,
    mert_iters: int,
    n_random: int,
    rng_seed: int,
) -> tuple[np.ndarray, KBestPool]:
    """Decode k-best, merge into the pool, re-optimize with MERT seeded
    ``(rng_seed, round)``; stop early when a round contributes no new
    candidates.  A new candidate of sentence i is scored by
    ``scorer.sentence(i, tokens)``."""
    import numpy as np

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if len(scorer.sources) != len(spaces):
        raise ValueError("the scorer's sentences and the search spaces must be line-aligned")
    pool = KBestPool.empty(len(spaces))
    w = np.asarray(w0, dtype=float).copy()
    for round_idx in range(rounds):
        grew = False
        for i, space in enumerate(spaces):
            for tokens, feats, _ in beam_search(space, w, lm, beam, k):
                if tokens not in pool.sentences[i]:
                    grew |= pool.add(i, Candidate(tokens, feats, scorer.sentence(i, tokens)))
        if not grew and round_idx > 0:
            break
        w = mert(pool, w, iters=mert_iters, n_random=n_random, rng_seed=(rng_seed, round_idx))
    return w, pool


def decode_corpus(
    spaces: Sequence[SearchSpace],
    weights: Sequence[float],
    lm: NGramLM,
    beam: int | None,
) -> list[TokenSeq]:
    """1-best combination output for each sentence."""
    return [beam_search(space, weights, lm, beam, k=1)[0][0] for space in spaces]
