"""Weight tuning for the combination model: exact line search over the
upper envelope of per-sentence candidate scores, coordinate plus random
directions, and the outer decode/merge/optimize loop.

The objective is corpus F0.5 computed from summed per-sentence statistics
over accumulated k-best pools.  The pool keeps each sentence's candidate
features as the rows of one matrix, so a line search gets every candidate's
slope and intercept from two matrix-vector products per sentence, and
``corpus_f`` its argmax from one; both read the same products, so they agree
on which candidate is best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .combiner import NGramLM, SearchSpace, beam_search
from .evaluation import GoldAnnotation, ScoreStats, f_beta, score_sentence
from .textcore import TokenSeq


@dataclass(frozen=True)
class Candidate:
    tokens: TokenSeq
    feats: tuple[float, ...]
    stats: ScoreStats


@dataclass
class KBestPool:
    """Per-sentence candidate lists, deduplicated by token sequence.

    Alongside each sentence's dict the pool keeps the candidates' features
    as the rows of one matrix and their statistics as a list, both in
    insertion order; ``add`` extends them, so model scores for a whole
    sentence are one matrix-vector product.
    """

    sentences: list[dict[TokenSeq, Candidate]] = field(default_factory=list)
    # per sentence: feature rows (capacity grows by doubling; the first
    # len(sentences[i]) rows are live) and statistics, in insertion order
    _feats: list[np.ndarray] = field(init=False, repr=False, compare=False)
    _stats: list[list[ScoreStats]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        given, self.sentences = self.sentences, [{} for _ in self.sentences]
        self._feats = [np.empty((0, 0)) for _ in given]
        self._stats = [[] for _ in given]
        for i, slot in enumerate(given):
            for cand in slot.values():
                self.add(i, cand)

    @classmethod
    def empty(cls, n_sentences: int) -> "KBestPool":
        return cls([{} for _ in range(n_sentences)])

    def add(self, sentence: int, cand: Candidate) -> bool:
        """Insert unless a candidate with the same tokens exists; returns
        whether the pool grew."""
        slot = self.sentences[sentence]
        if cand.tokens in slot:
            return False
        n = len(slot)
        mat = self._feats[sentence]
        if n == len(mat):
            grown = np.empty((max(8, 2 * n), len(cand.feats)))
            if n:
                grown[:n] = mat
            mat = self._feats[sentence] = grown
        mat[n] = cand.feats
        slot[cand.tokens] = cand
        self._stats[sentence].append(cand.stats)
        return True

    def features(self, sentence: int) -> np.ndarray:
        """Feature matrix of a sentence's candidates, one row each in
        insertion order (a view: valid until the next ``add``)."""
        return self._feats[sentence][: len(self.sentences[sentence])]

    def stats(self, sentence: int) -> list[ScoreStats]:
        """Statistics of a sentence's candidates in insertion order."""
        return self._stats[sentence]

    def size(self) -> int:
        return sum(len(s) for s in self.sentences)

    def corpus_f(self, weights: np.ndarray, beta: float = 0.5) -> float:
        """F-score of the per-sentence argmax candidates under ``weights``
        (ties: earliest inserted)."""
        tp = fp = fn = 0
        for i, stats in enumerate(self._stats):
            if stats:
                best = stats[int(np.argmax(self.features(i) @ weights))]
                tp += best.tp
                fp += best.fp
                fn += best.fn
        return f_beta(tp, fp, fn, beta)


def _envelope(
    lines: list[tuple[float, float, int]]
) -> list[tuple[float, int]]:
    """Upper envelope of lines (slope, intercept, id).

    Returns [(start_gamma, id), ...] segments covering (-inf, inf) in
    increasing gamma order; the first segment starts at -inf.
    """
    # steepest-descending slope wins at -inf; for equal slopes keep the
    # higher intercept (ties: smaller id, deterministic)
    lines = sorted(lines, key=lambda l: (l[0], -l[1], l[2]))
    dedup: list[tuple[float, float, int]] = []
    for sl, ic, idx in lines:
        if dedup and dedup[-1][0] == sl:
            continue  # same slope, lower or equal height: dominated
        dedup.append((sl, ic, idx))
    hull: list[tuple[float, float, int]] = []  # kept lines
    starts: list[float] = []  # start gamma of each kept line; starts[0] = -inf
    for sl, ic, idx in dedup:
        while hull:
            p_sl, p_ic, _ = hull[-1]
            # intersection with the previous hull line
            x = (p_ic - ic) / (sl - p_sl)
            if starts and len(hull) > 1 and x <= starts[-1]:
                hull.pop()
                starts.pop()
                continue
            hull.append((sl, ic, idx))
            starts.append(x)
            break
        else:
            hull.append((sl, ic, idx))
    return [(-np.inf if i == 0 else starts[i - 1], idx) for i, (_, _, idx) in enumerate(hull)]


def line_search(
    pool: KBestPool,
    weights: np.ndarray,
    direction: np.ndarray,
    beta: float = 0.5,
) -> tuple[float, float]:
    """Best step size along ``direction`` by exact envelope sweep.

    Returns (gamma*, corpus F at gamma*); F at gamma* is >= F at gamma 0.
    Among equally good intervals the representative closest to 0 wins, and
    representatives are interval midpoints, never breakpoints.
    """
    direction = np.asarray(direction, dtype=float)
    if not np.any(direction):
        raise ValueError("direction must be non-zero")
    base_stats: list[ScoreStats] = []
    events: list[tuple[float, int, ScoreStats, ScoreStats]] = []  # gamma, sent, old, new
    for i in range(len(pool.sentences)):
        stats = pool.stats(i)
        if not stats:
            continue
        feats = pool.features(i)
        slopes, intercepts = (feats @ direction).tolist(), (feats @ weights).tolist()
        segments = _envelope(list(zip(slopes, intercepts, range(len(stats)))))
        sent = len(base_stats)
        base_stats.append(stats[segments[0][1]])
        for seg_i in range(1, len(segments)):
            gamma = segments[seg_i][0]
            events.append(
                (
                    gamma,
                    sent,
                    stats[segments[seg_i - 1][1]],
                    stats[segments[seg_i][1]],
                )
            )
    if not base_stats:
        raise ValueError("empty pool")

    current = ScoreStats()
    for st in base_stats:
        current = current + st

    events.sort(key=lambda e: e[0])
    # interval boundaries: (-inf, g1), [g1, g2), ..., [gn, inf)
    boundaries = sorted({e[0] for e in events})
    intervals: list[tuple[float, float, ScoreStats]] = []
    lo = -np.inf
    ev = 0
    for b in boundaries:
        intervals.append((lo, b, current))
        while ev < len(events) and events[ev][0] == b:
            _, _, old, new = events[ev]
            current = ScoreStats(
                current.tp - old.tp + new.tp,
                current.fp - old.fp + new.fp,
                current.fn - old.fn + new.fn,
            )
            ev += 1
        lo = b
    intervals.append((lo, np.inf, current))

    best_f = -1.0
    best_gamma = 0.0
    for lo, hi, stats in intervals:
        f = f_beta(stats.tp, stats.fp, stats.fn, beta)
        if lo < 0.0 < hi:
            gamma = 0.0
        elif np.isinf(lo) and np.isinf(hi):
            gamma = 0.0
        elif np.isinf(lo):
            gamma = hi - 1.0
        elif np.isinf(hi):
            gamma = lo + 1.0
        else:
            gamma = (lo + hi) / 2.0
        if f > best_f or (f == best_f and (abs(gamma), gamma) < (abs(best_gamma), best_gamma)):
            best_f, best_gamma = f, gamma
    return best_gamma, best_f


def mert(
    pool: KBestPool,
    w0: np.ndarray,
    iters: int = 5,
    n_random: int = 8,
    rng_seed: int = 0,
    beta: float = 0.5,
) -> np.ndarray:
    """Iterated line search over coordinate axes plus random directions,
    accepting only strictly improving steps.  Deterministic given the seed."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    w = np.asarray(w0, dtype=float).copy()
    dim = w.shape[0]
    rng = np.random.default_rng(rng_seed)
    current_f = pool.corpus_f(w, beta)
    for _ in range(iters):
        directions = [np.eye(dim)[i] for i in range(dim)]
        for _ in range(n_random):
            d = rng.normal(size=dim)
            directions.append(d / np.linalg.norm(d))
        for d in directions:
            gamma, f = line_search(pool, w, d, beta)
            if f > current_f:
                w = w + gamma * d
                current_f = f
    return w


def tune_loop(
    sources: Sequence[TokenSeq],
    golds: Sequence[GoldAnnotation],
    spaces: Sequence[SearchSpace],
    lm: NGramLM,
    w0: np.ndarray,
    beam: int | None = 64,
    k: int = 50,
    rounds: int = 3,
    mert_iters: int = 5,
    n_random: int = 8,
    rng_seed: int = 0,
) -> tuple[np.ndarray, KBestPool]:
    """Decode k-best, merge into the pool, re-optimize; stop early when a
    round contributes no new candidates."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not len(sources) == len(golds) == len(spaces):
        raise ValueError("sources, golds and search spaces must be line-aligned")
    pool = KBestPool.empty(len(sources))
    w = np.asarray(w0, dtype=float).copy()
    for round_idx in range(rounds):
        grew = False
        for i, space in enumerate(spaces):
            for tokens, feats, _ in beam_search(space, w, lm, beam, k):
                if tokens in pool.sentences[i]:
                    continue
                stats = score_sentence(sources[i], tokens, golds[i])
                grew |= pool.add(i, Candidate(tokens, tuple(feats), stats))
        if not grew and round_idx > 0:
            break
        w = mert(pool, w, iters=mert_iters, n_random=n_random, rng_seed=rng_seed + round_idx)
    return w, pool


def decode_corpus(
    spaces: Sequence[SearchSpace],
    weights: np.ndarray,
    lm: NGramLM,
    beam: int | None = 64,
) -> list[TokenSeq]:
    """1-best combination output for each sentence."""
    return [beam_search(space, weights, lm, beam, k=1)[0][0] for space in spaces]
