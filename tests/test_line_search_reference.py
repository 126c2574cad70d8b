"""The exact line search and MERT against the implementations they replaced.

``ref_envelope``, ``ref_line_search`` and ``ref_mert`` below are verbatim
copies (apart from their names) of the hull-then-sweep line search that
built one ``ScoreStats`` per event, and of the MERT loop that searched every
coordinate axis in every iteration.  The lean sweep must return the same
(gamma, F) bit for bit, and MERT the same weights, with fewer line searches
once an iteration accepts nothing.  ``tests/test_tuner.py`` keeps the
dense-grid oracle.
"""

import numpy as np
import pytest

from corrfuse import tuner
from corrfuse.alignment import align_all
from corrfuse.combiner import FeatureSchema, build_space, train_lm
from corrfuse.evaluation import GoldAnnotation, Scorer, ScoreStats, f05
from corrfuse.toydata import CorruptionRule, RULE_KINDS, generate_corpus
from corrfuse.tuner import Candidate, KBestPool, line_search, mert, tune_loop


def ref_envelope(
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


def ref_line_search(
    pool: KBestPool,
    weights: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float]:
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
        segments = ref_envelope(list(zip(slopes, intercepts, range(len(stats)))))
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
        f = f05(stats.tp, stats.fp, stats.fn)
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


def ref_mert(
    pool: KBestPool,
    w0: np.ndarray,
    iters: int = 5,
    n_random: int = 8,
    rng_seed: int = 0,
) -> np.ndarray:
    if iters < 1:
        raise ValueError("iters must be >= 1")
    w = np.asarray(w0, dtype=float).copy()
    dim = w.shape[0]
    rng = np.random.default_rng(rng_seed)
    current_f = pool.corpus_f(w)
    for _ in range(iters):
        directions = [np.eye(dim)[i] for i in range(dim)]
        for _ in range(n_random):
            d = rng.normal(size=dim)
            directions.append(d / np.linalg.norm(d))
        for d in directions:
            gamma, f = ref_line_search(pool, w, d)
            if f > current_f:
                w = w + gamma * d
                current_f = f
    return w


def bits(x: float) -> str:
    return float(x).hex()


def random_stats(rng):
    return ScoreStats(*(int(v) for v in rng.integers(0, 4, size=3)))


def random_pool(rng, dim):
    """Sentences of 0-12 candidates; features may be coarse (integer-valued),
    repeat a slope (the same row up to one column) or an intercept (the same
    row), so hull ties and shared breakpoints are common."""
    n_sent = int(rng.integers(1, 7))
    pool = KBestPool.empty(n_sent)
    coarse = rng.random() < 0.5
    for i in range(n_sent):
        rows: list[np.ndarray] = []
        for j in range(int(rng.integers(0, 13))):
            kind = rng.random()
            if rows and kind < 0.2:
                row = rows[int(rng.integers(len(rows)))].copy()  # equal line
            elif rows and kind < 0.4:
                row = rows[int(rng.integers(len(rows)))].copy()
                row[int(rng.integers(dim))] += float(rng.integers(-2, 3))
            elif coarse:
                row = rng.integers(-3, 4, size=dim).astype(float)
            else:
                row = rng.normal(size=dim)
            rows.append(row)
            pool.add(i, Candidate((f"c{j}",), tuple(row.tolist()), random_stats(rng)))
    return pool


def random_vector(rng, dim, coarse):
    v = rng.integers(-2, 3, size=dim).astype(float) if coarse else rng.normal(size=dim)
    if not v.any():
        v[int(rng.integers(dim))] = 1.0
    return v


def directions_for(rng, dim):
    return [np.eye(dim)[i] for i in range(dim)] + [
        random_vector(rng, dim, coarse=c) for c in (False, True)
    ]


def assert_same_search(pool, w, d):
    gamma, f = line_search(pool, w, d)
    want_gamma, want_f = ref_line_search(pool, w, d)
    assert (bits(gamma), bits(f)) == (bits(want_gamma), bits(want_f))


@pytest.mark.parametrize("seed", range(40))
def test_line_search_matches_reference_on_random_pools(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    pool = random_pool(rng, dim)
    if pool.size() == 0:
        pool.add(0, Candidate(("c",), (1.0,) * dim, random_stats(rng)))
    for _ in range(4):
        w = random_vector(rng, dim, coarse=rng.random() < 0.5)
        for d in directions_for(rng, dim):
            assert_same_search(pool, w, d)


def test_single_candidate_and_empty_sentences():
    rng = np.random.default_rng(5)
    pool = KBestPool.empty(4)
    pool.add(1, Candidate(("a",), (1.0, -2.0), ScoreStats(1, 2, 0)))
    pool.add(3, Candidate(("b",), (0.5, 0.5), ScoreStats(0, 0, 3)))
    for _ in range(10):
        assert_same_search(pool, rng.normal(size=2), rng.normal(size=2))
    with pytest.raises(ValueError):
        line_search(KBestPool.empty(2), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        line_search(pool, np.ones(2), np.zeros(2))


@pytest.fixture(scope="module")
def tuned_pool():
    """A k-best pool grown by the real tuning loop: three systems that each
    correct the toy corpus imperfectly, combined under a trigram LM."""
    n = 12
    examples = generate_corpus(3, n)
    sources = [ex.source for ex in examples]
    golds = [GoldAnnotation(ex.source, (ex.gold_edits,)) for ex in examples]
    rules = [CorruptionRule(kind, 0.4) for kind in RULE_KINDS]
    systems = [[ex.source for ex in generate_corpus(3, n, rules, rng_seed=s)] for s in (7, 8, 9)]
    spaces = [build_space(hyps, align_all(hyps)) for hyps in zip(*systems)]
    lm = train_lm([ex.reference for ex in generate_corpus(4, 60)], order=3)
    w0 = FeatureSchema(3).default_weights()
    _, pool = tune_loop(
        Scorer(sources, golds), spaces, lm, w0,
        beam=64, k=50, rounds=2, mert_iters=2, n_random=2, rng_seed=0,
    )
    assert pool.size() > 10 * n
    return pool


def test_line_search_matches_reference_on_a_tuned_pool(tuned_pool):
    rng = np.random.default_rng(17)
    dim = tuned_pool.features(0).shape[1]
    for _ in range(10):
        w = rng.normal(size=dim)
        for d in directions_for(rng, dim):
            assert_same_search(tuned_pool, w, d)


def counting(monkeypatch, name, target):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    monkeypatch.setattr(*name, counted)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_mert_matches_reference(monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(1, 5))
    pool = random_pool(rng, dim)
    pool.add(0, Candidate(("extra",), tuple(rng.normal(size=dim).tolist()), random_stats(rng)))
    w0 = random_vector(rng, dim, coarse=seed % 2 == 0)
    iters, n_random = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    got_calls = counting(monkeypatch, (tuner, "line_search"), line_search)
    got = mert(pool, w0, iters, n_random, rng_seed=seed)
    assert got.tobytes() == ref_mert(pool, w0, iters, n_random, rng_seed=seed).tobytes()
    assert len(got_calls) <= iters * (dim + n_random)


def test_mert_matches_reference_on_a_tuned_pool(tuned_pool):
    w0 = FeatureSchema(3).default_weights()
    for seed in range(3):
        assert mert(tuned_pool, w0, 4, 3, seed).tobytes() == ref_mert(
            tuned_pool, w0, 4, 3, seed
        ).tobytes()


def test_mert_skips_axes_once_an_iteration_accepts_nothing(monkeypatch):
    # one candidate per sentence: F is the same for every weight vector, so
    # no step is ever accepted and only the first iteration searches the axes
    pool = KBestPool.empty(2)
    pool.add(0, Candidate(("a",), (1.0, 0.0, 2.0), ScoreStats(1, 1, 0)))
    pool.add(1, Candidate(("b",), (0.0, 3.0, 1.0), ScoreStats(2, 0, 1)))
    w0 = np.array([0.5, -1.0, 2.0])
    dim, iters, n_random = 3, 4, 2
    calls = counting(monkeypatch, (tuner, "line_search"), line_search)
    got = mert(pool, w0, iters, n_random, rng_seed=1)
    assert got.tobytes() == ref_mert(pool, w0, iters, n_random, rng_seed=1).tobytes()
    assert len(calls) == dim + iters * n_random  # the reference makes iters * (dim + n_random)
    # the random directions are still drawn, in the reference's order
    want_dirs = []
    rng = np.random.default_rng(1)
    for _ in range(iters):
        for _ in range(n_random):
            d = rng.normal(size=dim)
            want_dirs.append(d / np.linalg.norm(d))
    got_dirs = [args[2] for args in calls if np.count_nonzero(args[2]) > 1]
    assert [d.tobytes() for d in got_dirs] == [d.tobytes() for d in want_dirs]
