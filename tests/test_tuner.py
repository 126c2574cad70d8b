import numpy as np
import pytest

from corrfuse.alignment import align_all
from corrfuse.combiner import FeatureSchema, build_space, train_lm
from corrfuse.evaluation import GoldAnnotation, Scorer, ScoreStats
from corrfuse.textcore import Edit, tokenize
from corrfuse.tuner import Candidate, KBestPool, decode_corpus, line_search, mert, tune_loop

from defaults import setting


def pool_from(sentences):
    """sentences: list of lists of (feats, stats) tuples."""
    pool = KBestPool.empty(len(sentences))
    for i, cands in enumerate(sentences):
        for j, (feats, stats) in enumerate(cands):
            pool.add(i, Candidate((f"c{i}_{j}",), tuple(feats), stats))
    return pool


def grid_best_f(pool, weights, direction, lo=-30.0, hi=30.0, points=100_000):
    gammas = np.linspace(lo, hi, points)
    best = -1.0
    for g in gammas:
        f = pool.corpus_f(weights + g * direction)
        if f > best:
            best = f
    return best


def random_pool(rng, n_sentences=3, n_cands=4, dim=3):
    sentences = []
    for _ in range(n_sentences):
        cands = []
        for _ in range(n_cands):
            feats = rng.normal(size=dim)
            stats = ScoreStats(
                int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 4))
            )
            cands.append((feats, stats))
        sentences.append(cands)
    return pool_from(sentences)


class TestLineSearch:
    def test_two_line_envelope_by_hand(self):
        # candidate A: perfect stats, wins for gamma > 1 (score = gamma * 2)
        # candidate B: empty stats, wins for gamma < 1 (score = 2)
        perfect = ScoreStats(2, 0, 0)
        empty = ScoreStats(0, 2, 2)
        pool = pool_from([[(np.array([2.0]), perfect), (np.array([0.0]), empty)]])
        weights = np.array([0.0])
        direction = np.array([1.0])
        # scores: A = 2*gamma, B = 0*gamma + ... wait, model score is
        # dot(w,f) + gamma*dot(d,f): A: 0 + 2g, B: 0 + 0. crossing at g=0.
        gamma, f = line_search(pool, weights, direction)
        assert f == pytest.approx(1.0)
        assert gamma > 0.0

    def test_identical_features_degenerate(self):
        stats = ScoreStats(1, 1, 1)
        pool = pool_from([[(np.array([1.0, 2.0]), stats), (np.array([1.0, 2.0]), stats)]])
        gamma, f = line_search(pool, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert gamma == 0.0
        assert f == pytest.approx(stats.f05)

    def test_never_worse_than_gamma_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pool = random_pool(rng)
            w = rng.normal(size=3)
            d = rng.normal(size=3)
            f_zero = pool.corpus_f(w)
            _, f_star = line_search(pool, w, d)
            assert f_star >= f_zero - 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        pool = random_pool(rng, n_sentences=3, n_cands=3)
        w = rng.normal(size=3)
        d = rng.normal(size=3)
        gamma, f_star = line_search(pool, w, d)
        grid = grid_best_f(pool, w, d, points=20_000)
        assert f_star >= grid - 1e-12
        assert pool.corpus_f(w + gamma * d) == pytest.approx(f_star)

    def test_rejects_zero_direction(self):
        pool = random_pool(np.random.default_rng(1))
        with pytest.raises(ValueError):
            line_search(pool, np.zeros(3), np.zeros(3))


class TestMert:
    def test_already_optimal_unchanged(self):
        # single feature, single candidate: F constant, no step accepted
        pool = pool_from([[(np.array([1.0]), ScoreStats(1, 0, 0))]])
        w0 = np.array([2.0])
        assert np.array_equal(mert(pool, w0, iters=3, n_random=8, rng_seed=0), w0)

    def test_separable_instance_learns_positive_weight(self):
        # match_0 alone separates good from bad candidates
        good = ScoreStats(3, 0, 0)
        bad = ScoreStats(0, 3, 3)
        sentences = [
            [(np.array([1.0, 0.3]), good), (np.array([0.0, 0.7]), bad)],
            [(np.array([1.0, 0.1]), good), (np.array([0.0, 0.9]), bad)],
        ]
        pool = pool_from(sentences)
        w = mert(pool, np.array([0.0, 1.0]), iters=4, n_random=8, rng_seed=3)
        assert pool.corpus_f(w) == pytest.approx(1.0)
        # the tuned model must rank good candidates on top via feature 0
        assert w[0] * 1.0 + w[1] * 0.3 > w[0] * 0.0 + w[1] * 0.7

    def test_f_never_decreases(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pool = random_pool(rng)
            w0 = rng.normal(size=3)
            w = mert(pool, w0, iters=3, n_random=8, rng_seed=1)
            assert pool.corpus_f(w) >= pool.corpus_f(w0) - 1e-12

    def test_deterministic(self):
        pool = random_pool(np.random.default_rng(2))
        w1 = mert(pool, np.zeros(3), iters=2, n_random=8, rng_seed=7)
        w2 = mert(pool, np.zeros(3), iters=2, n_random=8, rng_seed=7)
        assert np.array_equal(w1, w2)


class TestScaleInvariance:
    def test_scaling_weights_preserves_decodes(self):
        lm = train_lm([tokenize("a b c"), tokenize("b c d")], order=2)
        hyps_rows = [
            [tokenize("a b c"), tokenize("a c")],
            [tokenize("b d"), tokenize("b c d")],
        ]
        spaces = [build_space(h, align_all(list(h))) for h in hyps_rows]
        w = np.array([0.9, 1.1, 0.2, 0.4])
        for c in (2.0, 7.5):
            assert decode_corpus(spaces, w, lm, 64) == decode_corpus(spaces, c * w, lm, 64)


class TestTuneLoop:
    def _toy_setup(self):
        sources = [tokenize("the cat sleep ."), tokenize("a dog run .")]
        golds = [
            GoldAnnotation(sources[0], ((Edit(2, 3, ("sleeps",)),),)),
            GoldAnnotation(sources[1], ((Edit(2, 3, ("runs",)),),)),
        ]
        hyps_rows = [
            [tokenize("the cat sleeps ."), tokenize("the cat sleep .")],
            [tokenize("a dog run ."), tokenize("a dog runs .")],
        ]
        lm = train_lm([tokenize("the cat sleeps ."), tokenize("a dog runs .")], order=2)
        spaces = [build_space(h, align_all(list(h))) for h in hyps_rows]
        schema = FeatureSchema(2)
        return Scorer(sources, golds), spaces, lm, schema

    @staticmethod
    def _tune(scorer, spaces, lm, schema, rounds):
        """``tune_loop`` seeded 4, with the beam, k-best size and MERT
        schedule that were its defaults."""
        return tune_loop(scorer, spaces, lm, schema.default_weights(), beam=64, k=50,
                         rounds=rounds, mert_iters=5, n_random=8, rng_seed=4)

    def test_single_round_equals_decode_then_mert(self):
        scorer, spaces, lm, schema = self._toy_setup()
        w1, pool1 = self._tune(scorer, spaces, lm, schema, 1)
        w2, _ = self._tune(scorer, spaces, lm, schema, 1)
        assert np.array_equal(w1, w2)
        assert pool1.size() > 0

    def test_pool_grows_monotonically(self):
        scorer, spaces, lm, schema = self._toy_setup()
        _, pool1 = self._tune(scorer, spaces, lm, schema, 1)
        _, pool3 = self._tune(scorer, spaces, lm, schema, 3)
        assert pool3.size() >= pool1.size()

    def test_tuned_combination_beats_components_on_dev(self):
        scorer, spaces, lm, schema = self._toy_setup()
        weights, _ = self._tune(scorer, spaces, lm, schema, 2)
        combined = decode_corpus(spaces, weights, lm, 64)
        # each sentence has one component with the right fix; the tuned
        # combination finds both
        total, _ = scorer.corpus(combined)
        f_combined = total.f05
        for sys_idx in range(2):
            comp_total, _ = scorer.corpus([space.hyps[sys_idx] for space in spaces])
            assert f_combined >= comp_total.f05

    def test_rejects_misaligned_inputs(self):
        scorer, spaces, lm, schema = self._toy_setup()
        one_sentence = Scorer(scorer.sources[:1], scorer.golds[:1])
        with pytest.raises(ValueError):
            tune_loop(one_sentence, spaces, lm, schema.default_weights(), setting("combine.beam"),
                      setting("combine.k"), setting("tune.rounds"), setting("tune.iters"),
                      setting("tune.random_dirs"), 0)


class TestKBestPool:
    def test_dedup_by_tokens(self):
        pool = KBestPool.empty(1)
        c1 = Candidate(("a",), (1.0,), ScoreStats(1, 0, 0))
        c2 = Candidate(("a",), (9.0,), ScoreStats(0, 9, 9))
        assert pool.add(0, c1)
        assert not pool.add(0, c2)
        assert pool.sentences[0][("a",)] is c1

    def test_corpus_f_uses_summed_stats(self):
        pool = KBestPool.empty(2)
        pool.add(0, Candidate(("x",), (1.0,), ScoreStats(1, 0, 1)))
        pool.add(1, Candidate(("y",), (1.0,), ScoreStats(1, 1, 0)))
        total = ScoreStats(2, 1, 1)
        assert pool.corpus_f(np.array([1.0])) == pytest.approx(total.f05)


class TestPoolMatrix:
    def test_matrix_tracks_adds_and_rejections(self):
        rng = np.random.default_rng(3)
        pool = KBestPool.empty(3)
        for step in range(200):
            i = int(rng.integers(0, 3))
            tokens = (f"w{int(rng.integers(0, 25))}",)  # repeats: rejected duplicates
            feats = tuple(rng.normal(size=4))
            before = [(pool.features(j), pool.stats(j)) for j in range(3)]
            grew = pool.add(i, Candidate(tokens, feats, ScoreStats(step, 0, 0)))
            assert grew == (pool.sentences[i][tokens].feats == feats)
            for j, slot in enumerate(pool.sentences):
                assert pool.features(j).tolist() == [list(c.feats) for c in slot.values()]
                assert pool.stats(j) == [c.stats for c in slot.values()]
                # derived once per add: the same objects until an add to j
                rebuilt = grew and j == i
                assert (pool.features(j) is before[j][0]) != rebuilt
                assert (pool.stats(j) is before[j][1]) != rebuilt

    def test_corpus_f_tie_goes_to_earliest_inserted(self):
        good, bad = ScoreStats(2, 0, 0), ScoreStats(0, 2, 2)
        for first, second in ((good, bad), (bad, good)):
            pool = KBestPool.empty(1)
            pool.add(0, Candidate(("a",), (1.0, 2.0), first))
            pool.add(0, Candidate(("b",), (2.0, 1.0), second))  # same score under w = (1, 1)
            assert pool.corpus_f(np.array([1.0, 1.0])) == first.f05

    def test_pools_built_alike_search_alike(self):
        def build(seed):
            return random_pool(np.random.default_rng(seed), n_sentences=4, n_cands=30, dim=5)

        rng = np.random.default_rng(8)
        w, d = rng.normal(size=5), rng.normal(size=5)
        first = build(12)
        want = line_search(first, w, d)
        want_w = mert(first, w, iters=2, n_random=8, rng_seed=5)
        del first
        for seed in (13, 12, 14, 12):  # new pools reuse the freed objects' ids
            pool = build(seed)
            if seed == 12:
                assert line_search(pool, w, d) == want
                assert np.array_equal(mert(pool, w, iters=2, n_random=8, rng_seed=5), want_w)
            del pool
