import time

import numpy as np
import pytest

from corrfuse.alignment import MAX_TOKENS, align_all
from corrfuse.combiner import (
    LM_EOS,
    FeatureSchema,
    beam_search,
    build_space,
    build_spaces,
    extensions,
    initial_state,
    load_weights,
    save_weights,
    train_lm,
)
from corrfuse.textcore import tokenize

CORPUS = [
    tokenize("the cat sleeps ."),
    tokenize("a dog runs ."),
    tokenize("the cat runs today ."),
    tokenize("the dog sleeps ."),
]


@pytest.fixture(scope="module")
def lm():
    return train_lm(CORPUS, order=3)


def make_space(hyps):
    hyps = [tuple(h) for h in hyps]
    return build_space(hyps, align_all(hyps))


def exhaustive_best(space, weights, lm):
    """Oracle: recursively expand every action sequence, return the best
    (score, output) over all completed states."""
    best = [None]

    def recurse(state):
        succs = extensions(space, state, lm, weights)
        for s in succs:
            if s.done:
                key = (s.score, s.out)
                if best[0] is None or s.score > best[0][0]:
                    best[0] = key
            else:
                recurse(s)

    recurse(initial_state(space, lm))
    assert best[0] is not None
    return best[0]


class TestNGramLM:
    def test_hand_counted_bigram(self):
        lm2 = train_lm([tokenize("a b")], order=2)
        # after "a" the only observed continuation is "b"
        probs = {w: lm2.prob(w, ("a",)) for w in lm2.vocabulary}
        assert max(probs, key=probs.get) == "b"

    def test_unseen_token_scores_positive(self, lm):
        assert lm.prob("zebra", ("the",)) > 0.0

    def test_distributions_sum_to_one(self, lm):
        rng = np.random.default_rng(0)
        words = sorted(lm.vocabulary) + ["zzz"]
        for _ in range(25):
            ctx = tuple(rng.choice(words, size=rng.integers(0, 3)))
            total = sum(lm.prob(w, ctx) for w in lm.vocabulary)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_seen_ngram_beats_backoff(self, lm):
        assert lm.prob("sleeps", ("the", "cat")) > lm.prob("runs", ("a", "sleeps"))

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train_lm([], order=2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            train_lm(CORPUS, order=0)


class TestBuildSpace:
    def test_identical_hypotheses_full_groups(self):
        h = tokenize("a b c")
        space = make_space([h, h, h])
        for row in space.groups:
            for group in row:
                assert len(group) == 3

    def test_disjoint_hypotheses_singleton_groups(self):
        space = make_space([tokenize("a b"), tokenize("x y")])
        for row in space.groups:
            for group in row:
                assert len(group) == 1

    def test_mixed_case_groups_checked_by_hand(self):
        space = make_space([tokenize("a b"), tokenize("b c")])
        # only "b" aligns: (0,1) <-> (1,0)
        assert space.groups[0][0] == frozenset({(0, 0)})
        assert space.groups[0][1] == frozenset({(0, 1), (1, 0)})
        assert space.groups[1][0] == frozenset({(0, 1), (1, 0)})
        assert space.groups[1][1] == frozenset({(1, 1)})

    def test_build_spaces_aligns_each_sentence(self):
        hyp_lines = [
            [tokenize("the cat runs ."), tokenize("a dog")],
            [tokenize("the cats run ."), tokenize("a dog .")],
            [tokenize("The cat running"), tokenize("dog")],
        ]
        spaces = build_spaces(hyp_lines)
        assert len(spaces) == 2
        for i, space in enumerate(spaces):
            want = make_space([lines[i] for lines in hyp_lines])
            assert space == want
            assert space.words == want.words

    def test_word_table_checked_by_hand(self):
        space = make_space([tokenize("a b"), tokenize("b c")])
        # "b" aligns (0,1) <-> (1,0): emitting it consumes both and credits both systems
        assert space.words[0][0] == ("a", (0b01, 0b00), (1.0, 0.0, 1.0))
        assert space.words[0][1] == ("b", (0b10, 0b01), (1.0, 1.0, 1.0))
        assert space.words[1][0] == ("b", (0b10, 0b01), (1.0, 1.0, 1.0))
        assert space.words[1][1] == ("c", (0b00, 0b10), (0.0, 1.0, 1.0))

    def test_missing_alignment_rejected(self):
        h = [tokenize("a"), tokenize("b"), tokenize("c")]
        partial = {(0, 1): align_all(h)[(0, 1)]}
        with pytest.raises(ValueError):
            build_space(h, partial)


class TestExtensions:
    def test_identical_systems_collapse(self, lm):
        space = make_space([tokenize("a b")] * 3)
        weights = space.schema().default_weights()
        succs = extensions(space, initial_state(space, lm), lm, weights)
        assert len(succs) == 1
        assert succs[0].out == ("a",)
        assert succs[0].used == (1, 1, 1)

    def test_disjoint_single_word_systems(self, lm):
        space = make_space([("a",), ("b",)])
        weights = space.schema().default_weights()
        succs = extensions(space, initial_state(space, lm), lm, weights)
        assert {s.out for s in succs if not s.done} == {("a",), ("b",)}

    def test_aligned_word_consumes_both_copies(self, lm):
        space = make_space([("a", "b"), ("b", "c")])
        weights = space.schema().default_weights()
        start = initial_state(space, lm)
        emit_b = [
            s
            for s in extensions(space, start, lm, weights)
            if not s.done and s.out == ("b",)
        ]
        assert emit_b  # system 1's frontier word is "b"
        assert emit_b[0].used == (0b10, 0b01)
        # match features credited to both systems
        assert emit_b[0].feats[0] == 1.0 and emit_b[0].feats[1] == 1.0

    def test_end_action_requires_exhausted_system(self, lm):
        space = make_space([("a",), ("b",)])
        weights = space.schema().default_weights()
        start = initial_state(space, lm)
        assert not any(s.done for s in extensions(space, start, lm, weights))
        after_a = [s for s in extensions(space, start, lm, weights) if s.out == ("a",)][0]
        assert any(s.done for s in extensions(space, after_a, lm, weights))

    def test_terminal_state_has_no_extensions(self, lm):
        space = make_space([("a",), ("a",)])
        weights = space.schema().default_weights()
        start = initial_state(space, lm)
        done = [s for s in extensions(space, start, lm, weights) if not s.done][0]
        final = [s for s in extensions(space, done, lm, weights) if s.done][0]
        assert extensions(space, final, lm, weights) == []


class TestBeamSearch:
    def test_identical_inputs_idempotent(self, lm):
        sentence = tokenize("the cat sleeps .")
        space = make_space([sentence] * 3)
        for weights in [
            space.schema().default_weights(),
            np.array([2.0, 1.0, 0.5, 0.1, 0.9]),
        ]:
            result = beam_search(space, weights, lm, beam=8, k=3)
            assert result[0][0] == sentence

    def test_zero_weights_deterministic_tie_break(self, lm):
        space = make_space([("a", "b"), ("b", "a")])
        weights = np.zeros(space.schema().dim)
        first = beam_search(space, weights, lm, beam=None, k=50)
        # all completed outputs score 0; ranking is lexicographic
        outs = [tokens for tokens, _, _ in first]
        assert outs == sorted(outs)
        assert all(score == 0.0 for _, _, score in first)

    def test_longest_unaligned_inputs_finish_in_bounded_time(self, lm):
        # nothing aligns: every state has four successors on each of the
        # 4 * MAX_TOKENS levels, and the unknown words tie in the LM
        hyps = [tuple(f"w{s}_{i}" for i in range(MAX_TOKENS)) for s in range(4)]
        space = make_space(hyps)
        start = time.perf_counter()
        result = beam_search(space, space.schema().default_weights(), lm, beam=64, k=50)
        assert time.perf_counter() - start < 2.0
        assert len(result) == 50

    def test_score_additivity(self, lm):
        space = make_space([tokenize("the cat runs ."), tokenize("the dog sleeps .")])
        weights = np.array([1.0, 1.2, 0.3, 0.4])
        for tokens, feats, score in beam_search(space, weights, lm, beam=16, k=20):
            assert score == pytest.approx(float(np.dot(weights, feats)), abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_unbounded_beam_matches_exhaustive(self, lm, seed):
        rng = np.random.default_rng(seed)
        vocab = ["the", "cat", "dog", "runs", "sleeps", "."]
        n_sys = int(rng.integers(2, 4))
        hyps = [
            tuple(rng.choice(vocab, size=rng.integers(1, 6))) for _ in range(n_sys)
        ]
        space = make_space(hyps)
        weights = rng.normal(size=space.schema().dim)
        best = beam_search(space, weights, lm, beam=None, k=1)[0]
        oracle_score, _ = exhaustive_best(space, tuple(weights), lm)
        assert best[2] == pytest.approx(oracle_score, abs=1e-9)

    def test_monotone_consumption_terminates(self, lm):
        # long-ish repeated hypotheses exercise the level loop bound
        h1 = tokenize("the the the cat cat sleeps .")
        h2 = tokenize("the cat cat sleeps sleeps . .")
        space = make_space([h1, h2])
        result = beam_search(space, space.schema().default_weights(), lm, beam=8, k=5)
        assert result  # completed despite repeated tokens

    def test_rejects_bad_beam_and_k(self, lm):
        space = make_space([("a",), ("b",)])
        with pytest.raises(ValueError):
            beam_search(space, space.schema().default_weights(), lm, beam=0)
        with pytest.raises(ValueError):
            beam_search(space, space.schema().default_weights(), lm, k=0)


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        schema = FeatureSchema(3)
        weights = np.array([1.5, -0.25, 0.0, 2.0, 0.125])
        path = str(tmp_path / "w.tsv")
        save_weights(schema, weights, path)
        assert np.array_equal(load_weights(path, schema), weights)

    def test_rejects_name_mismatch(self, tmp_path):
        path = str(tmp_path / "w.tsv")
        save_weights(FeatureSchema(2), np.zeros(4), path)
        with pytest.raises(ValueError):
            load_weights(path, FeatureSchema(3))
