import time

import numpy as np
import pytest

from corrfuse.alignment import MAX_TOKENS, align_all
from corrfuse.combiner import (
    LM_EOS,
    LM_UNK,
    FeatureSchema,
    beam_search,
    build_space,
    build_spaces,
    extensions,
    format_weights,
    parse_weights,
    train_lm,
)
from corrfuse.textcore import tokenize

from defaults import setting

CORPUS = [
    tokenize("the cat sleeps ."),
    tokenize("a dog runs ."),
    tokenize("the cat runs today ."),
    tokenize("the dog sleeps ."),
]


@pytest.fixture(scope="module")
def lm():
    return train_lm(CORPUS, order=3)


def lm_types(corpus) -> set[str]:
    """The token types an LM trained on ``corpus`` distributes mass over."""
    return {w for sent in corpus for w in sent} | {LM_EOS, LM_UNK}


def make_space(hyps):
    hyps = [tuple(h) for h in hyps]
    return build_space(hyps, align_all(hyps))


def start_state(space, lm):
    """The packed state ``(used, out, lm_ctx, feats, score)`` with no word used."""
    return (0, (), lm.start_context(), (0.0,) * space.schema().dim, 0.0)


def exhaustive_best(space, weights, lm):
    """Oracle: recursively expand every action sequence, return the best
    (score, output) over all completed states."""
    best = [None]

    def recurse(state):
        succs, end = extensions(space, state, lm, weights)
        for s in succs:
            recurse(s)
        if end is not None:
            if best[0] is None or end[4] > best[0][0]:
                best[0] = (end[4], end[1])

    recurse(start_state(space, lm))
    assert best[0] is not None
    return best[0]


class TestNGramLM:
    def test_hand_counted_bigram(self):
        corpus = [tokenize("a b")]
        lm2 = train_lm(corpus, order=2)
        # after "a" the only observed continuation is "b"
        probs = {w: lm2.prob(w, ("a",)) for w in lm_types(corpus)}
        assert max(probs, key=probs.get) == "b"

    def test_unseen_token_scores_positive(self, lm):
        assert lm.prob("zebra", ("the",)) > 0.0

    def test_distributions_sum_to_one(self, lm):
        rng = np.random.default_rng(0)
        types = lm_types(CORPUS)
        words = sorted(types) + ["zzz"]
        for _ in range(25):
            ctx = tuple(rng.choice(words, size=rng.integers(0, 3)))
            total = sum(lm.prob(w, ctx) for w in types)
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
            assert space.packed == want.packed

    def test_word_table_checked_by_hand(self):
        space = make_space([tokenize("a b"), tokenize("b c")])
        # "b" aligns (0,1) <-> (1,0): emitting it consumes both and credits both
        # systems; each system's mask is a field of 3 bits, system 1's from bit 3
        b = ("b", 0b10 | 0b01 << 3, (1.0, 1.0, 1.0))
        assert space.packed == (
            (0, (("a", 0b01, (1.0, 0.0, 1.0)), b, None)),
            (3, (b, ("c", 0b10 << 3, (0.0, 1.0, 1.0)), None)),
        )

    def test_missing_alignment_rejected(self):
        h = [tokenize("a"), tokenize("b"), tokenize("c")]
        partial = {(0, 1): align_all(h)[(0, 1)]}
        with pytest.raises(ValueError):
            build_space(h, partial)


class TestExtensions:
    def test_identical_systems_collapse(self, lm):
        space = make_space([tokenize("a b")] * 3)
        weights = space.schema().default_weights()
        succs, end = extensions(space, start_state(space, lm), lm, weights)
        assert len(succs) == 1 and end is None
        used, out = succs[0][:2]
        assert out == ("a",)
        assert used == 1 | 1 << 3 | 1 << 6  # word 0 of each 3-bit field

    def test_disjoint_single_word_systems(self, lm):
        space = make_space([("a",), ("b",)])
        weights = space.schema().default_weights()
        succs, _ = extensions(space, start_state(space, lm), lm, weights)
        assert {s[1] for s in succs} == {("a",), ("b",)}

    def test_aligned_word_consumes_both_copies(self, lm):
        space = make_space([("a", "b"), ("b", "c")])
        weights = space.schema().default_weights()
        succs, _ = extensions(space, start_state(space, lm), lm, weights)
        emit_b = [s for s in succs if s[1] == ("b",)]
        assert emit_b  # system 1's frontier word is "b"
        used, _, _, feats, _ = emit_b[0]
        assert used == 0b10 | 0b01 << 3  # word 1 of system 0, word 0 of system 1
        # match features credited to both systems
        assert feats[0] == 1.0 and feats[1] == 1.0

    def test_end_action_requires_exhausted_system(self, lm):
        space = make_space([("a",), ("b",)])
        weights = space.schema().default_weights()
        succs, end = extensions(space, start_state(space, lm), lm, weights)
        assert end is None
        after_a = [s for s in succs if s[1] == ("a",)][0]
        assert extensions(space, after_a, lm, weights)[1] is not None

    def test_terminal_state_has_no_extensions(self, lm):
        space = make_space([("a",), ("a",)])
        weights = space.schema().default_weights()
        (after_a,), _ = extensions(space, start_state(space, lm), lm, weights)
        succs, end = extensions(space, after_a, lm, weights)
        assert succs == []
        assert end[:2] == after_a[:2]  # the end state emits nothing more


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
            beam_search(space, space.schema().default_weights(), lm, beam=0, k=setting("combine.k"))
        with pytest.raises(ValueError):
            beam_search(space, space.schema().default_weights(), lm, beam=setting("combine.beam"), k=0)


class TestWeightsIO:
    def test_round_trip(self):
        schema = FeatureSchema(3)
        weights = (1.5, -0.25, -0.0, 2.0, 0.125)
        text = format_weights(schema, weights)
        assert format_weights(schema, np.array(weights)) == text  # tuned weights are an array
        for copy in (text, text.replace("\n", "\r\n")):  # the CR LF copy parses the same
            parsed = parse_weights(copy, schema)
            assert type(parsed) is tuple and all(type(w) is float for w in parsed)
            assert [w.hex() for w in parsed] == [w.hex() for w in weights]

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            parse_weights(format_weights(FeatureSchema(2), np.zeros(4)), FeatureSchema(3))
