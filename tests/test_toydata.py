import numpy as np
import pytest

from oracles import oracle_generate_corpus

from corrfuse import toydata
from corrfuse.evaluation import GoldAnnotation, parse_m2, format_m2, score_sentence
from corrfuse.textcore import Edit, apply_edits, tokenize
from corrfuse.toydata import (
    DEFAULT_GRAMMAR,
    DEFAULT_RULES,
    RULE_KINDS,
    CorruptionRule,
    CorpusExample,
    Grammar,
    generate_corpus,
    parse_grammar,
    sample_sentence,
)


def rules_with(kind_probs):
    return tuple(CorruptionRule(k, p) for k, p in kind_probs.items())


class TestGrammar:
    def test_vocabulary_bounded(self):
        vocab = DEFAULT_GRAMMAR.vocabulary()
        assert 0 < len(vocab) <= 200
        assert len(set(vocab)) == len(vocab)

    def test_sampled_sentences_use_lexicon(self):
        vocab = set(DEFAULT_GRAMMAR.vocabulary())
        rng = np.random.default_rng(0)
        for _ in range(100):
            sent = sample_sentence(rng, DEFAULT_GRAMMAR)
            assert sent[-1] == "."
            assert set(sent) <= vocab
            assert 3 <= len(sent) <= 10

    def test_parse_grammar_round_trip_style(self):
        text = """
        # tiny grammar
        det the
        det a
        noun cat cats
        noun dog dogs
        verbi runs run
        verbt sees see
        adj big
        prep in
        prep on
        adv now
        """
        g = parse_grammar(text)
        assert g.determiners == ("the", "a")
        assert g.nouns == (("cat", "cats"), ("dog", "dogs"))

    def test_parse_grammar_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            parse_grammar("nou cat cats")
        with pytest.raises(ValueError):
            parse_grammar("noun cat")
        with pytest.raises(ValueError):
            parse_grammar("det the")  # missing required classes


class TestGenerateCorpus:
    def test_zero_probabilities_no_errors(self):
        rules = rules_with({k: 0.0 for k in ("drop_determiner", "token_duplicate")})
        examples = generate_corpus(1, 50, rules, rng_seed=2)
        for ex in examples:
            assert ex.source == ex.reference
            assert ex.gold_edits == ()
            assert ex.applied == ()

    def test_drop_determiner_inverse_edit(self):
        rules = rules_with({"drop_determiner": 1.0})
        examples = generate_corpus(3, 80, rules, rng_seed=5)
        dropped = [ex for ex in examples if ex.applied]
        assert dropped
        for ex in dropped:
            assert len(ex.source) == len(ex.reference) - 1
            (edit,) = ex.gold_edits
            assert edit.kind == "insert"
            assert edit.replacement[0] in DEFAULT_GRAMMAR.determiners

    def test_duplicate_token_inverse_edit(self):
        rules = rules_with({"token_duplicate": 1.0})
        examples = generate_corpus(4, 40, rules, rng_seed=6)
        for ex in examples:
            assert ex.applied == ("token_duplicate",)
            assert len(ex.source) == len(ex.reference) + 1
            (edit,) = ex.gold_edits
            assert edit.kind == "delete"

    def test_determinism(self):
        a = generate_corpus(7, 30, rng_seed=9)
        b = generate_corpus(7, 30, rng_seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_corpus(7, 30, rng_seed=9)
        b = generate_corpus(8, 30, rng_seed=10)
        assert a != b

    def test_gold_edits_reproduce_reference(self):
        examples = generate_corpus(11, 300, rng_seed=12)
        corrupted = 0
        for ex in examples:
            assert apply_edits(ex.source, ex.gold_edits) == ex.reference
            corrupted += bool(ex.gold_edits)
        assert corrupted > 100  # defaults actually corrupt

    def test_perfect_hypothesis_scores_all_tp(self):
        examples = generate_corpus(13, 100, rng_seed=14)
        for ex in examples:
            gold = GoldAnnotation(ex.source, (ex.gold_edits,))
            stats = score_sentence(ex.source, ex.reference, gold)
            assert stats.fp == 0 and stats.fn == 0
            assert stats.tp == len(ex.gold_edits)

    def test_rule_rates_within_binomial_bounds(self):
        p = 0.3
        rules = rules_with({"noun_number_swap": p})
        examples = generate_corpus(15, 12_000, rules, rng_seed=16)
        eligible = [ex for ex in examples if "noun_number_swap" in ex.eligible]
        applied = sum(1 for ex in eligible if ex.applied)
        n = len(eligible)
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(applied - n * p) <= 3 * sigma

    def test_rejects_zero_sentences(self):
        with pytest.raises(ValueError):
            generate_corpus(1, 0)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            CorruptionRule("spellcheck", 0.5)

    def test_m2_round_trip_for_generated_gold(self):
        examples = generate_corpus(17, 50, rng_seed=18)
        annotations = [GoldAnnotation(ex.source, (ex.gold_edits,)) for ex in examples]
        parsed = parse_m2(format_m2(annotations))
        assert parsed == annotations


ONE_PREPOSITION = parse_grammar(
    "det the\ndet a\nnoun cat cats\nnoun dog dogs\nverbi runs run\nverbt sees see\nadj big\nprep in\n"
)
ORACLE_RULE_SETS = {
    "default": DEFAULT_RULES,
    "all_zero": tuple(CorruptionRule(kind, 0.0) for kind in RULE_KINDS),
    "one_kind": (CorruptionRule("preposition_swap", 0.9),),
    "none": (),
}
EVICTING_SENTENCES = 1500  # more references than the generator keeps


class TestGenerateCorpusOracle:
    """``generate_corpus`` equals the per-sentence oracle, which draws every
    reference and corruption stream afresh, example for example."""

    @pytest.mark.parametrize("rules", ORACLE_RULE_SETS.values(), ids=ORACLE_RULE_SETS)
    def test_grammars_at_equal_grammar_seeds(self, rules):
        # the same seed and index under another grammar is another reference
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION, DEFAULT_GRAMMAR):
            for grammar_seed, rng_seed in ((21, 3), (22, 3), (21, 4)):
                expected = oracle_generate_corpus(grammar_seed, 60, rules, rng_seed, grammar)
                assert generate_corpus(grammar_seed, 60, rules, rng_seed, grammar) == expected

    @pytest.mark.parametrize("rules", ORACLE_RULE_SETS.values(), ids=ORACLE_RULE_SETS)
    def test_warm_after_other_rules_and_seeds(self, rules):
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION):
            generate_corpus(31, 80, ORACLE_RULE_SETS["one_kind"], 7, grammar)
            generate_corpus(32, 40, DEFAULT_RULES, 8, grammar)
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION):
            assert generate_corpus(31, 50, rules, 9, grammar) == oracle_generate_corpus(31, 50, rules, 9, grammar)

    def test_more_references_than_the_cache_holds(self):
        expected = oracle_generate_corpus(41, EVICTING_SENTENCES, DEFAULT_RULES, 5)
        assert generate_corpus(41, EVICTING_SENTENCES, DEFAULT_RULES, 5) == expected
        assert generate_corpus(41, EVICTING_SENTENCES, DEFAULT_RULES, 5) == expected
        assert generate_corpus(41, 40, DEFAULT_RULES, 5) == expected[:40]


def test_eviction_case_exceeds_the_reference_cache():
    assert EVICTING_SENTENCES > toydata._REFERENCE_CACHE_SIZE


def test_a_call_past_the_cache_size_keeps_at_most_the_cache_size():
    generate_corpus(42, EVICTING_SENTENCES, (), 0)
    assert len(toydata._last_references[2]) == toydata._REFERENCE_CACHE_SIZE
    generate_corpus(43, 10, DEFAULT_RULES, 5)
    assert len(toydata._last_references[2]) == 10


SPAWN_ENTROPIES = (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**160 + 3)
SPAWN_KEYS = (0, 1, 1023, 2**31, 2**32 - 1)


class TestSpawnedStreams:
    """The batch derivation against NumPy's own ``SeedSequence`` children."""

    @pytest.mark.parametrize("entropy", SPAWN_ENTROPIES)
    def test_states_equal_numpys(self, entropy):
        words = toydata._spawn_words(entropy, np.array(SPAWN_KEYS, dtype=np.uint32))
        assert words.shape == (len(SPAWN_KEYS), 4) and words.nbytes == 32 * len(SPAWN_KEYS)
        bit_generator = np.random.PCG64(0)
        for key, row in zip(SPAWN_KEYS, words):
            toydata._reseed(bit_generator, row)
            expected = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(key,)))
            assert bit_generator.state == expected.state, (entropy, key)

    def test_a_reseeded_generator_draws_as_a_fresh_one(self):
        def draws(rng):
            return [(rng.random(), int(rng.integers(k))) for k in (2, 5, 4, 1000, 2**40)]

        shared = np.random.Generator(np.random.PCG64(0))
        for entropy in SPAWN_ENTROPIES:
            words = toydata._spawn_words(entropy, np.array(SPAWN_KEYS, dtype=np.uint32))
            for key, row in zip(SPAWN_KEYS, words):
                shared.integers(5)  # leaves half of a 64-bit draw buffered
                toydata._reseed(shared.bit_generator, row)
                fresh = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(key,)))
                assert draws(shared) == draws(fresh), (entropy, key)

    def test_negative_entropy_raises_as_numpy_does(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError) as derived_error:
            toydata._spawn_words(-1, np.arange(3, dtype=np.uint32))
        assert str(derived_error.value) == str(numpy_error.value)
        for grammar_seed, rng_seed in ((-1, 1), (-2**40, 1), (44, -1)):
            with pytest.raises(ValueError, match=str(numpy_error.value)):
                generate_corpus(grammar_seed, 3, DEFAULT_RULES, rng_seed)


@pytest.fixture
def seed_sequences_built(monkeypatch):
    """Counts the ``SeedSequence`` objects built through ``np.random``."""
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return built


def test_a_call_builds_no_seed_sequence_per_sentence(seed_sequences_built):
    examples = generate_corpus(45, 300, DEFAULT_RULES, 6)  # no reference cached
    assert len(seed_sequences_built) <= 2  # one per stream, not 600
    assert examples == oracle_generate_corpus(45, 300, DEFAULT_RULES, 6)


def test_a_call_hashes_its_grammar_once(monkeypatch):
    grammar = parse_grammar("det the\nnoun cat cats\nverbi runs run\nverbt sees see\nprep in\nprep on\n")
    hashes = []
    monkeypatch.setattr(Grammar, "__hash__", lambda g: hashes.append(g) or hash(g.nouns))
    for rng_seed in (7, 8):
        generate_corpus(46, 300, DEFAULT_RULES, rng_seed, grammar)
        assert len(hashes) <= 1
        hashes.clear()


def test_more_sentences_than_spawn_keys_raise_before_any_draw(seed_sequences_built):
    cached = toydata._last_references
    with pytest.raises(ValueError, match="at most 4294967296 sentences"):
        generate_corpus(47, 2**32 + 1)
    assert seed_sequences_built == [] and toydata._last_references is cached


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x0c", "\x1c"])
def test_grammar_separator_inside_a_line_reads_as_a_space(separator):
    text = "det the\nnoun cat{} cats\nverbi runs run\nverbt sees see\nprep in\n"
    assert parse_grammar(text.format(separator)) == parse_grammar(text.format(" "))
    with pytest.raises(ValueError, match="line 2:"):
        parse_grammar(f"det the{separator}\nnou cat cats\n")
