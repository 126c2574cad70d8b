import itertools

import numpy as np
import pytest

from oracles import oracle_generate_corpus

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

    def test_gold_edits_are_read_from_source_and_reference(self):
        example = CorpusExample(("cat", "runs", "."), ("the", "cat", "runs", "."), ("drop_determiner",), ())
        assert example.gold_edits == (Edit(0, 0, ("the",)),)
        assert "gold_edits" not in CorpusExample._fields
        assert example == CorpusExample(example.source, example.reference, example.applied, example.eligible)

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


class TestGenerateCorpusOracle:
    """``generate_corpus`` equals the sequential oracle, which draws the
    references of every pass from a fresh generator, example for example."""

    @pytest.mark.parametrize("rules", ORACLE_RULE_SETS.values(), ids=ORACLE_RULE_SETS)
    def test_grammars_at_equal_grammar_seeds(self, rules):
        # the same seed and index under another grammar is another reference
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION, DEFAULT_GRAMMAR):
            for grammar_seed, rng_seed, passes in itertools.product((21, 22), (3, 4), (1, 3)):
                expected = oracle_generate_corpus(grammar_seed, 60, rules, rng_seed, grammar, passes)
                assert generate_corpus(grammar_seed, 60, rules, rng_seed, grammar, passes) == expected

    @pytest.mark.parametrize("rules", ORACLE_RULE_SETS.values(), ids=ORACLE_RULE_SETS)
    def test_warm_after_other_rules_and_seeds(self, rules):
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION):
            generate_corpus(31, 80, ORACLE_RULE_SETS["one_kind"], 7, grammar)
            generate_corpus(32, 40, DEFAULT_RULES, 8, grammar)
        for grammar in (DEFAULT_GRAMMAR, ONE_PREPOSITION):
            assert generate_corpus(31, 50, rules, 9, grammar) == oracle_generate_corpus(31, 50, rules, 9, grammar)


@pytest.mark.parametrize("rules", ORACLE_RULE_SETS.values(), ids=ORACLE_RULE_SETS)
def test_a_shorter_corpus_is_a_prefix_of_a_longer_one(rules):
    longer = generate_corpus(41, 300, rules, 5)
    for n in (1, 40, 299):
        assert generate_corpus(41, n, rules, 5) == longer[:n]


def test_a_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(-1)
    for grammar_seed, rng_seed in ((-1, 1), (-2**40, 1), (44, -1)):
        with pytest.raises(ValueError, match=str(numpy_error.value)):
            generate_corpus(grammar_seed, 3, DEFAULT_RULES, rng_seed)


def test_a_call_hashes_its_grammar_once(monkeypatch):
    grammar = parse_grammar("det the\nnoun cat cats\nverbi runs run\nverbt sees see\nprep in\nprep on\n")
    hashes = []
    monkeypatch.setattr(Grammar, "__hash__", lambda g: hashes.append(g) or hash(g.nouns))
    for rng_seed in (7, 8):
        generate_corpus(46, 300, DEFAULT_RULES, rng_seed, grammar)
        assert len(hashes) <= 1
        hashes.clear()


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x0c", "\x1c"])
def test_grammar_separator_inside_a_line_reads_as_a_space(separator):
    text = "det the\nnoun cat{} cats\nverbi runs run\nverbt sees see\nprep in\n"
    assert parse_grammar(text.format(separator)) == parse_grammar(text.format(" "))
    with pytest.raises(ValueError, match="line 2:"):
        parse_grammar(f"det the{separator}\nnou cat cats\n")
