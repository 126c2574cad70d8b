import math

import numpy as np
import pytest
import scipy.stats

from corrfuse.evaluation import (
    GoldAnnotation,
    ScoreStats,
    bleu,
    compare_outputs,
    diversity,
    f05,
    format_m2,
    parse_m2,
    Scorer,
    score_sentence,
    sign_test_bootstrap,
)
from corrfuse.textcore import Edit, tokenize

from defaults import setting


class TestFBeta:
    def test_published_component_row(self):
        # component system scored 75.19 / 51.91 / 69.00
        assert 100 * f05(7519, 2481, 6966) == pytest.approx(69.00, abs=0.05)

    def test_published_component_row_one_decimal(self):
        # 72.1 / 61.8 / 69.8
        assert 100 * f05(721, 279, 446) == pytest.approx(69.8, abs=0.05)

    def test_equal_pr_is_fixed_point(self):
        for tp, fp in ((1, 9), (7, 13), (9, 1)):
            assert f05(tp, fp, fp) == pytest.approx(tp / (tp + fp))

    def test_perfect_noop_convention(self):
        assert f05(0, 0, 0) == 1.0

    def test_degenerate_zero(self):
        assert f05(0, 0, 3) == 0.0
        assert f05(0, 2, 0) == 0.0

    def test_monotonicity_grid(self):
        for tp in range(0, 5):
            for fp in range(0, 5):
                for fn in range(0, 5):
                    if tp + fp + fn == 0:
                        continue
                    base = f05(tp, fp, fn)
                    assert f05(tp + 1, fp, fn) >= base
                    assert f05(tp, fp + 1, fn) <= base
                    assert f05(tp, fp, fn + 1) <= base


class TestScoreStats:
    def test_addition(self):
        assert ScoreStats(1, 2, 3) + ScoreStats(4, 5, 6) == ScoreStats(5, 7, 9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreStats(-1, 0, 0)

    def test_corpus_f_is_f_of_sums_not_mean_of_f(self):
        rng = np.random.default_rng(0)
        stats = [
            ScoreStats(int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            for _ in range(30)
        ]
        total = ScoreStats()
        for s in stats:
            total = total + s
        f_sum = total.f05
        f_mean = sum(s.f05 for s in stats) / len(stats)
        assert f_sum == f05(total.tp, total.fp, total.fn)
        assert f_sum != pytest.approx(f_mean)  # the two aggregations genuinely differ


class TestScoreSentence:
    def test_exact_match_all_tp(self):
        source = tokenize("He go home")
        gold_edits = (Edit(1, 2, ("goes",)), Edit(3, 3, (".",)))
        gold = GoldAnnotation(source, (gold_edits,))
        hyp = tokenize("He goes home .")
        assert score_sentence(source, hyp, gold) == ScoreStats(2, 0, 0)

    def test_noop_hypothesis_all_fn(self):
        source = tokenize("He go home now yes")
        gold = GoldAnnotation(
            source, ((Edit(0, 1, ("She",)), Edit(2, 3, ("out",)), Edit(4, 5, ("no",))),)
        )
        assert score_sentence(source, source, gold) == ScoreStats(0, 0, 3)

    def test_mixed_tp_fp(self):
        source = tokenize("He go home")
        gold = GoldAnnotation(source, ((Edit(1, 2, ("goes",)),),))
        hyp = tokenize("He goes home .")
        # hand enumeration: hypothesis edits are [1,2)->goes (TP) and [3,3)->. (FP)
        assert score_sentence(source, hyp, gold) == ScoreStats(1, 1, 0)

    def test_perfect_noop(self):
        source = tokenize("all fine here")
        gold = GoldAnnotation(source, ((),))
        assert score_sentence(source, source, gold) == ScoreStats(0, 0, 0)

    def test_best_annotator_wins(self):
        source = tokenize("He go home")
        ann0 = (Edit(0, 1, ("She",)),)
        ann1 = (Edit(1, 2, ("goes",)),)
        gold = GoldAnnotation(source, (ann0, ann1))
        hyp = tokenize("He goes home")
        # annotator 1 yields tp=1 fp=0 fn=0; annotator 0 yields 0/1/1
        assert score_sentence(source, hyp, gold) == ScoreStats(1, 0, 0)

    def test_annotator_tie_goes_to_lowest_index(self):
        source = tokenize("a b")
        ann0 = (Edit(0, 1, ("x",)),)
        ann1 = (Edit(1, 2, ("y",)),)
        gold = GoldAnnotation(source, (ann0, ann1))
        # hypothesis matches neither: both annotators give 0/0/... -> same F
        stats = score_sentence(source, source, gold)
        assert stats == ScoreStats(0, 0, 1)

    def test_rejects_mismatched_source(self):
        gold = GoldAnnotation(tokenize("a b"), ((),))
        with pytest.raises(ValueError):
            score_sentence(tokenize("a c"), tokenize("a c"), gold)


class TestScorer:
    def _split(self):
        """Sentences 0 and 2 are equal (source and gold), sentence 1 differs."""
        source = tokenize("He go home")
        gold = GoldAnnotation(source, ((Edit(1, 2, ("goes",)),),))
        other = tokenize("all fine here")
        return [source, other, source], [gold, GoldAnnotation(other, ((),)), gold]

    def test_corpus_is_score_sentence_per_line_and_their_sum(self):
        sources, golds = self._split()
        hyps = [tokenize("He goes home ."), tokenize("all fine here"), sources[2]]
        total, per = Scorer(sources, golds).corpus(hyps)
        assert per == [score_sentence(s, h, g) for s, h, g in zip(sources, hyps, golds)]
        assert total == ScoreStats(1, 1, 1)

    def test_rejects_misaligned_lines(self):
        sources, golds = self._split()
        with pytest.raises(ValueError):
            Scorer(sources[:2], golds)
        with pytest.raises(ValueError):
            Scorer(sources, golds).corpus(sources[:2])


def manual_bleu(hyp, ref, max_n=4):
    """Independent oracle: direct n-gram counting, no shared helpers."""
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        clipped = 0
        for g in set(hyp_ngrams):
            clipped += min(hyp_ngrams.count(g), ref_ngrams.count(g))
        if n == 1:
            if clipped == 0:
                return 0.0
            p = clipped / len(hyp_ngrams)
        else:
            p = (clipped + 1) / (len(hyp_ngrams) + 1)
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1 - len(ref) / len(hyp)))
    return bp * math.exp(log_sum / max_n)


class TestBleu:
    def test_identity_is_exactly_one(self):
        x = tokenize("the cat sat on the mat")
        assert bleu(x, x) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert bleu(tokenize("a b c"), tokenize("x y z")) == 0.0

    def test_empty_hyp_is_zero(self):
        assert bleu((), tokenize("a b")) == 0.0

    def test_hand_computed_value(self):
        hyp, ref = ("a", "b", "c", "d"), ("a", "b", "c", "e")
        # precisions: 3/4, (2+1)/(3+1), (1+1)/(2+1), (0+1)/(1+1); BP = 1
        expected = (0.75 * 0.75 * (2 / 3) * 0.5) ** 0.25
        assert bleu(hyp, ref) == pytest.approx(expected)
        assert bleu(hyp, ref) == pytest.approx(manual_bleu(hyp, ref))

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(3)
        vocab = list("abcdef")
        for _ in range(200):
            hyp = tuple(rng.choice(vocab, size=rng.integers(0, 8)))
            ref = tuple(rng.choice(vocab, size=rng.integers(1, 8)))
            assert bleu(hyp, ref) == pytest.approx(manual_bleu(hyp, ref))
            assert 0.0 <= bleu(hyp, ref) <= 1.0

    def test_invariant_under_token_renaming(self):
        rng = np.random.default_rng(4)
        vocab = list("abcdef")
        renamed = {v: f"tok{i}" for i, v in enumerate(vocab)}
        for _ in range(50):
            hyp = tuple(rng.choice(vocab, size=rng.integers(1, 8)))
            ref = tuple(rng.choice(vocab, size=rng.integers(1, 8)))
            hyp2 = tuple(renamed[t] for t in hyp)
            ref2 = tuple(renamed[t] for t in ref)
            assert bleu(hyp, ref) == pytest.approx(bleu(hyp2, ref2))

    def test_brevity_penalty_direction(self):
        ref = tokenize("a b c d e f")
        short = tokenize("a b c")
        assert bleu(short, ref) < bleu(ref, ref)


class TestDiversity:
    def test_identical_lists(self):
        outs = [tokenize("the cat sleeps ."), tokenize("a dog runs .")]
        assert diversity(outs, outs) == pytest.approx(0.0)

    def test_disjoint_vocabulary(self):
        a = [tokenize("a b c d")]
        b = [tokenize("x y z w")]
        assert diversity(a, b) == pytest.approx(1.0)

    def test_three_sentence_value_from_oracle(self):
        a = [tokenize("the cat sleeps ."), tokenize("a dog runs ."), tokenize("birds sing")]
        b = [tokenize("the cat sleeps ."), tokenize("a cat runs ."), tokenize("dogs bark")]
        expected = 1.0 - np.mean(
            [0.5 * (manual_bleu(x, y) + manual_bleu(y, x)) for x, y in zip(a, b)]
        )
        assert diversity(a, b) == pytest.approx(expected)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            diversity([tokenize("a")], [])


def oracle_sign_test_bootstrap(outcomes, resamples, seed):
    """Independent scripted implementation using scipy's binomial tail."""
    rng = np.random.default_rng(seed)
    n = len(outcomes)
    ps = []
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        n_a = sum(1 for i in idx if outcomes[i] == "A")
        n_b = sum(1 for i in idx if outcomes[i] == "B")
        if n_a + n_b == 0:
            ps.append(1.0)
        else:
            ps.append(float(scipy.stats.binom.sf(n_a - 1, n_a + n_b, 0.5)))
    return float(np.mean(ps))


class TestSignTest:
    def test_unanimous_a(self):
        assert sign_test_bootstrap(["A"] * 50, resamples=100, rng_seed=0) < 0.01

    def test_all_ties(self):
        assert sign_test_bootstrap(["tie"] * 20, resamples=100, rng_seed=0) == 1.0

    def test_matches_independent_oracle(self):
        outcomes = ["A"] * 60 + ["B"] * 40
        ours = sign_test_bootstrap(outcomes, resamples=100, rng_seed=11)
        theirs = oracle_sign_test_bootstrap(outcomes, resamples=100, seed=11)
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_deterministic_given_seed(self):
        outcomes = ["A", "B", "tie"] * 10
        assert sign_test_bootstrap(outcomes, 100, 5) == sign_test_bootstrap(outcomes, 100, 5)

    def test_rejects_empty_and_bad_values(self):
        with pytest.raises(ValueError):
            sign_test_bootstrap([], setting("eval.resamples"), 0)
        with pytest.raises(ValueError):
            sign_test_bootstrap(["A", "maybe"], setting("eval.resamples"), 0)


class TestM2Format:
    def test_round_trip(self):
        source = tokenize("He go home")
        ann = GoldAnnotation(source, ((Edit(1, 2, ("goes",)), Edit(3, 3, (".",))), ()))
        text = format_m2([ann])
        parsed = parse_m2(text)
        assert parsed == [ann]

    def test_parses_deletion_and_noop(self):
        text = (
            "S the the cat sleeps .\n"
            "A 0 1|||Det||||||REQUIRED|||-NONE-|||0\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n"
        )
        (ann,) = parse_m2(text)
        assert ann.annotators == ((Edit(0, 1, ()),), ())

    def test_rejects_edit_before_source(self):
        with pytest.raises(ValueError):
            parse_m2("A 0 1|||x|||y|||REQUIRED|||-NONE-|||0\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_m2("S a b\nnot a valid line\n")

    def test_corpus_round_trip_scoring(self):
        source = tokenize("the the cat sleeps")
        gold = GoldAnnotation(source, ((Edit(0, 1, ()),),))
        parsed = parse_m2(format_m2([gold]))
        hyp = tokenize("the cat sleeps")
        total, per = Scorer([source], parsed).corpus([hyp])
        assert total == ScoreStats(1, 0, 0)
        assert compare_outputs(per, per) == ["tie"]


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x0c", "\x1c"])
def test_m2_separator_inside_a_sentence_reads_as_a_space(separator):
    text = "S she walk{} fast\nA 1 2|||SVA|||walks|||REQUIRED|||-NONE-|||0\n\nS ok .\n"
    assert parse_m2(text.format(separator)) == parse_m2(text.format(" "))


def test_m2_crlf_reads_as_lf():
    text = "S she walk fast\nA 1 2|||SVA|||walks|||REQUIRED|||-NONE-|||0\n\nS ok .\n"
    assert parse_m2(text.replace("\n", "\r\n")) == parse_m2(text)
