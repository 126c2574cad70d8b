"""Shared independent oracles for the test suites.

These deliberately reuse as little of the library as possible: expectations
come from exhaustive enumeration of the sampling distribution, "exact"
gradients come from central finite differences of enumerated expectations,
and the toy corpus comes from plain generators, with the references redrawn
from a fresh generator for every pass.
"""

import itertools
import math
from typing import Sequence

import numpy as np

from corrfuse.policy import EOS_ID, logprob
from corrfuse.rewards import reward
from corrfuse.toydata import (
    DEFAULT_GRAMMAR,
    DEFAULT_RULES,
    CorpusExample,
    CorruptionRule,
    Grammar,
    sample_sentence,
)


def emittable_tokens(model):
    return [t for i, t in enumerate(model.vocab.tokens) if i not in (0, EOS_ID)]


def enumerate_sample_space(model, x):
    """(sequence, exact sampling probability) for every possible sample."""
    out = []
    alphabet = emittable_tokens(model)
    for length in range(model.max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            ended = length < model.max_len
            lp = logprob(model, x, combo, include_eos=ended)
            out.append((combo, math.exp(lp)))
    return out


def expected_reward(model, x, peers, kind):
    return sum(
        p * reward(kind, peers, y) for y, p in enumerate_sample_space(model, x)
    )


def fd_gradient_of_expected_reward(model, x, peers, kind, h=1e-5):
    """Central finite differences of the enumerated E[R] per coordinate."""
    grad = np.zeros_like(model.params)
    for i in range(model.params.size):
        model.params[i] += h
        up = expected_reward(model, x, peers, kind)
        model.params[i] -= 2 * h
        down = expected_reward(model, x, peers, kind)
        model.params[i] += h
        grad[i] = (up - down) / (2 * h)
    return grad


def _oracle_corrupt(
    tokens: list[str],
    rule: CorruptionRule,
    rng: np.random.Generator,
    grammar: Grammar,
) -> tuple[list[str], bool, bool]:
    """Apply one rule; returns (tokens, eligible, applied).

    The probability draw is consumed before checking eligibility so that
    the random stream does not depend on the sentence content.
    """
    fire = bool(rng.random() < rule.prob)
    kind = rule.kind
    swap: dict[str, str] = {}
    if kind == "verb_agreement_swap":
        for a, b in grammar.verbs_intrans + grammar.verbs_trans:
            swap[a], swap[b] = b, a
    elif kind == "noun_number_swap":
        for a, b in grammar.nouns:
            swap[a], swap[b] = b, a

    if kind == "drop_determiner":
        sites = [i for i, t in enumerate(tokens) if t in grammar.determiners]
    elif kind == "preposition_swap":
        sites = [i for i, t in enumerate(tokens) if t in grammar.prepositions] if len(
            grammar.prepositions
        ) > 1 else []
    elif kind == "token_duplicate":
        sites = list(range(len(tokens)))
    else:
        sites = [i for i, t in enumerate(tokens) if t in swap]

    if not sites:
        return tokens, False, False
    if not fire:
        return tokens, True, False
    site = int(sites[rng.integers(len(sites))])
    if kind == "drop_determiner":
        tokens = tokens[:site] + tokens[site + 1 :]
    elif kind == "preposition_swap":
        others = [p for p in grammar.prepositions if p != tokens[site]]
        tokens[site] = others[int(rng.integers(len(others)))]
    elif kind == "token_duplicate":
        tokens = tokens[: site + 1] + [tokens[site]] + tokens[site + 1 :]
    else:
        tokens[site] = swap[tokens[site]]
    return tokens, True, True


def oracle_generate_corpus(
    grammar_seed: int,
    n_sentences: int,
    rules: Sequence[CorruptionRule] = DEFAULT_RULES,
    rng_seed: int = 1,
    grammar: Grammar = DEFAULT_GRAMMAR,
    passes: int = 1,
) -> list[CorpusExample]:
    """Deterministic corpus of (erroneous, correct) examples, ``passes``
    times over the same references.

    Each pass draws its references afresh from a new generator seeded
    ``grammar_seed``; all passes draw their corruptions, in order, from one
    generator seeded ``rng_seed``.
    """
    if n_sentences < 1:
        raise ValueError("need at least one sentence")
    c_rng = np.random.default_rng(rng_seed)
    examples = []
    for _ in range(passes):
        g_rng = np.random.default_rng(grammar_seed)
        for _ in range(n_sentences):
            reference = sample_sentence(g_rng, grammar)
            tokens = list(reference)
            applied: list[str] = []
            eligible: list[str] = []
            for rule in rules:
                tokens, was_eligible, was_applied = _oracle_corrupt(tokens, rule, c_rng, grammar)
                if was_eligible:
                    eligible.append(rule.kind)
                if was_applied:
                    applied.append(rule.kind)
            examples.append(
                CorpusExample(
                    source=tuple(tokens),
                    reference=reference,
                    applied=tuple(applied),
                    eligible=tuple(eligible),
                )
            )
    return examples
