"""Deterministic synthetic corruption corpus: sample grammatical sentences
from a small template grammar, then inject common grammatical errors with
per-rule probabilities.  Gold edits are the exact inverse corrections,
recorded as the canonical minimal edit script from erroneous to correct.

A corpus reads two plain generators, each drawn in order: references from
``np.random.default_rng(grammar_seed)`` and corruptions from
``np.random.default_rng(rng_seed)``.  Sentence i draws from each where
sentence i - 1 stopped, so the first n examples do not depend on how many
are asked for.  Further corruption passes over the same references (``gen``
oversamples its train split this way) go on drawing from the one
corruption stream.  An example's gold edits are computed when read.
``tests/oracles.py:oracle_generate_corpus`` draws the same streams its own
way and is the reference.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .textcore import EditScript, TokenSeq, edit_script, split_lines

RULE_KINDS = (
    "drop_determiner",
    "verb_agreement_swap",
    "preposition_swap",
    "noun_number_swap",
    "token_duplicate",
)


class CorruptionRule(namedtuple("CorruptionRule", "kind prob")):
    __slots__ = ()

    def __new__(cls, kind: str, prob: float) -> CorruptionRule:
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown corruption rule {kind!r}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"rule probability must be in [0,1], got {prob}")
        return super().__new__(cls, kind, prob)


DEFAULT_RULES = tuple(CorruptionRule(kind, 0.35) for kind in RULE_KINDS)


class Grammar(NamedTuple):
    """Lexicon for the template grammar; all corruption rules operate on
    words listed here."""

    determiners: tuple[str, ...]
    nouns: tuple[tuple[str, str], ...]  # (singular, plural)
    verbs_intrans: tuple[tuple[str, str], ...]  # (3rd-singular, plural form)
    verbs_trans: tuple[tuple[str, str], ...]
    adjectives: tuple[str, ...]
    prepositions: tuple[str, ...]
    adverbs: tuple[str, ...]

    def vocabulary(self) -> tuple[str, ...]:
        words: list[str] = ["."]
        words += self.determiners
        for s, p in self.nouns + self.verbs_intrans + self.verbs_trans:
            words += [s, p]
        words += self.adjectives + self.prepositions + self.adverbs
        return tuple(dict.fromkeys(words))


DEFAULT_GRAMMAR = Grammar(
    determiners=("the", "a"),
    nouns=(
        ("cat", "cats"), ("dog", "dogs"), ("boy", "boys"), ("girl", "girls"),
        ("teacher", "teachers"), ("student", "students"), ("bird", "birds"),
        ("farmer", "farmers"),
    ),
    verbs_intrans=(
        ("walks", "walk"), ("runs", "run"), ("sleeps", "sleep"),
        ("smiles", "smile"), ("waits", "wait"),
    ),
    verbs_trans=(
        ("sees", "see"), ("likes", "like"), ("helps", "help"),
        ("finds", "find"), ("chases", "chase"),
    ),
    adjectives=("big", "small", "happy", "young", "old"),
    prepositions=("in", "on", "near", "with"),
    adverbs=("today", "quietly", "quickly"),
)


def parse_grammar(text: str) -> Grammar:
    """Plain-text grammar override: one entry per line.

    det <word> | noun <sg> <pl> | verbi <3sg> <pl> | verbt <3sg> <pl> |
    adj <word> | prep <word> | adv <word>.  Blank lines and # comments ok.
    A plural noun phrase takes the first ``det`` entry or no determiner, so
    list the determiner that fits plurals (English "the") first.
    """
    slots: dict[str, list] = {k: [] for k in ("det", "noun", "verbi", "verbt", "adj", "prep", "adv")}
    arity = {"det": 1, "noun": 2, "verbi": 2, "verbt": 2, "adj": 1, "prep": 1, "adv": 1}
    for lineno, line in enumerate(split_lines(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind not in slots:
            raise ValueError(f"line {lineno}: unknown word class {kind!r}")
        if len(args) != arity[kind]:
            raise ValueError(f"line {lineno}: {kind} takes {arity[kind]} word(s)")
        slots[kind].append(args[0] if arity[kind] == 1 else tuple(args))
    for kind in ("det", "noun", "verbi", "verbt", "prep"):
        if not slots[kind]:
            raise ValueError(f"grammar needs at least one {kind} entry")
    return Grammar(
        determiners=tuple(slots["det"]),
        nouns=tuple(slots["noun"]),
        verbs_intrans=tuple(slots["verbi"]),
        verbs_trans=tuple(slots["verbt"]),
        adjectives=tuple(slots["adj"]),
        prepositions=tuple(slots["prep"]),
        adverbs=tuple(slots["adv"]),
    )


def _sample_np(rng: np.random.Generator, grammar: Grammar, plural: bool) -> list[str]:
    noun = grammar.nouns[rng.integers(len(grammar.nouns))][1 if plural else 0]
    words = []
    if not plural:
        words.append(grammar.determiners[rng.integers(len(grammar.determiners))])
    elif rng.random() < 0.5:
        words.append(grammar.determiners[0])  # plural subjects take the first determiner or none
    if grammar.adjectives and rng.random() < 0.4:
        words.append(grammar.adjectives[rng.integers(len(grammar.adjectives))])
    words.append(noun)
    return words


def sample_sentence(rng: np.random.Generator, grammar: Grammar) -> TokenSeq:
    """One grammatical sentence from the template set."""
    plural = bool(rng.random() < 0.4)
    form = 1 if plural else 0
    words = _sample_np(rng, grammar, plural)
    template = rng.integers(4)
    if template == 0:  # NP Vi .
        words.append(grammar.verbs_intrans[rng.integers(len(grammar.verbs_intrans))][form])
    elif template == 1:  # NP Vi Adv .
        words.append(grammar.verbs_intrans[rng.integers(len(grammar.verbs_intrans))][form])
        if grammar.adverbs:
            words.append(grammar.adverbs[rng.integers(len(grammar.adverbs))])
    elif template == 2:  # NP Vt NP .
        words.append(grammar.verbs_trans[rng.integers(len(grammar.verbs_trans))][form])
        words += _sample_np(rng, grammar, plural=bool(rng.random() < 0.4))
    else:  # NP Vi Prep NP .
        words.append(grammar.verbs_intrans[rng.integers(len(grammar.verbs_intrans))][form])
        words.append(grammar.prepositions[rng.integers(len(grammar.prepositions))])
        words += _sample_np(rng, grammar, plural=bool(rng.random() < 0.4))
    words.append(".")
    return tuple(words)


class CorpusExample(NamedTuple):
    source: TokenSeq  # erroneous
    reference: TokenSeq  # correct
    applied: tuple[str, ...]
    eligible: tuple[str, ...]

    @property
    def gold_edits(self) -> EditScript:
        """The edits that turn ``source`` into ``reference``, computed when
        read: a system pass of the benchmark's input writer never reads
        them."""
        return edit_script(self.source, self.reference)


def _rule_targets(grammar: Grammar) -> Mapping[str, Mapping[str, tuple[str, ...]]]:
    """Per rule kind but ``token_duplicate``, which acts on every token: the
    words of ``grammar`` the rule acts on, each with the words it may become
    (none for a dropped determiner)."""
    prepositions = grammar.prepositions if len(grammar.prepositions) > 1 else ()
    targets: dict[str, dict[str, tuple[str, ...]]] = {
        "drop_determiner": {d: () for d in grammar.determiners},
        "preposition_swap": {p: tuple(q for q in prepositions if q != p) for p in prepositions},
        "verb_agreement_swap": {},
        "noun_number_swap": {},
    }
    for kind, pairs in (
        ("verb_agreement_swap", grammar.verbs_intrans + grammar.verbs_trans),
        ("noun_number_swap", grammar.nouns),
    ):
        for a, b in pairs:  # a word in two pairs takes its form in the later one
            targets[kind][a], targets[kind][b] = (b,), (a,)
    return targets


def _corrupt(
    tokens: list[str],
    rule: CorruptionRule,
    rng: np.random.Generator,
    targets: Mapping[str, Mapping[str, tuple[str, ...]]],
) -> tuple[list[str], bool, bool]:
    """Apply one rule, with ``targets`` from ``_rule_targets``; returns
    (tokens, eligible, applied).

    The probability draw is consumed before checking eligibility so that
    the random stream does not depend on the sentence content.
    """
    fire = bool(rng.random() < rule.prob)
    kind = rule.kind
    if kind == "token_duplicate":
        sites = list(range(len(tokens)))
    else:
        words = targets[kind]
        sites = [i for i, t in enumerate(tokens) if t in words]

    if not sites:
        return tokens, False, False
    if not fire:
        return tokens, True, False
    site = int(sites[rng.integers(len(sites))])
    if kind == "drop_determiner":
        tokens = tokens[:site] + tokens[site + 1 :]
    elif kind == "preposition_swap":
        others = words[tokens[site]]
        tokens[site] = others[int(rng.integers(len(others)))]
    elif kind == "token_duplicate":
        tokens = tokens[: site + 1] + [tokens[site]] + tokens[site + 1 :]
    else:
        tokens[site] = words[tokens[site]][0]
    return tokens, True, True


def generate_corpus(
    grammar_seed: int,
    n_sentences: int,
    rules: Sequence[CorruptionRule] = DEFAULT_RULES,
    rng_seed: int = 1,
    grammar: Grammar = DEFAULT_GRAMMAR,
    passes: int = 1,
) -> list[CorpusExample]:
    """Deterministic corpus of (erroneous, correct) examples,
    ``passes * n_sentences`` of them, pass by pass.

    Draws ``n_sentences`` references in order from
    ``np.random.default_rng(grammar_seed)`` and corrupts them once per pass,
    with draws taken in order from one ``np.random.default_rng(rng_seed)``.
    Every pass has the same references, and each pass goes on where the
    corruption stream stopped.  So the first n examples of a pass have the
    references of the corpus of n sentences, and with ``passes=1`` they are
    that corpus.  A bad seed raises as NumPy does.
    """
    if n_sentences < 1:
        raise ValueError("need at least one sentence")
    grammar_rng = np.random.default_rng(grammar_seed)
    corruption_rng = np.random.default_rng(rng_seed)
    targets = _rule_targets(grammar)
    references = [sample_sentence(grammar_rng, grammar) for _ in range(n_sentences)]
    examples = []
    for _ in range(passes):
        for reference in references:
            tokens = list(reference)
            applied: list[str] = []
            eligible: list[str] = []
            for rule in rules:
                tokens, was_eligible, was_applied = _corrupt(tokens, rule, corruption_rng, targets)
                if was_eligible:
                    eligible.append(rule.kind)
                if was_applied:
                    applied.append(rule.kind)
            examples.append(CorpusExample(tuple(tokens), reference, tuple(applied), tuple(eligible)))
    return examples
