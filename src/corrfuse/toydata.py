"""Deterministic synthetic corruption corpus: sample grammatical sentences
from a small template grammar, then inject common grammatical errors with
per-rule probabilities.  Gold edits are the exact inverse corrections,
recorded as the canonical minimal edit script from erroneous to correct.

Every sentence has two random streams, each a PCG64 seeded by a NumPy
``SeedSequence`` child: spawn key i of the grammar seed for reference i, and
spawn key i of the corruption seed for its errors.
``tests/oracles.py:oracle_generate_corpus`` builds those generators one by
one and is the reference.  ``generate_corpus`` instead derives every
sentence's starting state in one vectorized pass and reseeds one generator
with it.  This relies on NumPy's stream-compatibility policy (NEP 19),
which keeps ``SeedSequence`` (a fixed hash, O'Neill's ``seed_seq`` design for
PCG) and PCG64's seeding stable across releases; the tests compare the
derived states with the installed NumPy's own.

Reference i depends only on (grammar, grammar seed, i), so the references
of the last stream drawn are kept and shared by the next corpus that asks
for them: ``gen``'s corruption passes and splits, and fusegen's source and
system passes, each read one grammar stream back to back.  The corruption
stream is per pass and never shared.  The reference cache is bounded
because the benchmark's own process runs fusegen, and its memory peak is
passed on to the ``peak_rss_mb`` of the CLI children it starts.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .textcore import EditScript, TokenSeq, edit_script, split_lines

RULE_KINDS = (
    "drop_determiner",
    "verb_agreement_swap",
    "preposition_swap",
    "noun_number_swap",
    "token_duplicate",
)


@dataclass(frozen=True)
class CorruptionRule:
    kind: str
    prob: float

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown corruption rule {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"rule probability must be in [0,1], got {self.prob}")


DEFAULT_RULES = tuple(CorruptionRule(kind, 0.35) for kind in RULE_KINDS)


@dataclass(frozen=True)
class Grammar:
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
        out: list[str] = []
        for w in words:
            if w not in out:
                out.append(w)
        return tuple(out)


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
        words.append("the")  # plural subjects take "the" or no determiner
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


@dataclass(frozen=True)
class CorpusExample:
    source: TokenSeq  # erroneous
    reference: TokenSeq  # correct
    gold_edits: EditScript
    applied: tuple[str, ...]
    eligible: tuple[str, ...]


@functools.lru_cache(maxsize=8)
def _rule_targets(grammar: Grammar) -> Mapping[str, Mapping[str, tuple[str, ...]]]:
    """Per rule kind but ``token_duplicate``, which acts on every token: the
    words of ``grammar`` the rule acts on, each with the words it may become
    (none for a dropped determiner).  Read-only, as every caller shares it."""
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
    return MappingProxyType({kind: MappingProxyType(t) for kind, t in targets.items()})


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


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_MAX_SENTENCES = 2**32  # each sentence's spawn key is one 32-bit word


def _spawn_words(entropy: int, keys: np.ndarray) -> np.ndarray:
    """Row j is ``SeedSequence(entropy, spawn_key=(keys[j],)).generate_state(
    4, np.uint64)``, the words PCG64 seeds from, for 32-bit ``keys``: 32
    bytes per key, all computed in one vectorized pass.

    The parent pool is NumPy's own, so a bad ``entropy`` raises as
    ``SeedSequence`` does.  The spawn key is the last word of the entropy
    NumPy assembles, so the child pool is the parent's with the key word
    mixed into each of its 4 words in turn.  By then the hash constant has
    served the pool's 4 words, their 12 cross-mixes and 4 mixes for each
    entropy word past the pool's 4.
    """
    pool = np.random.SeedSequence(entropy).pool
    entropy_words = max(1, -(-operator.index(entropy).bit_length() // 32))
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, entropy_words - 4), 2**32) & _MASK32
    keys = np.asarray(keys, dtype=np.uint32)
    pool = np.tile(pool, (len(keys), 1))
    for dst in range(4):
        value = keys ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value *= np.uint32(hash_a)
        value ^= value >> 16
        mixed = np.uint32(_MIX_MULT_L) * pool[:, dst] - np.uint32(_MIX_MULT_R) * value
        pool[:, dst] = mixed ^ (mixed >> 16)
    # generate_state: 8 words cycling over the pool, read as little-endian pairs
    state = np.empty((len(keys), 8), dtype="<u4")
    hash_b = _INIT_B
    for j in range(8):
        value = pool[:, j % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value *= np.uint32(hash_b)
        state[:, j] = value ^ (value >> 16)
    return state.view("<u8")


def _reseed(bit_generator: np.random.PCG64, words: np.ndarray) -> None:
    """Put ``bit_generator`` in the state a PCG64 seeded with ``words`` (a
    row of ``_spawn_words``) starts from: PCG's srandom, as NumPy's
    ``pcg64_set_seed`` runs it, with the first two words as the initial
    state and the last two as the stream."""
    state_hi, state_lo, seq_hi, seq_lo = words.tolist()
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# (grammar, grammar seed, its references 0..k-1) of the last reference stream
# drawn, k at most _REFERENCE_CACHE_SIZE (see the module docstring for why it
# is bounded); default ``gen`` reuses 150
_REFERENCE_CACHE_SIZE = 1024
_last_references: tuple[object, object, list[TokenSeq]] = (None, None, [])


def _references(grammar: Grammar, grammar_seed: int, n: int, gen: np.random.Generator) -> list[TokenSeq]:
    """References 0..n-1 of ``grammar_seed``'s stream; those not cached are
    drawn with ``gen``."""
    global _last_references
    cached_grammar, cached_seed, cached = _last_references
    # a comparison, not a hash: the same grammar object matches by identity
    references = cached[:n] if (cached_grammar, cached_seed) == (grammar, grammar_seed) else []
    if len(references) < n:
        for words in _spawn_words(grammar_seed, np.arange(len(references), n, dtype=np.uint32)):
            _reseed(gen.bit_generator, words)
            references.append(sample_sentence(gen, grammar))
    _last_references = (grammar, grammar_seed, references[:_REFERENCE_CACHE_SIZE])
    return references


def generate_corpus(
    grammar_seed: int,
    n_sentences: int,
    rules: Sequence[CorruptionRule] = DEFAULT_RULES,
    rng_seed: int = 1,
    grammar: Grammar = DEFAULT_GRAMMAR,
) -> list[CorpusExample]:
    """Deterministic corpus of (erroneous, correct, gold edits) examples.

    Sentence i draws its reference from PCG64 seeded by
    ``np.random.SeedSequence(grammar_seed, spawn_key=(i,))`` and its
    corruptions from ``SeedSequence(rng_seed, spawn_key=(i,))``, so
    generation order (or parallel generation) cannot change the output;
    ``tests/oracles.py:oracle_generate_corpus`` builds those generators and
    is the reference.  Here one generator is set, before each sentence's
    draws, to the state its stream starts from, derived for all sentences
    at once (see the module docstring).  References come from the last
    stream's cache where they can; the corruption stream is drawn afresh
    for each call, and not at all when ``rules`` is empty.  At most 2**32
    sentences: a spawn key is one 32-bit word here.
    """
    if n_sentences < 1:
        raise ValueError("need at least one sentence")
    if n_sentences > _MAX_SENTENCES:
        raise ValueError(f"at most {_MAX_SENTENCES} sentences, got {n_sentences}")
    targets = _rule_targets(grammar)
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded before every sentence
    references = _references(grammar, grammar_seed, n_sentences, gen)
    if rules:  # an empty rule set reads no corruption stream
        corruption_words = _spawn_words(rng_seed, np.arange(n_sentences, dtype=np.uint32))
    examples = []
    for i, reference in enumerate(references):
        tokens = list(reference)
        applied: list[str] = []
        eligible: list[str] = []
        if rules:
            _reseed(gen.bit_generator, corruption_words[i])
        for rule in rules:
            tokens, was_eligible, was_applied = _corrupt(tokens, rule, gen, targets)
            if was_eligible:
                eligible.append(rule.kind)
            if was_applied:
                applied.append(rule.kind)
        source = tuple(tokens)
        examples.append(
            CorpusExample(
                source=source,
                reference=reference,
                gold_edits=edit_script(source, reference),
                applied=tuple(applied),
                eligible=tuple(eligible),
            )
        )
    return examples
