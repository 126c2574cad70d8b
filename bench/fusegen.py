"""Synthetic inputs for the fuse workload.

Every line joins 1 to MAX_SENTENCES_PER_LINE toy sentences (about 5 to 26
tokens).  The references come from ``toydata``'s grammar; the erroneous
source is one corruption pass over them at the toy default rule probability,
and each of the SYSTEMS hypotheses is an independent corruption pass over the
same references at a low rule probability, as if a system fixed most errors
and left or introduced a few.  Gold edits are ``textcore.edit_script`` from
source to reference.  The LM corpus comes from a separate reference stream,
so tuning sees dev, reporting sees test, and neither trains the LM.

Lines stop at four sentences: the exact aligner grows exponentially with
repeated tokens, and 100 six-sentence lines (about 35 tokens) did not finish
in four minutes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from corrfuse import toydata
from corrfuse.textcore import edit_script

SYSTEMS = 4
SYSTEM_RULE_PROB = 0.1
MAX_SENTENCES_PER_LINE = 4

_SPLITS = ("dev", "test")


def _rules(prob: float) -> tuple[toydata.CorruptionRule, ...]:
    return tuple(toydata.CorruptionRule(kind, prob) for kind in toydata.RULE_KINDS)


def _line_sizes(seed: int, n_lines: int) -> list[int]:
    """Sentences per line: 1 to MAX_SENTENCES_PER_LINE in equal shares (the
    remainder drawn at random), shuffled, so the total length of a split
    barely depends on the seed."""
    rng = np.random.default_rng(seed)
    sizes = [1 + i % MAX_SENTENCES_PER_LINE for i in range(n_lines - n_lines % MAX_SENTENCES_PER_LINE)]
    sizes += rng.integers(1, MAX_SENTENCES_PER_LINE + 1, size=n_lines % MAX_SENTENCES_PER_LINE).tolist()
    return rng.permutation(sizes).tolist()


def _group(sentences: list[tuple[str, ...]], sizes: list[int]) -> list[tuple[str, ...]]:
    lines, pos = [], 0
    for k in sizes:
        lines.append(tuple(tok for sent in sentences[pos : pos + k] for tok in sent))
        pos += k
    return lines


def _m2_block(source: tuple[str, ...], reference: tuple[str, ...]) -> str:
    lines = ["S " + " ".join(source)]
    edits = edit_script(source, reference)
    for e in edits:
        lines.append(
            f"A {e.start} {e.end}|||{e.kind}|||{' '.join(e.replacement)}|||REQUIRED|||-NONE-|||0"
        )
    if not edits:
        lines.append("A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0")
    return "\n".join(lines)


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def hyp_path(data_dir: Path, split: str, system: int) -> Path:
    return data_dir / "hyp" / f"{split}.sys{system}"


def lm_path(data_dir: Path) -> Path:
    return data_dir / "data" / "lm.txt"


def write_fuse_inputs(
    data_dir: Path, seed: int, dev_lines: int, test_lines: int, lm_lines: int
) -> None:
    """Write sources, references, M2 gold and system hypotheses for dev and
    test in the CLI's default layout under ``data_dir``, plus the LM corpus.
    The same seed writes the same bytes."""
    # one independent 32-bit seed per stream: grammar and line sizes per
    # split and for the LM, the source pass, and one pass per system
    streams = iter(np.random.SeedSequence(seed).generate_state(16).tolist())
    default_rules = _rules(toydata.DEFAULT_RULES[0].prob)
    for split, n_lines in zip(_SPLITS, (dev_lines, test_lines)):
        grammar_seed, sizes_seed, source_seed = next(streams), next(streams), next(streams)
        sizes = _line_sizes(sizes_seed, n_lines)
        n_sent = sum(sizes)
        examples = toydata.generate_corpus(grammar_seed, n_sent, default_rules, source_seed)
        sources = _group([e.source for e in examples], sizes)
        references = _group([e.reference for e in examples], sizes)
        _write(data_dir / "data" / f"{split}.src", [" ".join(s) for s in sources])
        _write(data_dir / "data" / f"{split}.ref", [" ".join(r) for r in references])
        blocks = [_m2_block(s, r) for s, r in zip(sources, references)]
        (data_dir / "data" / f"{split}.m2").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        for system in range(SYSTEMS):
            passes = toydata.generate_corpus(
                grammar_seed, n_sent, _rules(SYSTEM_RULE_PROB), next(streams)
            )
            hyps = _group([e.source for e in passes], sizes)
            _write(hyp_path(data_dir, split, system), [" ".join(h) for h in hyps])
    lm_grammar_seed, lm_sizes_seed = next(streams), next(streams)
    sizes = _line_sizes(lm_sizes_seed, lm_lines)
    corpus = toydata.generate_corpus(lm_grammar_seed, sum(sizes), (), 0)
    _write(lm_path(data_dir), [" ".join(line) for line in _group([e.reference for e in corpus], sizes)])
