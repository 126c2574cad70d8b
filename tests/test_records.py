"""The contracts of the library's records.

Records without construction checks are ``typing.NamedTuple`` classes, the
ones that check their fields are ``collections.namedtuple`` bases with a
validating ``__new__``, and the ones that derive state or change are
slotted classes.  The cases below pin what callers rely on: a tuple
record's fields cannot be assigned, edits sort by (start, end,
replacement), score statistics add componentwise, and a search space
compares by its ``(hyps, groups)`` whatever its search memo holds.
"""

import math

import numpy as np
import pytest

from defaults import ddt_cfg

from corrfuse.alignment import AlignedPair, Alignment, align_all
from corrfuse.combiner import FeatureSchema, SearchSpace, beam_search, build_space, train_lm
from corrfuse.config import ExperimentConfig
from corrfuse.ddt import StageReport
from corrfuse.evaluation import GoldAnnotation, ScoreStats
from corrfuse.pipeline import StageResult
from corrfuse.textcore import Edit, tokenize
from corrfuse.toydata import DEFAULT_GRAMMAR, CorpusExample, CorruptionRule
from corrfuse.tuner import Candidate, KBestPool

REPORT = StageReport(0, None, 0.5, math.nan, math.nan)
TUPLE_RECORDS = [
    AlignedPair(0, 0, "exact"),
    Alignment(1, 1, (AlignedPair(0, 0, "exact"),)),
    FeatureSchema(2),
    ExperimentConfig.load(),
    ddt_cfg(),
    REPORT,
    StageResult(REPORT, np.zeros(4), KBestPool.empty(1), ()),
    DEFAULT_GRAMMAR,
    CorpusExample(("cat", "runs"), ("the", "cat", "runs"), ("drop_determiner",), ()),
    CorruptionRule("drop_determiner", 0.5),
    Candidate(("a",), (1.0, 0.0), ScoreStats(1, 0, 0)),
    Edit(0, 1, ()),
    ScoreStats(1, 2, 3),
    GoldAnnotation(("a",), ((),)),
]


def fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def edits_sort_by_span_then_replacement():
    edits = [Edit(2, 2, ("a",)), Edit(1, 3, ()), Edit(1, 2, ("b",)), Edit(1, 2, ("a", "b")), Edit(0, 4, ("z",))]
    assert sorted(edits) == [edits[4], edits[3], edits[2], edits[1], edits[0]]


def score_stats_add_componentwise():
    per = [ScoreStats(1, 0, 2), ScoreStats(0, 3, 0), ScoreStats(4, 5, 6)]
    total = sum(per, ScoreStats())
    assert type(total) is ScoreStats and total == ScoreStats(5, 8, 8)
    assert sum([], ScoreStats()) == ScoreStats(0, 0, 0)


def a_searched_space_equals_a_fresh_one():
    hyps = [tokenize("the cat runs ."), tokenize("the cats run ."), tokenize("a cat runs")]
    space = build_space(hyps, align_all(hyps))
    lm = train_lm(hyps, 3)
    beam_search(space, space.schema().default_weights(), lm, 8, 4)
    assert space.kbest
    fresh = SearchSpace(space.hyps, space.groups)
    assert not fresh.kbest
    assert space == fresh and fresh == space
    assert space != build_space(hyps[:2], align_all(hyps[:2]))


CASES = [(f"assign-{type(r).__name__}", fields_cannot_be_assigned, (r,)) for r in TUPLE_RECORDS] + [
    ("edit-order", edits_sort_by_span_then_replacement, ()),
    ("score-sum", score_stats_add_componentwise, ()),
    ("space-after-search", a_searched_space_equals_a_fresh_one, ()),
]


@pytest.mark.parametrize("check, args", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_record_contract(check, args):
    check(*args)
