"""corrfuse: train diverse text-correction systems and fuse their outputs.

The pipeline: tokenized sentences and edit scripts (textcore), span-based
F0.5 / BLEU / significance metrics (evaluation), diversity rewards
(rewards), a small trainable correction policy with exact gradients
(policy), reward-driven training with round-robin scheduling (ddt),
staged word alignment (alignment), lattice beam-search combination with an
n-gram LM (combiner), line-search weight tuning (tuner), a synthetic
corruption corpus (toydata), and a CLI tying it together (cli).
"""

from .alignment import AlignedPair, Alignment, align_all, align_pair
from .combiner import FeatureSchema, NGramLM, SearchSpace, beam_search, build_space, train_lm
from .ddt import DdtConfig, StageReport, ddt_step, rl_gradient, round_robin
from .evaluation import (
    GoldAnnotation,
    ScoreStats,
    bleu,
    diversity,
    f_beta,
    f_beta_pr,
    parse_m2,
    format_m2,
    score_corpus,
    score_sentence,
    sign_test_bootstrap,
)
from .policy import (
    PolicyModel,
    Vocabulary,
    grad_logprob,
    grad_logprob_batch,
    greedy_decode,
    logprob,
    logprob_batch,
    mle_step,
    sample,
    sample_many,
)
from .rewards import RewardKind, reward
from .textcore import (
    Edit,
    EditScript,
    TokenSeq,
    apply_edits,
    detokenize,
    edit_distance,
    edit_script,
    ngram_counts,
    tokenize,
)
from .toydata import CorruptionRule, Grammar, generate_corpus
from .tuner import Candidate, KBestPool, line_search, mert, tune_loop

__version__ = "0.1.0"
