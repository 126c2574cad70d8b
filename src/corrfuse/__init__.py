"""corrfuse: train diverse text-correction systems and fuse their outputs.

The pipeline: tokenized sentences and edit scripts (textcore), span-based
F0.5 / BLEU / significance metrics (evaluation), diversity rewards
(rewards), a small trainable correction policy with exact gradients
(policy), reward-driven training with round-robin scheduling (ddt),
staged word alignment (alignment), lattice beam-search combination with an
n-gram LM (combiner), line-search weight tuning (tuner), a synthetic
corruption corpus (toydata), the experiment as functions of data
(pipeline), and a CLI that reads, formats and writes for it (cli).

The package imports none of them: import the module you use (``from corrfuse
import cli``), so that a process loads numpy and the modules only when it
needs them.  Only ``policy`` and ``toydata`` import numpy at the top; the
other modules import it inside the functions that make arrays, and
``combiner`` not at all, so ``cli`` loads no numpy until a command needs it.
The text commands (``combine``, ``eval``, ``diversity``) do not, except for
``eval``'s sign test against a baseline.  Records are named tuples, checked
in ``__new__`` where their fields need it, or classes with ``__slots__``,
never data classes: a data class compiles and runs generated code for its
methods when its module is imported, so every command's child process would
pay for that, and for the standard-library modules it loads, at start-up.
"""

__version__ = "0.1.0"
