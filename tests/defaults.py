"""The experiment's settings as tests read them: the config table's values.

The library's functions take every setting and seed as a required argument,
so a test that needs "the experiment's value" of one, and no particular
value, reads it here rather than writing the number again.  ``ddt_cfg`` is
the ``ddt.DdtConfig`` that tests start from: the config table's defaults, as
``pipeline.ddt_config`` builds them, with the fields a test names replaced.
"""

from corrfuse.config import KNOWN_KEYS, ExperimentConfig
from corrfuse.ddt import DdtConfig
from corrfuse.pipeline import ddt_config


def setting(key: str):
    """The default of config key ``key`` in ``config.KNOWN_KEYS``."""
    return KNOWN_KEYS[key][1]


def ddt_cfg(**fields) -> DdtConfig:
    return ddt_config(ExperimentConfig.load())._replace(**fields)
