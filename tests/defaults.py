"""The ``ddt.DdtConfig`` that tests start from: the config table's defaults,
as ``pipeline.ddt_config`` builds them, with the fields a test names
replaced."""

import dataclasses

from corrfuse.config import ExperimentConfig
from corrfuse.ddt import DdtConfig
from corrfuse.pipeline import ddt_config


def ddt_cfg(**fields) -> DdtConfig:
    return dataclasses.replace(ddt_config(ExperimentConfig.load()), **fields)
