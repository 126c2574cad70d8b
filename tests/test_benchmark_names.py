"""Every name in ``corrfuse`` that the benchmark reaches into resolves.

``bench/tracer.py`` hooks each of its ``TARGETS`` by name (a module
attribute, or an entry of a class ``__dict__``), ``bench/checks.py`` counts
a checkpoint's parameters with ``PolicyModel.param_count``,
``bench/fusegen.py`` reads ``toydata.DEFAULT_RULES``, and the benchmark's
own tests call ``textcore.apply_edits`` and patch ``cli.beam_search``.  A
change to ``src/`` that renames or deletes one of them fails here.

The tracer imports ``corrfuse.cli`` and reads every ``TARGETS`` module from
``sys.modules``.  ``cli`` loads ``policy`` and ``toydata`` only inside the
commands that use them; the benchmark imports both itself (``checks`` and
``fusegen``) before it installs the tracer, which a fresh interpreter checks
here.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corrfuse import cli, combiner, textcore, toydata
from corrfuse.policy import PolicyModel, Vocabulary

from defaults import setting


ROOT = Path(__file__).resolve().parent.parent


def tracer_targets() -> dict[str, tuple[str, str]]:
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("metric", sorted(TARGETS))
def test_every_traced_target_resolves(metric):
    module_name, attr = TARGETS[metric]
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        target = vars(getattr(owner, cls_name))[attr]
    else:
        target = getattr(owner, attr)
    assert callable(target)


def test_the_names_the_benchmark_imports_resolve():
    model = PolicyModel(
        Vocabulary.build(["a", "b"]), embed_width=2, hidden_width=3,
        max_len=setting("policy.max_len"), init_seed=0,
    )
    assert PolicyModel.param_count(len(model.vocab), 2, 3) == len(model.params)
    assert textcore.apply_edits(("a", "b"), []) == ("a", "b")
    assert toydata.DEFAULT_RULES and all(0.0 < rule.prob <= 1.0 for rule in toydata.DEFAULT_RULES)
    assert cli.beam_search is combiner.beam_search


def test_the_tracer_wraps_every_target_once_the_benchmark_is_imported():
    code = """
import sys
import workloads, tracer
with tracer.installed(tracer.Tracer()):
    for module_name, attr in tracer.TARGETS.values():
        owner = sys.modules[module_name]
        for name in attr.split("."):
            owner = getattr(owner, name)
        if not hasattr(owner, "__wrapped__"):
            print(module_name, attr)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout == ""
