"""Outside-in tracing of corrfuse: timing wrappers installed from outside the
package, around the calls into each layer.

``from .x import f`` copies a binding, so a wrapper replaces the function in
every loaded corrfuse module namespace that bound it (cli and tuner import
beam_search, build_space, align_all, mert, score_sentence and more by name;
beam_search looks up ``extensions`` as a combiner global).  Methods are
patched on their class.  Each call records a span: name, start, end, parent
span and run id.  Spans stay in memory in flat arrays and are written out
once, at the end.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# metric prefix -> (defining module, attribute); "Class.method" patches a class
TARGETS: dict[str, tuple[str, str]] = {
    "policy.grad_logprob": ("corrfuse.policy", "grad_logprob"),
    "policy.mle_step": ("corrfuse.policy", "mle_step"),
    "policy.sample": ("corrfuse.policy", "sample"),
    "policy.greedy_decode": ("corrfuse.policy", "greedy_decode"),
    "ddt.ddt_step": ("corrfuse.ddt", "ddt_step"),
    "ddt.rl_gradient": ("corrfuse.ddt", "rl_gradient"),
    "ddt.round_robin": ("corrfuse.ddt", "round_robin"),
    "rewards.reward": ("corrfuse.rewards", "reward"),
    "textcore.edit_distance": ("corrfuse.textcore", "edit_distance"),
    "textcore.edit_script": ("corrfuse.textcore", "edit_script"),
    "evaluation.score_sentence": ("corrfuse.evaluation", "score_sentence"),
    "evaluation.bleu": ("corrfuse.evaluation", "bleu"),
    "alignment.align_pair": ("corrfuse.alignment", "align_pair"),
    "combiner.build_space": ("corrfuse.combiner", "build_space"),
    "combiner.beam_search": ("corrfuse.combiner", "beam_search"),
    "combiner.extensions": ("corrfuse.combiner", "extensions"),
    "combiner.lm_logprob": ("corrfuse.combiner", "NGramLM.logprob"),
    "combiner.train_lm": ("corrfuse.combiner", "train_lm"),
    "tuner.tune_loop": ("corrfuse.tuner", "tune_loop"),
    "tuner.mert": ("corrfuse.tuner", "mert"),
    "tuner.line_search": ("corrfuse.tuner", "line_search"),
    "tuner.corpus_f": ("corrfuse.tuner", "KBestPool.corpus_f"),
    "toydata.generate_corpus": ("corrfuse.toydata", "generate_corpus"),
}


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe (the CLI
    runs with one job)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, name: str) -> None:
        self.run_names.append(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.run_names) - 1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Timing wrapper; ``after(tracer, args, kwargs, result)`` updates
        counters once the span is closed.  A recursive call folds into the
        enclosing span of the same name."""
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def write(self, path: Path) -> None:
        rows = ["span\tname\trun\tparent\tstart\tend"]
        t0 = self.start[0] if self.start else 0.0
        for i in range(len(self.start)):
            rows.append(
                f"{i}\t{self.names[self.name_id[i]]}\t{self.run_names[self.run[i]]}\t"
                f"{self.parent[i]}\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
            )
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are listed in start order, so the children of a parent arrive in
    start order too and their union is accumulated in one pass.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # per parent: end of the children's union so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        if ends[i] > lo:
            covered[p] += ends[i] - lo
            reach[p] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


# --- counters measured where the work happens ------------------------------

def _grad_tokens(tracer: Tracer, args, kwargs, result) -> None:
    y = args[2] if len(args) > 2 else kwargs["y"]
    include_eos = args[3] if len(args) > 3 else kwargs.get("include_eos", True)
    tracer.counters["policy.grad_tokens"] += len(y) + bool(include_eos)


def _rl_update(tracer: Tracer, args, kwargs, result) -> None:
    grad, _ = result
    # all-equal rewards give an exactly zero gradient: k samples wasted
    tracer.counters["ddt.rl_zero_updates"] += not grad.any()


def _beam_candidates(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("tuner.tune_loop"):
        tracer.counters["tuner.beam_candidates"] += len(result)


def _pool_size(tracer: Tracer, args, kwargs, result) -> None:
    _, pool = result
    tracer.counters["tuner.pool_size"] += pool.size()


AFTER = {
    "policy.grad_logprob": _grad_tokens,
    "ddt.rl_gradient": _rl_update,
    "combiner.beam_search": _beam_candidates,
    "tuner.tune_loop": _pool_size,
}


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install a wrapper for every TARGETS entry; restore on exit."""
    import corrfuse.cli  # noqa: F401  (loads every module that binds a target)

    restore: list[tuple[object, str, object]] = []
    try:
        for name, (module_name, attr) in TARGETS.items():
            owner: object = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, AFTER.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, AFTER.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "corrfuse":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


def _percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank] * 1000.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self time per traced name, latency tails, and counters."""
    self_s = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        calls[name] += 1
        total[name] += self_s[i]
        if name in ("alignment.align_pair", "combiner.beam_search"):
            durations[name].append(tracer.end[i] - tracer.start[i])
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = total[name]
    for name in ("alignment.align_pair", "combiner.beam_search"):
        out[f"{name}.p95_ms"] = _percentile_ms(durations[name], 0.95)
    out["alignment.align_pair.max_ms"] = max(durations["alignment.align_pair"], default=0.0) * 1000.0
    c = tracer.counters
    out["policy.grad_tokens"] = c["policy.grad_tokens"]
    rl_calls = calls["ddt.rl_gradient"]
    out["ddt.rl_zero_update_frac"] = c["ddt.rl_zero_updates"] / rl_calls if rl_calls else 0.0
    out["tuner.pool_size"] = c["tuner.pool_size"]
    beam_cands = c["tuner.beam_candidates"]
    out["tuner.new_cand_frac"] = c["tuner.pool_size"] / beam_cands if beam_cands else 0.0
    for name in [n for n in tracer.names if n.startswith("cli.")]:
        out[f"{name}.self_s"] = total[name]
    return out
