"""Output checks for each CLI command of the benchmark workloads.

Each check reads the ``key=value`` summary the command printed and the
artifacts it wrote, and returns a list of problems (empty when the output is
right).  Paths follow the CLI's default layout under the data directory.
"""

from __future__ import annotations

import math
from pathlib import Path

import fusegen
from corrfuse.policy import PolicyModel

Summary = dict[str, str]


def parse_summary(stdout: str) -> Summary:
    summary: Summary = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            summary[key] = value
    return summary


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _fraction(summary: Summary, key: str) -> list[str]:
    try:
        value = float(summary[key])
    except (KeyError, ValueError):
        return [f"summary lacks a numeric {key}"]
    return [] if 0.0 <= value <= 1.0 else [f"{key}={value} outside [0, 1]"]


def _line_count(path: Path, expected: int) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    n = len(_lines(path))
    return [] if n == expected else [f"{path.name} has {n} lines, expected {expected}"]


def _m2_sources(path: Path) -> int:
    return sum(1 for line in _lines(path) if line.startswith("S "))


def _m2_gold_edits(path: Path) -> int:
    return sum(1 for line in _lines(path) if line.startswith("A ") and not line.startswith("A -1 -1"))


def _checkpoint(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing checkpoint {path.name}"]
    header, *rows = _lines(path)
    meta = dict(field.split("=", 1) for field in header.split()[2:])
    expected = PolicyModel.param_count(int(meta["vocab"]), int(meta["embed"]), int(meta["hidden"]))
    values = [float(row) for row in rows if row.strip()]
    problems = []
    if len(values) != expected:
        problems.append(f"{path.name} holds {len(values)} parameters, expected {expected}")
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path.name} holds non-finite parameters")
    return problems


def _weights(path: Path, n_systems: int) -> list[str]:
    if not path.is_file():
        return [f"missing weights {path.name}"]
    rows = [line.split("\t") for line in _lines(path) if line.strip()]
    names = [f"match_{s}" for s in range(n_systems)] + ["length", "lm"]
    if [r[0] for r in rows] != names:
        return [f"{path.name} names {[r[0] for r in rows]}, expected {names}"]
    if not all(math.isfinite(float(r[1])) for r in rows):
        return [f"{path.name} holds non-finite weights"]
    return []


def _lattice_tokens(fused: Path, hyp_files: list[Path]) -> list[str]:
    """A lattice emits only input words: every token of a fused line comes
    from the same line of one of the system hypotheses."""
    hyps = [_lines(p) for p in hyp_files]
    problems = []
    for i, line in enumerate(_lines(fused)):
        allowed = {tok for h in hyps for tok in h[i].split()}
        stray = set(line.split()) - allowed
        if stray:
            problems.append(f"{fused.name} line {i + 1} emits {sorted(stray)} from no system")
    return problems[:3]


def check(command: str, summary: Summary, data: Path, expect: dict[str, int]) -> list[str]:
    """Problems with the output of ``command``.  ``expect`` carries the sizes
    the workload asked for (line counts, models, stages, systems)."""
    problems = [] if summary.get("command") == command else [f"summary names command {summary.get('command')!r}"]
    if "config_sha256" not in summary:
        problems.append("summary lacks config_sha256")
    d = data / "data"
    if command == "gen":
        for split in ("train", "dev", "test"):
            n = expect[f"n_{split}"]
            if summary.get(f"n_{split}") != str(n):
                problems.append(f"n_{split}={summary.get(f'n_{split}')}, expected {n}")
            problems += _line_count(d / f"{split}.src", n) + _line_count(d / f"{split}.ref", n)
            if (d / f"{split}.m2").is_file() and _m2_sources(d / f"{split}.m2") != n:
                problems.append(f"{split}.m2 does not hold {n} sentences")
    elif command == "train":
        vocab = data / "models" / "vocab.txt"
        problems += _line_count(vocab, int(summary.get("vocab_size", -1)))
        for i in range(expect["models"]):
            problems += _fraction(summary, f"model_{i}_dev_f05")
            problems += _checkpoint(data / "models" / f"model_{i}.txt")
    elif command == "ddt":
        problems += _fraction(summary, "dev_f05") + _fraction(summary, "diversity")
        steps = expect["n_dev"] * expect["ddt_epochs"]
        if summary.get("steps") != str(steps):
            problems.append(f"steps={summary.get('steps')}, expected {steps}")
        problems += _checkpoint(data / "models" / "model_0_ddt.txt")
    elif command == "stages":
        problems += _fraction(summary, "best_combined_f05")
        out = data / "out"
        for stage in range(expect["stages"] + 1):
            hyps = [out / f"stage{stage}.sys{m}.hyp" for m in range(expect["models"])]
            fused = out / f"stage{stage}.combined.hyp"
            for path in hyps + [fused]:
                problems += _line_count(path, expect["n_dev"])
            problems += _weights(out / f"stage{stage}.weights", expect["models"])
            if not problems:
                problems += _lattice_tokens(fused, hyps)
    elif command == "tune":
        problems += _fraction(summary, "pool_f05")
        if int(summary.get("pool_size", 0)) < expect["n_dev"]:
            problems.append(f"pool_size={summary.get('pool_size')} below one per dev line")
        problems += _weights(data / "out" / "combine.weights", expect["systems"])
    elif command == "combine":
        fused = data / "out" / "combined.hyp"
        hyps = [fusegen.hyp_path(data, "test", m) for m in range(expect["systems"])]
        problems += _line_count(fused, expect["n_test"])
        if not problems:
            problems += _lattice_tokens(fused, hyps)
    elif command == "eval":
        problems += _fraction(summary, "f05")
        gold = _m2_gold_edits(d / "test.m2")
        tp, fn = int(summary.get("tp", -1)), int(summary.get("fn", -1))
        if tp + fn != gold:
            problems.append(f"tp + fn = {tp + fn}, but test.m2 holds {gold} gold edits")
    return problems
