"""The oracle's decisions on the `oracle-agreement` benchmark inputs.

Every shortcut of the coverage sweep must leave each verdict and question
count as the plain solve-every-question sweep has them, so a change that
makes the sweep faster can be checked here against the benchmark's own
systems, without a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from nnscontrol import oracle

ROOT = Path(__file__).resolve().parents[1]

U, C = "uncovered", "covered_at"
# (outcome, k_used, lp_count) of coverage_probe on each case of
# build_oracle_agreement(1, "full", ...), in build order.
SEED_1 = [
    (U, 6, 379), (U, 6, 341), (U, 6, 418), (U, 6, 295), (U, 6, 263), (U, 6, 424), (U, 6, 371),
    (U, 6, 351), (U, 6, 335), (U, 6, 426), (U, 6, 396), (U, 6, 458), (U, 6, 408), (U, 6, 404),
    (U, 6, 11598), (U, 6, 499), (U, 6, 367), (U, 6, 335), (U, 6, 408), (C, 2, 136), (C, 2, 471),
    (U, 6, 328), (C, 2, 102), (U, 6, 666), (C, 1, 292), (C, 1, 165), (C, 1, 68), (C, 3, 544),
    (U, 6, 420), (U, 6, 673), (U, 6, 420), (C, 2, 140), (U, 6, 420), (C, 2, 361), (C, 2, 244),
    (U, 6, 420), (C, 2, 296), (C, 2, 134), (C, 2, 468), (C, 2, 231), (C, 2, 94), (C, 2, 742),
    (C, 1, 294), (C, 1, 169), (C, 1, 68), (C, 3, 523), (C, 3, 206), (C, 3, 1185), (C, 2, 275),
    (C, 2, 140), (C, 3, 2035), (C, 2, 580), (C, 2, 244), (C, 2, 138),
]


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up by name
    spec.loader.exec_module(module)
    return module


def test_oracle_agreement_seed_1(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    cases = workloads.build_oracle_agreement(1, "full", tmp_path)
    decisions = []
    for case in cases:
        verdict = oracle.coverage_probe(case.system, case.s, workloads.ORACLE_CONFIG)
        decisions.append((verdict.outcome, verdict.k_used, verdict.lp_count))
    assert decisions == SEED_1
    assert sum(lp_count for _, _, lp_count in decisions) == 32168
