"""The CI workflow names fixtures and benchmark workloads as plain text; a
rename elsewhere would only fail on a runner. Read as text: no YAML parser
is a dependency, and importing perfbench/run.py sets BLAS thread variables.
The workflow's inline Python programs run here on a synthetic benchmark
output, so a slip in one shows before a runner reaches it."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_named_fixtures_exist():
    fixtures = re.findall(r"src/nnscontrol/fixtures/[\w.-]+\.json", WORKFLOW)
    assert fixtures
    for fixture in fixtures:
        assert (ROOT / fixture).is_file(), fixture


def test_workloads_are_run_py_names():
    names = re.search(r"^NAMES = \(([^)]*)\)", (ROOT / "perfbench" / "run.py").read_text(), re.M)
    known = set(re.findall(r'"([\w-]+)"', names.group(1)))
    loops = dict(re.findall(r"for (\w+) in ([^;]+); do", WORKFLOW))
    workloads = []
    for value in re.findall(r"perfbench/run\.py --workload (\S+)", WORKFLOW):
        variable = value.strip('"').removeprefix("$")
        workloads += loops[variable].split() if variable in loops else [value]
    assert workloads
    assert set(workloads) <= known, set(workloads) - known


def inline_programs():
    """The ``python3 -c "..."`` programs of the workflow, with the shell's
    double-quote escapes (\\", \\\\, \\$ and \\`) undone."""
    programs = re.findall(r'python3 -c "((?:[^"\\]|\\.)*)"', WORKFLOW)
    return [re.sub(r'\\(["\\$`])', r"\1", program) for program in programs]


def run_inline(program, *args, stdin=""):
    return subprocess.run(
        [sys.executable, "-c", program, *args], input=stdin, capture_output=True, text=True
    )


def test_inline_programs_read_a_perfbench_output(tmp_path):
    summary = {"passes": 4, "report_digest": "0123abcd"}
    final = {
        "correct": True,
        "failed": 160,
        "attempted": 432,
        "metrics": {"systems_per_s": {"value": 152.46}, "peak_rss_mb": {"value": 45.61}},
    }
    output = tmp_path / "workload.txt"
    output.write_text(
        f"warm-up\nperfbench-summary {json.dumps(summary)}\n{json.dumps(final)}\n"
    )
    check, gated, tracked, _ = inline_programs()
    assert run_inline(check, "eig-large", stdin=json.dumps(final)).returncode == 0
    refused = run_inline(check, "eig-large", stdin=json.dumps({**final, "correct": False}))
    assert refused.returncode != 0 and "eig-large" in refused.stderr
    assert run_inline(gated, str(output), "eig-large").stdout == (
        "eig-large (seed 1): systems_per_s 152.5, peak_rss_mb 45.6, report_digest 0123abcd\n"
    )
    assert run_inline(tracked, str(output)).stdout == (
        "jordan-defective (seed 1): 40 of 108 checks failed per pass (0.370)\n"
    )


def test_inline_program_counts_code_lines(tmp_path):
    # Two modules, counted one by one and in total: docstrings, comments and
    # blank lines do not count, nor does a string standing as a statement
    # anywhere; a statement over two lines counts twice, and an assigned
    # string once. A file that is not Python is not counted.
    (tmp_path / "first.py").write_text(
        '"""Module docstring,\non two lines."""\n\nimport os  # a comment\n\n\n'
        'def f(x):\n    """Docstring."""\n    # a comment line\n    return (x +\n            1)\n'
    )
    (tmp_path / "second.py").write_text('NAME = "text"\n"""A string statement."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    *_, count = inline_programs()
    result = run_inline(count, str(tmp_path))
    assert result.stdout == (
        f"Code lines in {tmp_path} (no blank, comment or docstring line): 5\n"
        "- first.py: 4\n"
        "- second.py: 1\n"
    ), result.stderr
