"""The CI workflow names fixtures and benchmark workloads as plain text; a
rename elsewhere would only fail on a runner. Read as text: no YAML parser
is a dependency, and importing perfbench/run.py sets BLAS thread variables."""

import re
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
