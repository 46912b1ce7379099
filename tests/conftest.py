import importlib.util
from pathlib import Path

import pytest

ORACLES = Path(__file__).resolve().parents[1] / "tools" / "oracles.py"


@pytest.fixture(scope="session")
def oracles():
    """tools/oracles.py, the cross-checks that share no code with hermann."""
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                rows.append((nodeid.split("::")[-1], outcome))
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, outcome in sorted(set(rows)):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
