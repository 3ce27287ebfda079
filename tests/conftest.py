import numpy as np
import pytest

from fpxlap import build_mesh

_ACCEPTANCE_REPORT = pytest.StashKey()


@pytest.fixture(scope="session")
def acceptance_report_path(tmp_path_factory, pytestconfig):
    """Acceptance report file under pytest's (per-run) base temporary directory."""
    path = tmp_path_factory.getbasetemp() / "acceptance_report.txt"
    pytestconfig.stash[_ACCEPTANCE_REPORT] = path
    return path


def pytest_terminal_summary(terminalreporter, config):
    path = config.stash.get(_ACCEPTANCE_REPORT, None)
    if path is not None and path.exists():
        terminalreporter.write_line(f"acceptance report: {path}")


@pytest.fixture
def mesh16():
    return build_mesh(2.0, 16, [(-1.0, 1.0)])


@pytest.fixture
def mesh64():
    return build_mesh(2.0, 64, [(-1.0, 1.0)])


@pytest.fixture
def mesh256():
    return build_mesh(2.0, 256, [(-1.0, 1.0)])


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
