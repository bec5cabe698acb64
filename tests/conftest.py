import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# ten times hypothesis' default examples, for CI's one test step, which runs
# the whole suite with --hypothesis-profile=ci; tests that set max_examples
# keep their own, unless they take the larger of theirs and the profile's
settings.register_profile("ci", max_examples=1000)

from cpscausal.fixtures import get_fixture


@pytest.fixture(scope="session")
def stage1():
    return get_fixture("stage1")


@pytest.fixture(scope="session")
def stage1_learnt():
    return get_fixture("stage1_learnt")


@pytest.fixture(scope="session")
def stage6():
    return get_fixture("stage6")


@pytest.fixture(scope="session")
def twostage():
    return get_fixture("twostage")


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return Path(__file__).parent.parent
