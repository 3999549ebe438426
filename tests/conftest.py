import time

import pytest
from hypothesis import HealthCheck, settings

from logsine import NumericConfig

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_configure(config):
    config.addinivalue_line("markers", "within(seconds): the test fails when its call takes that long")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """A test marked ``within(seconds)`` fails when its call, every request it
    makes together, takes ``seconds`` or longer."""
    start = time.perf_counter()
    result = yield
    mark = item.get_closest_marker("within")
    elapsed = time.perf_counter() - start
    if mark is not None and elapsed >= mark.args[0]:
        pytest.fail(f"took {elapsed:.1f} s, the limit is {mark.args[0]} s")
    return result


@pytest.fixture(scope="session")
def cfg() -> NumericConfig:
    return NumericConfig()
