import pytest

from delpezzo import census


@pytest.fixture(scope="session")
def iib_run():
    """The full degree-2 type-IIb census, shared by the acceptance tests.

    test_mode cross-checks every fast anti-class effectiveness verdict
    against the general decider.
    """
    return census.census_for_preset("IIb-deg2", test_mode=True)
