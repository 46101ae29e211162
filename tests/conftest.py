import pytest

from delpezzo import census


@pytest.fixture(scope="session")
def iib_run():
    """The full degree-2 type-IIb census, shared by the acceptance tests.

    test_mode audits every row's window class ids against its window sums
    and cross-checks every deep verdict, each deep class on each surface,
    of the batched anti-class kernel against the general decider.
    """
    return census.census_for_preset("IIb-deg2", test_mode=True)
