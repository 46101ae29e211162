import pytest

from delpezzo import paper


@pytest.fixture(scope="session")
def iib_run():
    """The full degree-2 type-IIb census, shared by the acceptance tests:
    the cached run that `reproduce table7` and `table8` read."""
    return paper._census("IIb-deg2")
