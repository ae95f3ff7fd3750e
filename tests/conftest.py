"""Session set-up shared by the test modules."""

import pytest
from hypothesis import find, strategies as st


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_character_table():
    """
    Draw one text before any test runs.  The first text draw of a session
    builds hypothesis's character table, which without a .hypothesis/
    directory to load it from takes long enough that the too_slow health
    check fails whichever property test draws text first.
    """
    find(st.text(min_size=1), lambda s: True)
