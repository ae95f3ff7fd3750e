"""The Python session in README.md runs as written."""

import doctest
import os

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_session():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0 and result.failed == 0
