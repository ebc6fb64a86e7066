import os
import sys

import pytest
from hypothesis import settings

from troplin import presentations
from troplin.util import BoundedMemo

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run: no example
# database, no clock-based deadline.
settings.register_profile("repeatable", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def fresh_distinguished_memo(monkeypatch):
    """Each test starts with an empty memo of presentations.distinguished,
    so no test sees the answers, or the walks skipped, of another."""
    monkeypatch.setattr(presentations, "_MEMO", BoundedMemo())
