import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run: no example
# database, no clock-based deadline.
settings.register_profile("repeatable", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repeatable")
