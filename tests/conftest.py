"""Suite-wide settings. Every hypothesis test draws the same examples on every
run, with no example database and no deadline, so the suite's outcome is a
pure function of the checkout, like the runs it tests."""

from hypothesis import settings

settings.register_profile("checkout", derandomize=True, database=None, deadline=None)
settings.load_profile("checkout")
