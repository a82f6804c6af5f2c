"""Hypothesis profiles.  ``ci`` prints the ``@reproduce_failure`` blob of
a failing example, so a red CI run carries what replays it; select it with
``HYPOTHESIS_PROFILE=ci``.  It keeps the default example counts and
randomness."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
