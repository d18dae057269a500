"""Hypothesis profiles.

With ``CI`` set in the environment (GitHub Actions sets ``CI=true``), the
``ci`` profile makes every property test draw the same examples on every
run, so a CI failure reproduces and a green run stays green.  Local runs
keep drawing fresh examples.  Example counts come from each test's own
``@settings`` in both cases.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

if os.environ.get("CI"):
    settings.load_profile("ci")
