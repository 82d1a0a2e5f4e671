"""Set-up shared by the test modules.

Hypothesis caches the constants it reads from local modules under
./.hypothesis while the tests are collected, whatever a test's database
setting. Its storage goes to a temporary directory instead, removed when
the test run ends, so it leaves no file in the tree.
"""

import tempfile

import pytest

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only test_cli_fuzz.py and test_ridge_pairing.py need Hypothesis
    set_hypothesis_home_dir = None

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    if set_hypothesis_home_dir is not None:
        config.stash[_STORAGE] = tempfile.TemporaryDirectory()
        set_hypothesis_home_dir(config.stash[_STORAGE].name)


def pytest_unconfigure(config):
    storage = config.stash.get(_STORAGE, None)
    if storage is not None:
        set_hypothesis_home_dir(None)
        storage.cleanup()
