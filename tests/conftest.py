"""Test session set-up.

``pythonpath`` in pyproject.toml puts ``src/`` on the path of the test
process; the CLI tests also start ``python -m arrac`` subprocesses, which
inherit the environment, so ``src/`` goes onto their ``PYTHONPATH`` too.
"""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
