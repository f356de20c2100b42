import os
import subprocess
import sys

import pytest

import eigensplit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eigensplit.__file__)))


@pytest.fixture
def python():
    """Run `python ARGS...` in a fresh process that imports this package."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, timeout=300)

    return run
