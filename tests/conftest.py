import os
import subprocess
import sys

import pytest

import eigensplit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eigensplit.__file__)))


def random_one_unit(rng, ring):
    """A 1-unit of ``ring`` with random pi-adic digits."""
    N = ring.ctx.N
    p = ring.ctx.p
    coeffs = [1 + p * rng.randrange(p ** (N - 1))]
    coeffs += [rng.randrange(p ** N) for _ in range(ring.degree - 1)]
    return ring.from_coeffs(coeffs)


@pytest.fixture
def python():
    """Run `python ARGS...` in a fresh process that imports this package."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, timeout=300)

    return run
