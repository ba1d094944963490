import os
import subprocess
import sys

import handmcq


def test_every_public_name_resolves():
    for name in handmcq.__all__:
        assert hasattr(handmcq, name), name
    assert len(set(handmcq.__all__)) == len(handmcq.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from handmcq import *", namespace)
    assert set(handmcq.__all__) <= set(namespace)


def test_the_cli_does_not_import_numpy():
    code = "import sys, handmcq.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "False")
