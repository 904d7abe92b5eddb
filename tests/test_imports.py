"""The package runs on numpy alone: importing it loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import cauchypairs

SRC = str(Path(cauchypairs.__file__).resolve().parent.parent)


def test_import_loads_no_scipy():
    code = ("import sys\n"
            "import cauchypairs.cli, cauchypairs.coordinate_fields, cauchypairs.flow\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
