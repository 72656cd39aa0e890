"""Importing the package loads only the standard modules it uses."""

import os
from pathlib import Path
import subprocess
import sys

SRC = Path(__file__).resolve().parent.parent / "src"

# reached from xml.sax.saxutils: the URL, HTTP, mail and TLS stack
UNUSED = {"xml", "urllib", "http", "email", "ssl", "socket", "hashlib"}

# the top-level names of the modules that importing vkrew and its CLI
# adds, compared before and after, so site hooks of the child are ignored
CHILD = """
import sys
before = set(sys.modules)
import vkrew, vkrew.cli
print(*sorted({name.split(".")[0] for name in set(sys.modules) - before}))
"""


def test_import_loads_no_unused_standard_module():
    # a fresh interpreter: this one may have loaded any of them already
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert "vkrew" in added
    assert sorted(added & UNUSED) == []
