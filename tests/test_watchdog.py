"""The per-test watchdog: a hung test ends the run instead of wedging it.

Runs a throwaway suite whose second test sleeps far past a one-second
``timeout`` in a child pytest, with the hooks of ``tests/conftest.py``.
With pytest-timeout installed the plugin enforces the limit; without
it the conftest's faulthandler fallback dumps the stacks and exits.
Either way the child must stop within seconds, fail, and name the
hung test in its stack dump.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hung_test_is_stopped(tmp_path):
    (tmp_path / "conftest.py").write_text(
        "from tests.conftest import (  # noqa: F401\n"
        "    pytest_addoption, pytest_configure, pytest_runtest_protocol,\n"
        "    pytest_unconfigure,\n"
        ")\n"
    )
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n"
        "def test_quick():\n    pass\n\n"
        "def test_hangs_forever():\n    time.sleep(120)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    start = time.monotonic()
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-o", "timeout=1", "--rootdir", str(tmp_path), str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert done.returncode != 0
    assert elapsed < 30, elapsed
    assert "test_hangs_forever" in done.stdout + done.stderr
