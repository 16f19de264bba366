"""The demos' stdout, byte for byte.

Each demo runs in this process, as ``python demos/<name>.py`` would run
it, and its stdout is compared to the sha256 it had when pinned (x86-64
Linux, glibc libm).  The demos read the public records field by field, so
a change to a record's fields or their values shows here.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

_DEMOS = Path(__file__).resolve().parents[1] / "demos"

_STDOUT_SHA256 = {
    "budgeted_separation.py": "4d2d1956bb0548156ff47a99de12517e9db07242cd5a4afa1a116af93a385752",
    "discrimination_cost.py": "1c785458c9434536a1432f8d69d3c5e4ea31fe5f39d9de9628d3c3e2a1c7abc4",
    "interferometer_run.py": "b99394c33d5ab78032cdd50ef819348d9c2b2aa3c7bdf49af4b7e42cf645f934",
    "minimum_failure_curves.py": "a1c7d7c11599ea28d6fda685fb3529716dcb1df93b438af3ea841c12a97308de",
    "tradeoff_curves.py": "37b7166fde071a99004c9aebe68913ee2a67f3a6aba07b24d4edd11daab61d37",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(_STDOUT_SHA256)


@pytest.mark.parametrize("name, digest", sorted(_STDOUT_SHA256.items()), ids=sorted(_STDOUT_SHA256))
def test_demo_stdout_pinned(capsys, name, digest):
    runpy.run_path(str(_DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
