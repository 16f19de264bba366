"""The package's lazy surface: what ``import statesep`` and each CLI command load.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import statesep

# Modules that the solvers and the CLI's curve and point commands never need.
# SciPy is a test dependency only: nothing in the package may load it.
_HEAVY = (
    "numpy",
    "scipy",
    "statesep.conics",
    "statesep.optics",
    "statesep.oracle",
    "statesep.verify",
)


def _fresh(script: str) -> str:
    """Run ``script`` in a new interpreter with RuntimeWarnings as errors; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(statesep.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(*modules: str) -> str:
    """Script lines printing which of ``modules`` are in ``sys.modules``."""
    return f"print(sorted(m for m in {modules!r} if m in sys.modules))"


@pytest.mark.parametrize("script", ["import statesep", "import statesep.cli"])
def test_import_loads_no_numpy(script):
    assert _fresh(f"import sys\n{script}\n{_loaded(*_HEAVY)}") == "[]\n"


def test_point_commands_load_no_numpy():
    # CSV output also adds neither dataclasses nor json; the interpreter's
    # own start-up may have loaded either, so only additions count.
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "before = set(sys.modules)",
            "from statesep.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(['ud', '--s', '0.6', '--samples', '64']) == 0",
            "    assert main(['maxsep', '--eta1', '0.1', '--q-max', '0.4', '--samples', '64']) == 0",
            "    assert main(['qmin', '--s', '0.6', '--s-prime', '0', '--samples', '64']) == 0",
            "    assert main(['qmin', '--s', '0.6', '--s-prime', '0.6', '--samples', '64']) == 0",
            "    assert main(['qmin', '--s', '0.6', '--s-prime', '0.3', '--samples', '64']) == 0",
            "    for eta1 in ('0.1', '0.5', '0'):",
            "        argv = ['tradeoff', '--eta1', eta1, '--s', '0.6', '--samples', '64']",
            "        assert main(argv) == 0",
            "print(sorted(m for m in ('dataclasses', 'json') if m in set(sys.modules) - before))",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(['qmin', '--s', '0.6', '--s-prime', '0.3', '--format', 'json']) == 0",
            _loaded(*_HEAVY),
        ]
    )
    assert _fresh(script) == "[]\n[]\n"


def test_point_solvers_load_no_numpy():
    script = "\n".join(
        [
            "import sys",
            "import statesep",
            "statesep.qmin_at(statesep.Priors.of(0.3), statesep.OverlapSpec(0.6, 0.3))",
            "statesep.max_separation(statesep.Priors.of(0.3), 0.6, 0.3)",
            "statesep.qmin_curve(statesep.OverlapSpec(0.6, 0.3), 64)",
            "for eta1 in (0.1, 0.5, 0.0):",
            "    statesep.tradeoff_curve(statesep.Priors.of(eta1), 0.6, 64)",
            "statesep.tradeoff_at(statesep.Priors.of(0.2), 0.6, 0.3)",
            "statesep.max_clones(0.6, 0.3, statesep.Priors.of(0.2))",
            _loaded(*_HEAVY),
            "statesep.oracle_qmin(statesep.Priors.of(0.3), statesep.OverlapSpec(0.6, 0.3))",
            _loaded("numpy", "statesep.conics"),
        ]
    )
    assert _fresh(script) == "[]\n[]\n"


@pytest.mark.parametrize(
    "argv, header",
    [
        (["qmin", "--s", "0.6", "--s-prime", "0.3", "--samples", "9"], "t,eta1,q_min,q1,q2"),
        (["tradeoff", "--eta1", "0.2", "--s", "0.6", "--samples", "9"], "theta,q,s_prime"),
        (["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "20000"], "key,value"),
        (
            ["verify", "--samples", "2", "--shots", "20000", "--seed", "903"],
            "check,worst_deviation,tolerance,status",
        ),
    ],
    ids=["qmin", "tradeoff", "optics", "verify"],
)
def test_numpy_commands_run_from_a_fresh_process(argv, header):
    # No command loads dataclasses: every value class shares core's base.
    script = "\n".join(
        [
            "import sys",
            "before = set(sys.modules)",
            "from statesep.cli import main",
            f"code = main({argv!r})",
            "assert 'dataclasses' not in set(sys.modules) - before, 'dataclasses loaded'",
            "sys.exit(code)",
        ]
    )
    assert _fresh(script).splitlines()[0] == header


@pytest.mark.parametrize("module", ["statesep", "statesep.cli"])
def test_python_m_statesep_loads_no_scipy(module):
    # ``python -m statesep`` and ``python -m statesep.cli``, run through
    # runpy's ``__main__`` as the interpreter runs them.
    script = "\n".join(
        [
            "import contextlib, io, runpy, sys",
            "sys.argv = ['statesep', 'optics', '--s', '0.6', '--s-prime', '0.3',",
            "            '--shots', '20000']",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    try:",
            f"        runpy.run_module({module!r}, run_name='__main__')",
            "    except SystemExit as exc:",
            "        assert exc.code == 0, exc.code",
            _loaded("scipy"),
        ]
    )
    assert _fresh(script) == "[]\n"


def test_every_public_name_resolves_to_its_defining_module():
    script = "\n".join(
        [
            "import importlib, statesep",
            "for name in statesep.__all__[1:]:",
            "    module = importlib.import_module(f'statesep.{statesep._MODULE_OF[name]}')",
            "    assert name in module.__all__, name",
            "    assert getattr(statesep, name) is getattr(module, name), name",
            "print(len(statesep.__all__))",
        ]
    )
    assert _fresh(script) == f"{len(statesep.__all__)}\n"
    assert statesep.__all__[0] == "__version__"


def test_submodules_resolve_through_the_package():
    script = "\n".join(
        [
            "import sys, statesep",
            "for name in ('core', 'conics', 'solvers', 'oracle', 'optics'):",
            "    assert getattr(statesep, name) is sys.modules[f'statesep.{name}'], name",
            "print('ok')",
        ]
    )
    assert _fresh(script) == "ok\n"


def test_star_import_and_dir_cover_all():
    script = "\n".join(
        [
            "import statesep",
            "listed = set(dir(statesep))",
            "namespace = {}",
            "exec('from statesep import *', namespace)",
            "print(sorted(set(statesep.__all__) - listed), sorted(set(statesep.__all__) - set(namespace)))",
        ]
    )
    assert _fresh(script) == "[] []\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        statesep.no_such_name
    assert not hasattr(statesep, "verify_all")
    # Helpers that only the tests used, the budget wrapper (budgets are
    # plain floats) and the oracle's s' bisection (max_separation is judged
    # in Q at its own s') are gone from the API.
    names = ("average_failure", "in_feasible_set", "to_conic", "FailureBudget", "oracle_max_separation")
    for name in names:
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(statesep, name)
