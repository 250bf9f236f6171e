"""The package's import surface: names resolved on first use, and the command
entry that pins BLAS threads before numpy loads.  The checks that need a
fresh interpreter run in a child process."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hawkes_rkhs

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, **env_extra):
    """The words ``code`` prints in a child interpreter that imports the package
    these tests import, with the BLAS thread variables unset but env_extra."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARS}
    package_root = str(Path(hawkes_rkhs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(env_extra)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_loads_no_numpy_and_submodules_resolve_on_first_use():
    code = ("import sys, hawkes_rkhs\n"
            "print('numpy' in sys.modules, 'scipy' in sys.modules,\n"
            "      'hawkes_rkhs.estimator' in sys.modules)\n"
            "print(hawkes_rkhs.estimator.__name__, hawkes_rkhs.fit.__module__)\n")
    assert run_python(code) == ["False", "False", "False",
                                "hawkes_rkhs.estimator", "hawkes_rkhs.estimator"]


@pytest.mark.parametrize("name", hawkes_rkhs.__all__)
def test_each_export_is_its_modules_object(name):
    module = importlib.import_module(f"hawkes_rkhs.{hawkes_rkhs._EXPORTS[name]}")
    assert getattr(hawkes_rkhs, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hawkes_rkhs.no_such_name
    assert not hasattr(hawkes_rkhs, "sinc_u")  # public in features, not exported


@pytest.mark.parametrize("preset,seen", [({}, ["1", "1", "1"]),
                                         ({"OPENBLAS_NUM_THREADS": "2"}, ["1", "2", "1"])])
def test_entry_sets_one_blas_thread_unless_preset(preset, seen):
    # a stand-in cli reports what the entry hands over to it, before numpy loads
    code = ("import os, sys, types\n"
            f"report = lambda argv: print(*(os.environ[v] for v in {BLAS_VARS!r}),\n"
            "                             'numpy' in sys.modules, argv)\n"
            "sys.modules['hawkes_rkhs.cli'] = types.SimpleNamespace(main=report)\n"
            "from hawkes_rkhs.__main__ import main\n"
            "main(['fit'])\n")
    assert run_python(code, **preset) == seen + ["False", "['fit']"]
