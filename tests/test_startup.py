"""Start-up: what `import fiberdim` and `import fiberdim.cli` load, the BLAS thread count, and
that no CLI run but `verify` loads `numpy.random`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiberdim

SRC = Path(__file__).resolve().parents[1] / "src"
# the test process has imported fiberdim.cli, which set the variable here too
CLEAN_ENV = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def _run(args, cwd=None, **env):
    done = subprocess.run(
        [sys.executable, *args],
        env={**CLEAN_ENV, "PYTHONPATH": str(SRC), **env},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def _python(code, **env):
    return _run(["-c", code], **env).stdout.strip()


def test_import_fiberdim_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, fiberdim; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m.startswith('fiberdim.')))"
    )
    assert _python(code) == "[]"


def test_import_cli_compiles_no_verify_suite():
    code = "import sys, fiberdim.cli; print([m in sys.modules for m in "
    code += "('fiberdim.verification', 'fiberdim.transfer', 'fiberdim.experiments', "
    code += "'multiprocessing', 'dataclasses')])"
    # perturb keeps experiments eager; no subcommand starts a process pool, and the
    # records and specs are built without dataclasses
    assert _python(code) == "[False, False, True, False, False]"


def test_cli_sets_one_blas_thread_unless_preset():
    code = "import os, fiberdim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code) == "1"
    assert _python(code, OPENBLAS_NUM_THREADS="3") == "3"
    if Path("/proc/self/status").exists():  # and OpenBLAS starts no thread of its own
        code = "import fiberdim.cli; print(open('/proc/self/status').read().split('Threads:')[1])"
        assert _python(code).split()[0] == "1"


def test_exports_are_their_modules_objects():
    for name, module in fiberdim._MODULE_OF.items():
        assert getattr(fiberdim, name) is getattr(sys.modules[f"fiberdim.{module}"], name), name
    star = {}
    exec("from fiberdim import *", star)  # a star import still gives every export
    assert set(fiberdim._MODULE_OF) <= set(star)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fiberdim, "no_such_name")
    assert not hasattr(fiberdim, "run_all")  # verification's names are not re-exported
    from fiberdim import cli  # a submodule, not an export

    assert cli.__name__ == "fiberdim.cli"


def test_blas_thread_count_changes_no_byte(tmp_path):
    # the box count's polyfit is the one LAPACK call; stdout, the roots CSV and
    # the box CSV are the same with two OpenBLAS threads as with the default one
    outputs = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        run_dir = tmp_path / str(len(outputs))
        run_dir.mkdir()
        done = _run(
            ["-m", "fiberdim", "dimension", "--seq", "random:seed=7,min=45,max=80",
             "--window", "8:12", "--tol", "1e-8", "--box-check", "--box-depth", "14",
             "--box-out", "box.csv", "-o", "roots.csv"],
            cwd=run_dir,
            **env,
        )
        outputs.append((done.stdout, (run_dir / "roots.csv").read_bytes(),
                        (run_dir / "box.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert "box-check: slope" in outputs[0][0]


def test_import_sequences_loads_no_numpy():
    code = "import sys, fiberdim.sequences; "
    code += "print(any(m.split('.')[0] == 'numpy' for m in sys.modules))"
    assert _python(code) == "False"


@pytest.mark.parametrize(
    "args",
    [
        ["pressure", "--seq", "random:seed=7,min=45,max=80", "--t", "0:0.4:3", "--n", "4:8"],
        ["perturb", "--base", "random:seed=7,min=45,max=80", "--x=-0.05:0.05:3", "--t", "0.18",
         "--window", "2:6", "--workers", "1"],
        ["perturb", "--base", "random:seed=7,min=45,max=80", "--x=-0.05:0.05:3", "--t", "0.18",
         "--window", "2:6", "--workers", "2"],
        ["dimension", "--seq", "const:50", "--window", "8:12", "--box-check"],
    ],
    ids=["pressure", "perturb", "perturb-workers-2", "dimension-box-check"],
)
def test_cli_runs_but_verify_never_load_numpy_random(args, tmp_path):
    # random: draws come from the pure-Python Philox in sequences and the box
    # count's grid offsets from the pure-Python PCG64 in boxcount; numpy.random
    # loads only for verify.  No run loads multiprocessing, whatever --workers says.
    code = (
        "import sys; from fiberdim import cli; "
        f"code = cli.main({[*args, '-o', str(tmp_path / 'out.csv')]!r}); "
        "print(code, 'numpy.random' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    assert _python(code).splitlines()[-1] == "0 False False"
