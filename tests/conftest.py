import subprocess
import sys

import pytest


@pytest.fixture(scope="session")
def selftest_run():
    """`seritree selftest` run once in a fresh interpreter, for every test that reads it.

    Returns its exit code, its printed rows and the scipy modules it loaded.
    """
    code = (
        "import sys; from seritree.cli import main; code = main(['selftest']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    *rows, last = out.stdout.splitlines()
    exit_code, scipy_modules = last.split(" ", 1)
    return int(exit_code), "\n".join(rows), scipy_modules
