import contextlib
import io

import pytest

from rlsol.cli import main


@pytest.fixture(scope="session")
def verify_run() -> tuple[int, str]:
    """Exit code and standard output of one full ``rlsol verify`` run.

    The run takes over a second, so the tests that need a green ``verify``
    share it.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, out.getvalue()
