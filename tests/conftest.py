"""The one harness for command lines run in process."""

import contextlib
import io
import sys
import time
from unittest import mock

import pytest

from tenrank import cli


def _shown(argv) -> str:
    """The command line for a failure message, each word of over 200
    characters cut to its first 20."""
    return " ".join(w if len(w) <= 200 else f"{w[:20]}... ({len(w)} characters)" for w in argv)


def _run_checked(argv, want=0, stdin="", seconds=None):
    """`cli.main(argv)` with `stdin` as its standard input.  It must end in
    exit code `want` (an int, or a tuple of the codes allowed), with under
    200 bytes on stderr, no traceback on stdout or stderr and, when
    `seconds` is given, within that many seconds.  Returns (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    where = (_shown(argv), err[:300])
    assert code in ((want,) if isinstance(want, int) else want), (code, *where)
    assert "Traceback" not in out + err, where
    assert len(err.encode()) < 200, where
    assert seconds is None or elapsed < seconds, (elapsed, *where)
    return out, err


@pytest.fixture(scope="session")
def cli_run():
    """The checked in-process run of one command line: see `_run_checked`."""
    return _run_checked
