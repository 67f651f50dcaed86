"""The exit-code contract at the edges of a double.

Each flag of the README commands whose value reads as a number, and of
three more commands, is set in turn to nan, inf, -inf, +-1e308, 0 and
1e-308, and the command is run through cli.dispatch in-process.  nan must
be refused (exit 2).  Any other value may succeed (0), be refused (2) or
fail for precision (1, with stderr starting "precision failure:"); no
exception may escape, and a call still running after LIMIT seconds fails.
"""

import contextlib
import io
import signal

import pytest
from test_cli_bytes import _readme_commands

from specsum.cli import dispatch

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "1e-308")
LIMIT = 10  # seconds per command


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cases():
    commands = _readme_commands() + [
        ["bessel", "--order", "1", "--x", "2"],
        ["ksum", "--field", "Q", "--box", "10", "--r", "1"],
        ["measure", "--kind", "pl", "--lo", "1", "--hi", "2"],
    ]
    for argv in commands:
        for i, flag in enumerate(argv[:-1]):
            if flag.startswith("--") and _is_number(argv[i + 1]):
                for value in VALUES:
                    # --flag=value, so that argparse reads -inf as a value
                    yield argv[:i] + [f"{flag}={value}"] + argv[i + 2:]


class _Hang(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _alarm(signum, frame):
    raise _Hang(f"still running after {LIMIT} s")


@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_extreme_number_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dispatch(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    if any(a.endswith("=nan") for a in argv):
        assert rc == 2, err
    elif rc == 1:
        assert err.startswith("precision failure:"), err
    else:
        assert rc in (0, 2), err
