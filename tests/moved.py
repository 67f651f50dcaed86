"""The pin regenerators' report of moved outputs.

`python tests/test_cli_bytes.py` and `python tests/test_besseltransform.py`
compare what they are about to write with the file on disk and print each
(value, error) that moved, with |old - new| / (err_old + err_new): the list
a change that moves pins states.  An output that moved without holding a
(value, error) pair is named as moved.
"""

import math


def records(obj, path=""):
    """(path, value, error) of every dict in a decoded JSON output that
    holds a value and an error."""
    if isinstance(obj, dict):
        if "value" in obj and "error" in obj:
            yield path, obj["value"], obj["error"]
        for key, val in obj.items():
            yield from records(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from records(val, f"{path}[{i}]")


def _number(value):
    return complex(*value) if isinstance(value, list) else complex(value)


def report(label, old, new):
    """Print the moves from old to new, two decoded outputs under label."""
    if old == new:
        return
    before, after = list(records(old)), list(records(new))
    if not before or [r[0] for r in before] != [r[0] for r in after]:
        print(f"{label}: moved")
        return
    for (path, v0, e0), (_, v1, e1) in zip(before, after):
        if (v0, e0) != (v1, e1):
            moved = abs(_number(v0) - _number(v1))
            # a zero-error closed form that moves is off by infinitely many bars
            ratio = moved / (e0 + e1) if e0 + e1 else math.inf
            print(f"{label} {path}: ({v0}, {e0}) -> ({v1}, {e1}); "
                  f"|old - new| / (err_old + err_new) = {ratio:.3g}")
