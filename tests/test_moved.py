"""The pin regenerators' report of moved (value, error) pairs."""

from moved import report


def test_moved_pair_prints_its_ratio(capsys):
    report("cmd", {"value": [1.0, 0.0], "error": 1.0},
           {"value": [1.5, 0.0], "error": 1.0})
    assert capsys.readouterr().out == (
        "cmd : ([1.0, 0.0], 1.0) -> ([1.5, 0.0], 1.0); "
        "|old - new| / (err_old + err_new) = 0.25\n")


def test_zero_error_closed_form_that_moves_prints_inf(capsys):
    report("cmd", {"value": 2.0, "error": 0.0}, {"value": 3.0, "error": 0.0})
    assert capsys.readouterr().out.endswith(
        "|old - new| / (err_old + err_new) = inf\n")


def test_unmoved_and_reshaped_outputs(capsys):
    report("cmd", {"value": 1.0, "error": 0.0}, {"value": 1.0, "error": 0.0})
    assert capsys.readouterr().out == ""
    report("cmd", {"value": 1.0, "error": 0.0}, {"stdout": "x"})
    assert capsys.readouterr().out == "cmd: moved\n"
