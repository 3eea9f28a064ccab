"""The committed calibration fixture is reproduced bit for bit."""

from gkcurv.calibration import calibrate


def test_calibration_matches_fixture():
    assert calibrate()["status"] == "match"
