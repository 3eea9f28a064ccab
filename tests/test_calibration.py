"""The committed calibration fixture is reproduced bit for bit."""

from gkcurv.calibration import FAST_KEYS, calibrate


def test_fast_calibration_matches_fixture():
    res = calibrate()
    assert res["checked_keys"] == list(FAST_KEYS)
    assert res["status"] == "match"
