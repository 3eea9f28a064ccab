from gkcurv.selftest import SUITE, run_suite


def test_run_suite_small_seeded():
    """Every lemma family passes on a small seeded run, and the obstruction
    family meets a nonzero N, so its N . psi = 0 check is not 0 = 0."""
    results = run_suite(seed=7, instances=2)
    assert [r["name"] for r in results] == [name for name, _ in SUITE]
    assert all(r["passed"] for r in results), results
    obstruction = next(r for r in results if r["name"] == "obstruction_kills_psi")
    assert obstruction["nonzero_obstruction_instances"] > 0
