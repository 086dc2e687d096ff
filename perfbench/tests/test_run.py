"""A figure the workload cannot compute is a counted failure, not a crash."""

from perfbench.run import run_end_to_end


class _Broken:
    """Every unit works, but the quality figures cannot be computed."""

    name = "broken"
    min_units = 100

    def setup(self):
        pass

    def unit(self, u):
        return 1

    def observe(self, u):
        pass

    def latencies(self, unit_latencies):
        return unit_latencies

    def check(self):
        return 0, set(), []

    def quality(self):
        raise ZeroDivisionError("no snapshot")

    def choices(self):
        return {}

    def teardown(self):
        pass


def test_failed_quality_counts_against_success_rate():
    metrics, _choices, (attempted, failed, notes) = run_end_to_end(_Broken(), 0.0)
    assert attempted == 100
    assert failed == 1
    assert metrics["success_rate"][0] == 0.99
    assert metrics["sim_pj_per_read"][0] == 0.0
    assert any("no snapshot" in note for note in notes)
