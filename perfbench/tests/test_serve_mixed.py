import pytest

import serve_mixed
from repro.properties import ALL_PROPERTIES

CATALOG = tuple(p.identifier for p in ALL_PROPERTIES)


def schedule(seed, seconds=20.0):
    return serve_mixed.make_schedule(seed, seconds, CATALOG)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    @pytest.mark.parametrize("seed", range(10))
    def test_cold_jobs_never_repeat(self, seed):
        cold = [(j.implementation, j.properties) for j in schedule(seed)
                if j.kind == "cold"]
        assert len(cold) == len(set(cold))
        assert all(1 <= len(props) <= serve_mixed.MAX_PROPERTIES
                   and list(props) == sorted(set(props))
                   for _, props in cold)

    @pytest.mark.parametrize("seed", range(10))
    def test_mix_shares_hold_in_each_phase(self, seed):
        jobs = schedule(seed)
        phases = [("steady", 0, round(serve_mixed.RATE * 20
                                      * serve_mixed.STEADY_SHARE))]
        phases += [("burst", b, round(serve_mixed.BURST_PER_SECOND * 20
                                      / serve_mixed.BURSTS))
                   for b in range(serve_mixed.BURSTS)]
        for phase, burst, n in phases:
            kinds = [j.kind for j in jobs
                     if j.phase == phase and j.burst == burst]
            assert len(kinds) == n
            assert kinds.count("fuzz") == round(n * serve_mixed.FUZZ_SHARE)
            assert kinds.count("hit") == round(n * serve_mixed.HIT_SHARE)
            assert abs(kinds.count("cold") / n
                       - serve_mixed.COLD_SHARE) <= 1 / n

    @pytest.mark.parametrize("seed", range(10))
    def test_hits_resubmit_an_earlier_cold_job(self, seed):
        jobs = schedule(seed)
        for job in jobs:
            if job.kind != "hit":
                continue
            source = jobs[job.source]
            assert source.kind == "cold" and source.phase == "steady"
            assert (source.implementation, source.properties) \
                == (job.implementation, job.properties)
            if job.phase == "steady":
                assert source.offset <= job.offset - serve_mixed.HIT_LAG_S

    def test_steady_arrivals_are_ordered_and_in_the_window(self):
        steady = [j.offset for j in schedule(3) if j.phase == "steady"]
        assert steady == sorted(steady)
        assert 0.0 <= steady[0]
        assert steady[-1] <= 20.0 * serve_mixed.STEADY_SHARE

    def test_fuzz_jobs_get_distinct_corpus_dirs(self):
        jobs = [j for j in schedule(5) if j.kind == "fuzz"]
        dirs = {serve_mixed.payload_for(j, "/c")["corpus_dir"] for j in jobs}
        assert len(dirs) == len(jobs)
        payload = serve_mixed.payload_for(jobs[0], "/c")
        assert payload["type"] == "fuzz"
        assert payload["budget_execs"] == serve_mixed.FUZZ_EXECS


class TestListeningLine:
    def test_parses_the_cli_line(self):
        line = ("repro serve: listening on http://127.0.0.1:43817 "
                "(2 worker(s), store at s, journal at j)")
        assert serve_mixed.parse_listening(line) == ("127.0.0.1", 43817)

    @pytest.mark.parametrize("line", [
        "", "repro serve: draining", "listening on http://127.0.0.1:",
        "fault plan installed: none"])
    def test_other_lines_do_not_parse(self, line):
        assert serve_mixed.parse_listening(line) is None



class TestCompletionRate:
    def test_even_completions(self):
        finished = [10.0 + 0.5 * i for i in range(30)]   # two per second
        assert serve_mixed.completion_rate(finished) == pytest.approx(120.0)

    def test_order_does_not_matter(self):
        finished = [3.0, 1.0, 2.0, 4.0]
        assert serve_mixed.completion_rate(finished) == pytest.approx(60.0)

    def test_too_few_completions(self):
        assert serve_mixed.completion_rate([1.0]) == 0.0
