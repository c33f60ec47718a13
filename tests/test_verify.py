from permpat import verify
from permpat.core import DEFAULT_BUDGET
from permpat.matcher import MatchRequest, Mode, match_dispatch
from permpat.verify import (
    all_block_configs,
    all_patterns,
    run_suites,
    suite_engines,
    suite_fo,
    suite_lis,
    suite_reduction,
)


def test_block_config_counts():
    assert len(all_block_configs(1)) == 1
    assert len(all_block_configs(2)) == 2
    assert len(all_block_configs(3)) == 4
    assert len(all_block_configs(4)) == 8
    assert all_block_configs(2) == [(), ((1, 2),)]


def test_all_patterns_counts():
    assert len(all_patterns(1)) == 1
    assert len(all_patterns(2)) == 4
    assert len(all_patterns(3)) == 24
    assert len(all_patterns(4)) == 192


def test_engines_suite_small():
    results = suite_engines(max_n=4, max_k=3, samples=30, seed=1)
    assert all(r.ok for r in results)
    assert any("backtracking == brute force" in r.detail for r in results)


def test_reduction_suite_small():
    results = suite_reduction(max_l=4, max_k=3, samples=10, seed=1)
    assert all(r.ok for r in results)
    assert any("IS ⟺ GPPM agreed" in r.detail for r in results)


def test_fo_suite_small():
    results = suite_fo(max_n=4, max_k=3, samples=30, seed=1)
    assert all(r.ok for r in results)


def test_lis_suite_small():
    results = suite_lis(samples=30, seed=1)
    assert all(r.ok for r in results)


def test_suites_are_deterministic_per_seed():
    a = suite_reduction(max_l=5, max_k=2, samples=15, seed=42)
    b = suite_reduction(max_l=5, max_k=2, samples=15, seed=42)
    assert [(r.name, r.ok, r.instances, r.detail) for r in a] == [
        (r.name, r.ok, r.instances, r.detail) for r in b
    ]


def test_run_suites_selects_suites():
    only_engines = run_suites("engines", max_n=3, max_k=2, samples=5, seed=0)
    assert {r.name for r in only_engines} == {
        "engine equivalence",
        "embedding validity",
        "adjacency monotonicity",
        "classical consistency",
        "complement symmetry",
    }
    only_fo = run_suites("fo", max_n=3, max_k=2, samples=5, seed=0)
    assert all("fo" in r.name or "formula" in r.name for r in only_fo)
    only_lis = run_suites("lis", samples=5, seed=0)
    assert [r.name for r in only_lis] == ["lis fast path"]


def test_run_suites_all_includes_the_lis_fast_path():
    names = [r.name for r in run_suites("all", max_n=3, max_k=2, max_l=3, samples=5, seed=0)]
    assert names[-1] == "lis fast path"
    expected = {"engine equivalence", "independent set vs matcher", "fo decider agreement"}
    assert expected <= set(names)


def _last_embedding(req, engine="auto", budget=DEFAULT_BUDGET):
    """A wrong auto decider: a valid witness, but the greatest one, not the
    least.  Every other engine and mode answers correctly."""
    if req.mode is not Mode.DECIDE or engine != "auto":
        return match_dispatch(req, engine, budget)
    found = match_dispatch(MatchRequest(req.pattern, req.text, Mode.ENUMERATE_ALL))
    return found[-1] if found else None


def _brute_out_of_order(req, engine="auto", budget=DEFAULT_BUDGET):
    """A wrong brute engine: every embedding, but in reverse lexicographic order."""
    found = match_dispatch(req, engine, budget)
    if engine == "brute" and req.mode is Mode.ENUMERATE_ALL:
        return found[::-1]
    return found


def test_suites_reject_a_witness_that_is_not_the_least(monkeypatch):
    monkeypatch.setattr(verify, "match_dispatch", _last_embedding)
    lis = {r.name: r for r in suite_lis(samples=30, seed=1)}
    assert not lis["lis fast path"].ok
    fo = {r.name: r for r in suite_fo(max_n=4, max_k=3, samples=0, seed=1)}
    assert not fo["fo decider agreement"].ok
    monkeypatch.setattr(verify, "match_dispatch", _brute_out_of_order)
    engines = {r.name: r for r in suite_engines(max_n=4, max_k=3, samples=0, seed=1)}
    assert not engines["engine equivalence"].ok
