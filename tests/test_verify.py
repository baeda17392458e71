from fractions import Fraction

import pytest

from cyldla import cli, dla, verify, walk1d


def test_walk1d_suite_passes():
    results = verify.run_suite("walk1d", seed=1)
    assert results and all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]


def test_spectral_suite_passes():
    results = verify.run_suite("spectral", seed=1)
    assert results and all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nosuch")


def test_mutated_ballot_formula_is_caught(monkeypatch):
    # negative control: a wrong closed form must produce a FAIL line
    def wrong_ballot(n):
        return Fraction(1, 2**n)

    monkeypatch.setattr(walk1d, "ballot_probability", wrong_ballot)
    results = verify.run_suite("walk1d", seed=1)
    ballot = [r for r in results if r.name == "ballot-vs-enumeration"]
    assert ballot and not ballot[0].passed


def test_mutated_zero_count_formula_is_caught(monkeypatch):
    original = walk1d.zero_count_cdf

    def wrong_cdf(n, m):
        return original(n, m) * Fraction(1, 2)

    monkeypatch.setattr(walk1d, "zero_count_cdf", wrong_cdf)
    results = verify.run_suite("walk1d", seed=1)
    zc = [r for r in results if r.name == "zero-count-cdf-vs-enumeration"]
    assert zc and not zc[0].passed


def test_every_check_is_declared_once():
    declared = [check for table in verify.SUITES.values() for _, check in table]
    defined = [f for name, f in vars(verify).items() if name.startswith("_check_")]
    assert sorted(declared, key=id) == sorted(defined, key=id)
    names = [name for table in verify.SUITES.values() for name, _ in table]
    assert len(names) == len(set(names)) == 27


def test_mutated_first_passage_tail_is_caught(monkeypatch):
    # the tail identity reports under the check's own name
    monkeypatch.setattr(walk1d, "first_passage_tail", lambda k: 0.5)
    results = verify.run_suite("walk1d", seed=1)
    sampler = [r for r in results if r.name == "first-passage-sampler"]
    assert sampler and not sampler[0].passed and sampler[0].detail == "tail mismatch at k=0"


def test_path_bound_violation_prints_fail(monkeypatch, capsys):
    original = verify.count_constrained_paths

    def violated_on_random(g, sets):
        if g.label.startswith("random"):
            raise RuntimeError(f"exact path count exceeds spectral bound on {g.label}")
        return original(g, sets)

    monkeypatch.setattr(verify, "count_constrained_paths", violated_on_random)
    assert cli.main(["verify", "spectral", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert (
        "FAIL path-count-spectral-bound - RuntimeError: exact path count exceeds spectral bound on random:10:3:seed=1"
        in lines
    )
    assert len(lines) == 9 and lines[-1].startswith("# 7/8 checks passed")


def test_a_check_that_raises_fails_on_its_own_line(monkeypatch, capsys):
    def raises(g, sets):
        raise RuntimeError(f"no count on {g.label}")

    monkeypatch.setattr(verify, "count_constrained_paths", raises)
    assert cli.main(["verify", "spectral", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL path-count-hand-case - RuntimeError: no count on complete:3" in lines
    assert "FAIL path-count-spectral-bound - RuntimeError: no count on complete:4" in lines
    assert len(lines) == 9 and lines[-1].startswith("# 6/8 checks passed")


def test_a_raising_oracle_fails_only_its_check(monkeypatch):
    def raises(*args):
        raise RuntimeError("oracle failed")

    monkeypatch.setattr(verify, "first_hit_distribution", raises)
    results = verify.run_suite("dla", seed=1)
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        ("first-hit-oracle", "RuntimeError: oracle failed")
    ]


@pytest.mark.parametrize(
    "exc, detail", [(ZeroDivisionError(), "ZeroDivisionError"), (KeyError(3), "KeyError: 3")]
)
def test_a_raised_exception_is_named_by_its_type(monkeypatch, capsys, exc, detail):
    def raises(g, sets):
        raise exc

    monkeypatch.setattr(verify, "count_constrained_paths", raises)
    assert cli.main(["verify", "spectral", "--seed", "1"]) == 1
    assert f"FAIL path-count-hand-case - {detail}" in capsys.readouterr().out.splitlines()


def test_mutated_load_at_least_is_caught(monkeypatch):
    original = dla.load_at_least
    monkeypatch.setattr(dla, "load_at_least", lambda cluster, i: original(cluster, i + 1))
    results = verify.run_suite("dla", seed=1)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["load-increment-identity"]
