"""Sequential-consistency litmus tests on the live SCORPIO system.

SCORPIO's global request order makes the system sequentially consistent
(Table 2); these tests run the canonical litmus shapes on real
cores/caches/networks with several timing seeds and check every observed
outcome against an SC witness.
"""

import pytest

from repro.verification.litmus import (ALL_LITMUS, COHERENCE_ORDER, IRIW,
                                       LOAD_BUFFERING, MESSAGE_PASSING,
                                       STORE_BUFFERING, LitmusProgram,
                                       Observation,
                                       is_sequentially_consistent,
                                       run_litmus, var_addr)


class TestVarAddresses:
    def test_distinct_lines(self):
        addrs = {var_addr(v) for v in ("x", "y", "z", "flag")}
        assert len(addrs) == 4
        assert all(a % 32 == 0 for a in addrs)


class TestChecker:
    def test_accepts_serial_execution(self):
        obs = [
            Observation(0, 0, "W", "x", 1),
            Observation(0, 1, "W", "y", 1),
            Observation(1, 0, "R", "y", 1),
            Observation(1, 1, "R", "x", 1),
        ]
        assert is_sequentially_consistent(MESSAGE_PASSING, obs)

    def test_rejects_mp_violation(self):
        # Consumer sees the flag (y=1) but stale data (x=0): non-SC.
        obs = [
            Observation(0, 0, "W", "x", 1),
            Observation(0, 1, "W", "y", 1),
            Observation(1, 0, "R", "y", 1),
            Observation(1, 1, "R", "x", 0),
        ]
        assert not is_sequentially_consistent(MESSAGE_PASSING, obs)

    def test_rejects_sb_violation(self):
        # Both reads of store-buffering returning 0 is the classic
        # TSO-allowed / SC-forbidden outcome.
        obs = [
            Observation(0, 0, "W", "x", 1),
            Observation(0, 1, "R", "y", 0),
            Observation(1, 0, "W", "y", 1),
            Observation(1, 1, "R", "x", 0),
        ]
        assert not is_sequentially_consistent(STORE_BUFFERING, obs)

    def test_accepts_sb_allowed_outcome(self):
        obs = [
            Observation(0, 0, "W", "x", 1),
            Observation(0, 1, "R", "y", 0),
            Observation(1, 0, "W", "y", 1),
            Observation(1, 1, "R", "x", 1),
        ]
        assert is_sequentially_consistent(STORE_BUFFERING, obs)

    def test_rejects_coherence_backwards(self):
        obs = [
            Observation(0, 0, "W", "x", 1),
            Observation(0, 1, "W", "x", 2),
            Observation(1, 0, "R", "x", 2),
            Observation(1, 1, "R", "x", 1),   # went backwards!
        ]
        assert not is_sequentially_consistent(COHERENCE_ORDER, obs)


@pytest.mark.parametrize("program", ALL_LITMUS, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_litmus_on_live_system(program, seed):
    observations = run_litmus(program, seed=seed)
    assert is_sequentially_consistent(program, observations), (
        f"{program.name} produced a non-SC outcome: {observations}")


def test_litmus_under_background_conflicts():
    # The same variables hammered by extra writer threads: outcomes must
    # still be explainable by some SC interleaving.
    program = LitmusProgram(
        name="mp-with-noise",
        threads=[
            [("W", "x"), ("W", "y")],
            [("R", "y"), ("R", "x")],
            [("W", "z"), ("R", "x")],
            [("R", "z"), ("W", "z")],
        ])
    for seed in (0, 3):
        observations = run_litmus(program, seed=seed)
        assert is_sequentially_consistent(program, observations)


def test_too_many_threads_rejected():
    program = LitmusProgram(name="big", threads=[[("R", "x")]] * 10)
    with pytest.raises(ValueError):
        run_litmus(program, width=3, height=3)


def litmus_verdicts(protocol, seeds):
    """The SC verdicts of a ``[litmus]`` document: every program of the
    suite, each under *protocol* at every seed of *seeds*."""
    from repro.api import experiment_from_dict, run_experiment
    return run_experiment(experiment_from_dict({
        "schema": 1, "name": "litmus",
        "litmus": {"protocol": protocol, "seeds": list(seeds)}})
    ).litmus_verdicts


@pytest.mark.parametrize("protocol", ["lpd", "ht", "fullbit"])
def test_litmus_on_directory_protocols(protocol):
    # The directory baselines must be sequentially consistent too — the
    # paper's methodology holds the protocol equal across systems.
    results = litmus_verdicts(protocol, seeds=(0, 1))
    assert all(results.values()), f"SC violation under {protocol}: " \
        f"{[n for n, ok in results.items() if not ok]}"


def test_run_suite_scorpio_all_pass():
    results = litmus_verdicts("scorpio", seeds=(0,))
    assert set(results) == {"message-passing", "store-buffering",
                            "load-buffering", "coherence-order", "iriw"}
    assert all(results.values())


def test_run_litmus_rejects_unknown_protocol():
    from repro.verification.litmus import MESSAGE_PASSING, run_litmus
    with pytest.raises(ValueError, match="unknown protocol"):
        run_litmus(MESSAGE_PASSING, protocol="tokenring")


def test_litmus_run_uses_its_whole_config():
    # The spec's chip reaches the litmus system, not only its mesh size:
    # with lookahead bypassing off the same program runs differently.
    from dataclasses import replace

    from repro.core.config import ChipConfig
    from repro.experiments.sweep import execute_point
    from repro.verification.litmus import litmus_spec
    spec = litmus_spec(MESSAGE_PASSING)
    no_bypass = replace(spec, config=ChipConfig.variant(
        3, 3, lookahead_bypass=False))
    assert execute_point(no_bypass).payload() \
        != execute_point(spec).payload()
