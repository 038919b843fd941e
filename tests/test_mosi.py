"""Unit tests for the MOSI protocol tables (with the O_D collapse)."""

import pytest

from repro.coherence.messages import ReqKind
from repro.coherence.mosi import (Action, State, needs_data_for_write,
                                  on_remote_request, request_for)


class TestStates:
    def test_owner_states(self):
        assert State.M.is_owner and State.O.is_owner
        assert not State.S.is_owner and not State.I.is_owner

    def test_readable_writable(self):
        assert State.M.writable
        assert not State.O.writable and not State.S.writable
        assert State.S.readable and not State.I.readable


class TestRemoteRequests:
    def test_gets_on_m_supplies_and_downgrades(self):
        tr = on_remote_request(State.M, ReqKind.GETS)
        assert tr.next_state is State.O
        assert Action.SEND_DATA in tr.actions

    def test_gets_on_o_stays_owner(self):
        tr = on_remote_request(State.O, ReqKind.GETS)
        assert tr.next_state is State.O
        assert Action.SEND_DATA in tr.actions

    def test_gets_on_s_silent(self):
        tr = on_remote_request(State.S, ReqKind.GETS)
        assert tr.next_state is State.S
        assert Action.SEND_DATA not in tr.actions

    def test_getx_invalidates_owner_with_data(self):
        for state in (State.M, State.O):
            tr = on_remote_request(state, ReqKind.GETX)
            assert tr.next_state is State.I
            assert Action.SEND_DATA in tr.actions
            assert Action.INVALIDATE_L1 in tr.actions

    def test_getx_invalidates_sharer_silently(self):
        tr = on_remote_request(State.S, ReqKind.GETX)
        assert tr.next_state is State.I
        assert Action.SEND_DATA not in tr.actions
        assert Action.INVALIDATE_L1 in tr.actions

    def test_put_leaves_sharers_alone(self):
        tr = on_remote_request(State.S, ReqKind.PUT)
        assert tr.next_state is State.S

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            on_remote_request(State.S, "bogus")


class TestRequestSelection:
    def test_read_hit_needs_nothing(self):
        for state in (State.M, State.O, State.S):
            assert request_for("R", state) is None

    def test_read_miss_needs_gets(self):
        assert request_for("R", State.I) is ReqKind.GETS

    def test_write_hit_in_m_silent(self):
        assert request_for("W", State.M) is None

    def test_write_elsewhere_needs_getx(self):
        for state in (State.O, State.S, State.I):
            assert request_for("W", state) is ReqKind.GETX

    def test_bad_op_raises(self):
        with pytest.raises(ValueError):
            request_for("X", State.I)

    def test_needs_data_for_write(self):
        assert not needs_data_for_write(State.M)
        assert not needs_data_for_write(State.O)
        assert needs_data_for_write(State.S)
        assert needs_data_for_write(State.I)
