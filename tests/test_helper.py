import multiprocessing
import os

import pytest

from measim import helper


def core_free(monkeypatch, free: bool) -> None:
    """Make helper.start see a free CPU core for a helper process, or none."""
    monkeypatch.setattr(helper, "core_for_helper", lambda: free)


def test_start_without_a_core_computes_in_send_and_answers_in_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("helper process started")

    core_free(monkeypatch, False)
    monkeypatch.setattr(helper, "Helper", refuse)
    asked = []

    def handle(request):
        asked.append((request, os.getpid()))
        return 10 * request

    with helper.start("measim-test", handle) as side:
        side.send(1)
        side.send(2)
        # each reply is formed when its request is sent, in this process
        assert asked == [(1, os.getpid()), (2, os.getpid())]
        assert side.recv() == 10
        side.send(3)
        assert [side.recv(), side.recv()] == [20, 30]
        assert multiprocessing.active_children() == []


def test_start_without_a_core_raises_handler_errors_from_send(monkeypatch):
    core_free(monkeypatch, False)

    def handle(request):
        if request == "bad":
            raise ValueError("bad request on purpose")
        return request

    side = helper.start("measim-test", handle)
    side.send("good")
    with pytest.raises(ValueError) as caught:
        side.send("bad")
    assert type(caught.value) is ValueError
    assert str(caught.value) == "bad request on purpose"
    assert side.recv() == "good"


def test_start_without_a_core_closes_on_leaving_with(monkeypatch):
    core_free(monkeypatch, False)
    side = helper.start("measim-test", lambda request: request)
    closed = []
    monkeypatch.setattr(type(side), "close", lambda self: closed.append(self))
    with pytest.raises(KeyboardInterrupt):
        with side as entered:
            assert entered is side
            raise KeyboardInterrupt
    assert closed == [side]


def test_start_with_a_core_forks_a_named_helper(monkeypatch):
    core_free(monkeypatch, True)
    with helper.start("measim-test", lambda request: (request, os.getpid())) as side:
        assert isinstance(side, helper.Helper)
        assert [p.name for p in multiprocessing.active_children()] == ["measim-test"]
        side.send(1)
        side.send(2)
        first, second = side.recv(), side.recv()
        assert (first[0], second[0]) == (1, 2)
        assert first[1] == second[1] != os.getpid()
    assert multiprocessing.active_children() == []
