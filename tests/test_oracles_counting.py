"""Tests for query accounting."""

import pytest

from repro.exceptions import InvalidParameterError, QueryBudgetExceededError
from repro.oracles.counting import QueryCounter


def test_record_increments_counters():
    counter = QueryCounter()
    counter.record()
    counter.record(cached=True)
    counter.record(tag="assign")
    assert counter.total_queries == 3
    assert counter.cached_queries == 1
    assert counter.charged_queries == 2  # cached not charged by default
    assert counter.by_tag == {"assign": 1}


def test_cached_charged_when_configured():
    counter = QueryCounter(charge_cached=True)
    counter.record(cached=True)
    assert counter.charged_queries == 1


def test_budget_enforced():
    counter = QueryCounter(budget=2)
    counter.record()
    counter.record()
    with pytest.raises(QueryBudgetExceededError) as excinfo:
        counter.record()
    assert excinfo.value.counter is counter


def test_budget_ignores_cached_queries_by_default():
    counter = QueryCounter(budget=1)
    counter.record()
    counter.record(cached=True)  # free
    assert counter.charged_queries == 1


def test_negative_budget_rejected():
    with pytest.raises(InvalidParameterError):
        QueryCounter(budget=-1)
    with pytest.raises(InvalidParameterError):
        QueryCounter(budget=float("nan"))


def test_remaining_budget():
    counter = QueryCounter(budget=5)
    assert counter.remaining == 5
    counter.record()
    assert counter.remaining == 4
    assert QueryCounter().remaining is None


def test_reset_clears_counts_but_keeps_budget():
    counter = QueryCounter(budget=10)
    counter.record(tag="x")
    counter.reset()
    assert counter.total_queries == 0
    assert counter.by_tag == {}
    assert counter.budget == 10


def test_snapshot_contains_tags():
    counter = QueryCounter()
    counter.record(tag="farthest")
    counter.record(tag="farthest")
    counter.record()
    snap = counter.snapshot()
    assert snap["total_queries"] == 3
    assert snap["tag:farthest"] == 2
