"""Property-based round-trip tests for the job server.

Hypothesis drives random batches of small jobs -- duplicate-heavy, to
exercise coalescing under concurrent submission -- against one shared
server and checks the two core service invariants:

* every served report is bit-identical to a direct, in-process
  ``execute_job`` run of the same spec;
* the server never runs more simulations than there are distinct
  simulation keys (duplicates coalesce, cache hits replay).
"""

from __future__ import annotations

import json
import tempfile
import threading

import pytest
from conftest import COUNT_LOOP
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import POLICIES
from repro.serve import JobSpec, execute_job, job_key
from repro.serve.testing import running_server

#: The spec pool: small distinct programs x replay periods.  Batches
#: drawn from a small pool repeat often, which is the point.
SPEC_POOL = [(n, period) for n in (11, 23, 37) for period in (5, 7)]


def make_spec(n: int, period: int) -> JobSpec:
    return JobSpec.for_source(COUNT_LOOP.format(n=n),
                              name=f"loop{n}.s", period=period,
                              policies=tuple(POLICIES))


@pytest.fixture(scope="module")
def served():
    """(handle, direct-report memo, sim-key memo) shared per module."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-prop-") \
            as cache:
        with running_server(cache=cache, workers=2) as handle:
            yield handle, {}, set()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(st.sampled_from(SPEC_POOL),
                      min_size=1, max_size=4))
def test_round_trip_is_bit_identical_and_dedup_is_sound(
        served, batch):
    handle, direct_memo, sim_keys = served
    specs = [make_spec(n, period) for n, period in batch]
    outputs = [None] * len(specs)
    errors = []

    def one(i: int) -> None:
        try:
            client = handle.client(timeout=120)
            job, _coalesced = client.submit(specs[i])
            outputs[i] = (job, client.wait(job, timeout=120)["report"])
        except Exception as exc:  # pragma: no cover - test plumbing
            errors.append(f"client {i}: {exc!r}")

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(len(specs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors

    for (n, period), (job, report) in zip(batch, outputs):
        sim_key, key = job_key(make_spec(n, period))
        sim_keys.add(sim_key)
        if key not in direct_memo:
            direct_memo[key] = execute_job(
                make_spec(n, period))["report"]
        assert json.dumps(dict(report, cached=False), sort_keys=True) \
            == json.dumps(dict(direct_memo[key], cached=False),
                          sort_keys=True), \
            f"served report for n={n} period={period} diverged"
        # Equal specs coalesce onto the same job id, always.
        assert job == handle.server._by_key[key].id

    # Global invariant, across every example so far: simulations
    # never exceed distinct simulation keys.
    stats = handle.client().stats()
    assert stats["cache"]["simulations"] <= len(sim_keys)
