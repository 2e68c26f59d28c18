"""Marks each pull log with its client's calls, for ``pull_helpers.expand_pulls``."""
import pytest

from fedelim import protocol
from fedelim.protocol import Stage


@pytest.fixture(autouse=True, scope="session")
def mark_pull_calls():
    """Append ``(first segment, exhausted)`` to the log's ``calls`` for each call of a cohort.

    Every pull goes through ``protocol.pull_cohort``, one call per client.
    ``exhausted`` is whether the call left its client ``EXHAUSTED``: only
    that call's segments may lack a reward sum.
    """
    pull = protocol.pull_cohort

    def marking(calls):
        firsts = [len(client.pull_log.segments) for client, _, _ in calls]
        pull(calls)
        for (client, _, _), first in zip(calls, firsts):
            vars(client.pull_log).setdefault("calls", []).append(
                (first, client.stage is Stage.EXHAUSTED))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "pull_cohort", marking)
        yield
