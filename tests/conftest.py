"""Marks each pull log with its client's calls, for ``pull_helpers.expand_pulls``."""
import pytest

from fedelim.protocol import Client, Stage


@pytest.fixture(autouse=True, scope="session")
def mark_pull_calls():
    """Append ``(first segment, exhausted)`` to the log's ``calls`` at every ``_pull_cells`` call.

    ``exhausted`` is whether the call left the client ``EXHAUSTED``: only
    that call's segments may lack a reward sum.
    """
    pull = Client._pull_cells

    def marking(client, nodes, wants):
        first = len(client.pull_log.segments)
        pull(client, nodes, wants)
        vars(client.pull_log).setdefault("calls", []).append(
            (first, client.stage is Stage.EXHAUSTED))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Client, "_pull_cells", marking)
        yield
