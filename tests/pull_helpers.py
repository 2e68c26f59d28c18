"""Per-pull views of a segment pull log, for tests that compare pulls one by one.

A segment keeps a batch's pull count and reward sum, not its rewards.  The
rewards are re-drawn here from each client's noise substream, one draw per
segment in segment order, added to the cell's value for that client.  The
protocol draws once per stage-one phase or personal step and sums that draw
a block of equal-count cells at a time; draws from one generator
concatenate, and a block's row sums as the cell's own array does, so the
per-segment draws here give the same rewards and sums, bit for bit.  The
call that exhausts a client, its last, draws nothing and stores no sums
(``None``); its rewards are re-drawn here as if it had drawn, which is what
the generator would have given.  Instant regrets are expanded here too, one
per pull: the program accounts regret per segment, so this per-pull view is
only a test oracle.
"""
import numpy as np

from fedelim.partition import PartitionSpec, representative
from fedelim.seeding import PURPOSE_NOISE, substream


def expand_pulls(log, suite, m, seed, spec=PartitionSpec(2)):
    """(depths, indices, rewards, instant regrets) of every pull of client ``m``, in pull order.

    ``suite``, ``seed`` and ``spec`` are the run's.  Depths and indices are
    lists; rewards and instant regrets are arrays.  Every re-drawn batch must
    sum, bit for bit, to its segment's stored reward sum, and the segments
    without one must be exactly those of the client's last call, if that call
    exhausted it: ``log.calls``, which ``conftest.mark_pull_calls`` keeps,
    says where each call starts and whether it did.
    """
    *earlier, (last, exhausted) = log.calls
    assert not any(e for _, e in earlier), f"client {m} was exhausted before its last call"
    unsummed = [k for k, segment in enumerate(log.segments) if segment[2] is None]
    assert unsummed == list(range(last if exhausted else len(log.segments), len(log.segments))), (
        f"client {m}: segments {unsummed} have no reward sum, of {len(log.segments)}; "
        f"its last call starts at {last} and {'exhausts' if exhausted else 'does not exhaust'} it")
    rng = substream(seed, PURPOSE_NOISE, m)
    depths, indices, batches = [], [], []
    for k, (node, pulls, reward_sum, _) in enumerate(log.segments):
        value = suite.eval_local(m, representative(suite.domain, node, spec))
        rewards = value + suite.noise.draw(rng, pulls)
        assert reward_sum is None or float(rewards.sum()) == reward_sum, (
            f"client {m}, segment {k} ({node}): replayed sum {float(rewards.sum())!r} "
            f"!= stored {reward_sum!r}")
        depths += [node.depth] * pulls
        indices += [node.index] * pulls
        batches.append(rewards)
    _, counts, _, regrets = zip(*log.segments)
    return depths, indices, np.concatenate(batches), np.repeat(regrets, counts)
