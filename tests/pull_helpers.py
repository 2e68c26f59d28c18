"""Per-pull views of a segment pull log, for tests that compare pulls one by one."""
import numpy as np


def expand_pulls(log):
    """(depths, indices, rewards, instant regrets) of every pull, in pull order.

    Depths and indices are lists; rewards and instant regrets are arrays.
    """
    depths, indices = [], []
    for node, rewards, _ in log.segments:
        depths += [node.depth] * len(rewards)
        indices += [node.index] * len(rewards)
    rewards = np.concatenate([rewards for _, rewards, _ in log.segments])
    return depths, indices, rewards, log.regret_array()
