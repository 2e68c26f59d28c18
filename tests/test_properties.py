"""Property tests of the numeric rules, over generated inputs.

Every property runs with a fixed derivation of its examples and no example
database, so a run is deterministic.
"""
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import fedelim
from fedelim import objectives
from fedelim.fedcore import TAU_SATURATED, ConfParams, SmoothParams, tau
from fedelim.objectives import OBJECTIVE_NAMES, NoiseModel, ObjectiveSuite, make_base
from fedelim.partition import BoxDomain, NodeId, PartitionSpec, node_containing, representative

FIXED = settings(derandomize=True, database=None, deadline=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
unit_closed = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def test_transition_depth_is_the_boundary_of_its_predicate():
    # In a child process with a timeout, so that a hang fails the test
    # instead of stalling the suite.
    code = """
from hypothesis import given, settings, strategies as st
from fedelim.fedcore import SmoothParams, _within_gap, transition_depth

@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def boundary(nu1, rho, delta_gap):
    smooth = SmoothParams(nu1, rho, delta_gap)
    h = transition_depth(smooth)
    assert h >= 0 and _within_gap(smooth, h), (smooth, h)
    assert h == 0 or not _within_gap(smooth, h - 1), (smooth, h)

boundary()
"""
    env = dict(os.environ, PYTHONPATH=str(Path(fedelim.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=20)
    assert result.returncode == 0, result.stderr


@FIXED
@given(positive, positive, unit_open, st.integers(1, 10 ** 18), positive, unit_open,
       unit_closed, st.integers(0, 10 ** 6))
def test_tau_is_monotone_and_saturates(c, c1, delta, horizon, nu1, rho, delta_gap, h):
    try:
        conf = ConfParams(c, c1, delta, horizon)
    except ValueError:
        assume(False)
    smooth = SmoothParams(nu1, rho, delta_gap)
    assert 1 <= tau(h, conf, smooth) <= tau(h + 1, conf, smooth) <= TAU_SATURATED


@FIXED
@given(st.data(), st.integers(2, 5), st.integers(1, 3), st.integers(0, 40))
def test_the_cell_containing_a_representative_is_its_cell(data, arity, dim, depth):
    lower = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
    widths = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
    domain = BoxDomain(lower, np.add(lower, widths))
    spec = PartitionSpec(arity)
    node = NodeId(depth, data.draw(st.integers(1, arity ** depth)))
    try:
        center = representative(domain, node, spec)
    except ValueError:  # the cell is narrower than the floats can resolve
        assume(False)
    assert node_containing(domain, center, depth, spec) == node


@FIXED
@given(st.data(), st.sampled_from(OBJECTIVE_NAMES), st.integers(1, 12), st.integers(1, 8))
def test_a_client_is_the_mean_over_its_one_shift_row(data, name, clients, points):
    base = make_base(name)
    domain = base.domain
    scale = st.floats(-1.5, 1.5)
    shifts = np.array(data.draw(st.lists(st.lists(scale, min_size=domain.dim, max_size=domain.dim),
                                         min_size=clients, max_size=clients))) * domain.widths
    unit = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=domain.dim,
                                                max_size=domain.dim),
                                       min_size=points, max_size=points)))
    X = domain.clip(domain.lower + unit * domain.widths)
    # the suite's certificates are not under test, and a searched one costs a second
    with mock.patch.object(objectives, "_certify_shifted", lambda base, rows: None):
        values = ObjectiveSuite(base, shifts, NoiseModel(0.0)).eval_clients_batch(X)
    acc = np.zeros(points)
    for m in range(clients):
        assert values[:, m].tobytes() == base.shifted_mean(shifts[m:m + 1])(X).tobytes()
        acc += values[:, m]
    assert (acc / clients).tobytes() == base.shifted_mean(shifts)(X).tobytes()
