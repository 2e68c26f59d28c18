"""Partition addressing, geometry, and tiling tests."""
import numpy as np
import pytest

from fedelim.partition import (
    ROOT,
    BoxDomain,
    NodeId,
    PartitionSpec,
    cell,
    children,
    node_containing,
    parent,
    representative,
)

K2 = PartitionSpec(2)
K3 = PartitionSpec(3)
UNIT = BoxDomain([0.0], [1.0])
SQUARE = BoxDomain([-5.0, -5.0], [5.0, 5.0])


class TestAddressing:
    def test_children_binary_root(self):
        assert children(ROOT, K2) == [NodeId(1, 1), NodeId(1, 2)]

    def test_children_binary_inner(self):
        assert children(NodeId(1, 2), K2) == [NodeId(2, 3), NodeId(2, 4)]

    def test_children_ternary(self):
        assert children(NodeId(1, 2), K3) == [NodeId(2, 4), NodeId(2, 5), NodeId(2, 6)]

    def test_parent_binary(self):
        assert parent(NodeId(2, 3), K2) == NodeId(1, 2)

    def test_parent_leftmost_chain(self):
        assert parent(NodeId(5, 1), K2) == NodeId(4, 1)

    def test_parent_ternary(self):
        assert parent(NodeId(2, 6), K3) == NodeId(1, 2)

    def test_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            parent(ROOT, K2)

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            children(NodeId(1, 3), K2)
        with pytest.raises(ValueError):
            children(NodeId(0, 0), K2)

    def test_roundtrip_random_nodes(self):
        rng = np.random.default_rng(0)
        for spec in (K2, K3):
            k = spec.arity
            for _ in range(200):
                depth = int(rng.integers(1, 12))
                index = int(rng.integers(1, k ** depth + 1))
                node = NodeId(depth, index)
                kids = children(node, spec)
                assert [c.index for c in kids] == list(range(k * (index - 1) + 1, k * index + 1))
                for child in kids:
                    assert parent(child, spec) == node

    def test_deep_indices_are_exact(self):
        # indices grow as k**depth; Python integers keep them exact
        node = NodeId(200, 2 ** 200)
        assert children(node, K2)[-1] == NodeId(201, 2 ** 201)
        assert parent(node, K2) == NodeId(199, 2 ** 199)


class TestGeometry:
    def test_cell_examples_unit(self):
        left = cell(UNIT, NodeId(1, 1), K2)
        assert left.lower[0] == 0.0 and left.upper[0] == 0.5
        right_right = cell(UNIT, NodeId(2, 4), K2)
        assert right_right.lower[0] == 0.75 and right_right.upper[0] == 1.0

    def test_cell_splits_first_dimension_first(self):
        box = cell(SQUARE, NodeId(1, 2), K2)
        assert box.lower.tolist() == [0.0, -5.0]
        assert box.upper.tolist() == [5.0, 5.0]

    def test_representative_examples(self):
        assert representative(UNIT, ROOT, K2)[0] == 0.5
        assert representative(UNIT, NodeId(1, 2), K2)[0] == 0.75
        assert representative(SQUARE, ROOT, K2).tolist() == [0.0, 0.0]

    def test_children_tile_parent_exactly(self):
        rng = np.random.default_rng(1)
        domain = BoxDomain([-2.0, 0.5, 1.0], [3.0, 2.5, 4.0])
        spec = K3
        for _ in range(100):
            depth = int(rng.integers(0, 7))
            index = int(rng.integers(1, spec.arity ** depth + 1))
            node = NodeId(depth, index)
            parent_box = cell(domain, node, spec)
            kid_boxes = [cell(domain, c, spec) for c in children(node, spec)]
            split_dim = depth % domain.dim
            # boundaries along the split dimension chain without gaps
            assert kid_boxes[0].lower[split_dim] == parent_box.lower[split_dim]
            assert kid_boxes[-1].upper[split_dim] == parent_box.upper[split_dim]
            for a, b in zip(kid_boxes, kid_boxes[1:]):
                assert a.upper[split_dim] == b.lower[split_dim]
            # remaining dimensions untouched
            for box in kid_boxes:
                for j in range(domain.dim):
                    if j != split_dim:
                        assert box.lower[j] == parent_box.lower[j]
                        assert box.upper[j] == parent_box.upper[j]

    def test_shrinkage_schedule(self):
        domain = BoxDomain([0.0, 0.0], [1.0, 8.0])
        spec = K2
        for depth in range(0, 11):
            # the leftmost cell at each depth
            box = cell(domain, NodeId(depth, 1), spec)
            for j in range(2):
                splits = sum(1 for s in range(depth) if s % 2 == j)
                expected = domain.widths[j] / spec.arity ** splits
                assert box.widths[j] == pytest.approx(expected, rel=1e-12)

    def test_max_width_vanishes_with_depth(self):
        w20 = cell(UNIT, NodeId(20, 1), K2).widths[0]
        assert w20 == pytest.approx(2.0 ** -20, rel=1e-12)

    def test_cell_is_deterministic(self):
        node = NodeId(7, 53)
        a = cell(SQUARE, node, K2)
        b = cell(SQUARE, node, K2)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
        assert np.array_equal(representative(SQUARE, node, K2), representative(SQUARE, node, K2))


class TestNodeContaining:
    def test_representative_maps_back_to_its_cell(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            depth = int(rng.integers(0, 12))
            index = int(rng.integers(1, 2 ** depth + 1))
            node = NodeId(depth, index)
            point = representative(UNIT, node, K2)
            assert node_containing(UNIT, point, depth, K2) == node

    def test_random_points_land_in_their_cell(self):
        rng = np.random.default_rng(3)
        domain = BoxDomain([-1.0, 2.0], [1.0, 5.0])
        for _ in range(200):
            depth = int(rng.integers(0, 10))
            x = rng.uniform(domain.lower, domain.upper)
            node = node_containing(domain, x, depth, K2)
            box = cell(domain, node, K2)
            assert np.all(x >= box.lower - 1e-12) and np.all(x <= box.upper + 1e-12)

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError):
            node_containing(UNIT, [1.5], 3, K2)


class TestDomainValidation:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [0.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("lower, upper", [
        ([-np.inf], [1.0]), ([0.0], [np.inf]), ([0.0, np.nan], [1.0, 1.0]),
    ])
    def test_nonfinite_bounds_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(lower, upper)

    def test_clip_projects_per_dimension(self):
        clipped = SQUARE.clip(np.array([-7.0, 3.0]))
        assert clipped.tolist() == [-5.0, 3.0]

    def test_arity_below_two_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(1)
