"""Gradient-boosted decision tree evaluation."""

from repro.apps import (
    GbtModel,
    TreeNode,
    decision_tree_reference,
    decision_tree_unit,
    encode_points,
)
from repro.interp import make_simulator

UNIT_CFG = dict(max_features=8, max_trees=4, max_nodes=32)


def simple_model():
    """One stump: feature0 < 100 -> 10 else 20."""
    nodes = [
        TreeNode(is_leaf=True, value=10),
        TreeNode(is_leaf=True, value=20),
        TreeNode(is_leaf=False, feature=0, threshold=100, left=0, right=1),
    ]
    return GbtModel(2, [2], nodes)


def run(model, points):
    unit = decision_tree_unit(**UNIT_CFG)
    stream = list(model.encode_header() + encode_points(points))
    out = make_simulator(unit).run(stream)
    assert out == decision_tree_reference(model, points)
    return out


def test_stump_left_right():
    model = simple_model()
    out = run(model, [[50, 0], [150, 0]])
    assert out == [10, 0, 0, 0, 20, 0, 0, 0]


def test_threshold_boundary_goes_right():
    # traversal rule: left iff feature < threshold (strict)
    model = simple_model()
    assert model.predict([100, 0]) == 20
    run(model, [[100, 0], [99, 0]])


def test_ensemble_sums_leaf_values():
    nodes = [
        TreeNode(is_leaf=True, value=5),
        TreeNode(is_leaf=True, value=7),
    ]
    model = GbtModel(1, [0, 1], nodes)  # two single-leaf trees
    assert model.predict([0]) == 12
    run(model, [[123]])


def test_accumulator_wraps_32_bits():
    nodes = [TreeNode(is_leaf=True, value=0xFFFFFFFF)]
    model = GbtModel(1, [0, 0], nodes)  # sum = 2*(2^32-1) wraps
    expected = (2 * 0xFFFFFFFF) & 0xFFFFFFFF
    assert model.predict([0]) == expected
    out = run(model, [[1]])
    assert int.from_bytes(bytes(out), "little") == expected


def test_deep_tree_traversal(rnd):
    # depth-4 complete tree on 3 features
    nodes = []

    def build(depth):
        if depth == 0:
            nodes.append(TreeNode(is_leaf=True,
                                  value=rnd.randrange(1000)))
            return len(nodes) - 1
        left = build(depth - 1)
        right = build(depth - 1)
        nodes.append(TreeNode(is_leaf=False, feature=rnd.randrange(3),
                              threshold=rnd.randrange(1 << 16),
                              left=left, right=right))
        return len(nodes) - 1

    root = build(4)
    model = GbtModel(3, [root], nodes)
    points = [[rnd.randrange(1 << 17) for _ in range(3)]
              for _ in range(5)]
    run(model, points)


def test_bram_bound_cycle_cost():
    """Two virtual cycles per visited node (the paper's explanation for
    the decision tree being Fleet's slowest app)."""
    model = simple_model()
    unit = decision_tree_unit(**UNIT_CFG)
    stream = list(model.encode_header() + encode_points([[50, 0]]))
    sim = make_simulator(unit)
    sim.run(stream)
    # loading: 1 vcycle/byte; eval: root fetch(1) + 2 nodes x 2 + emit 4
    eval_cycles = 1 + 2 * 2 + 4
    assert sim.trace.total_vcycles == len(stream) + eval_cycles + 1
