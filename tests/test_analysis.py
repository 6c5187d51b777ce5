import itertools

import numpy as np
import pytest

from hubnet.analysis import FrontMetrics, compute_metrics, hypervolume, topsis_rank


def test_metrics_two_point_diagonal():
    m = compute_metrics([(0, 0, 0), (3, 4, 0)], elapsed_seconds=1.5)
    assert m.npf == 2
    assert m.msi == 5.0
    assert m.sm == 0.0          # both points see the same nearest neighbour
    assert m.cpt == 1.5


def test_metrics_collinear_evenly_spaced():
    front = [(0, 4, 0), (1, 3, 0), (2, 2, 0), (3, 1, 0)]
    m = compute_metrics(front, elapsed_seconds=0.0)
    assert m.npf == 4
    assert m.sm == 0.0          # equal L1 nearest-neighbour gaps everywhere
    assert m.msi == pytest.approx(np.sqrt(9 + 9))


def test_metrics_uneven_spacing_positive():
    m = compute_metrics([(0, 10, 0), (1, 9, 0), (5, 5, 0)], elapsed_seconds=0.0)
    assert m.sm > 0.0
    assert m.npf == 3


def test_metrics_rejections():
    with pytest.raises(ValueError):
        compute_metrics([], elapsed_seconds=0.0)
    with pytest.raises(ValueError):
        compute_metrics([(1, 1, 1)], elapsed_seconds=-1.0)


def test_metrics_single_point():
    m = compute_metrics([(2, 3, 4)], elapsed_seconds=0.25)
    assert (m.npf, m.msi, m.sm, m.cpt) == (1, 0.0, 0.0, 0.25)


def box_union_volume(points, ref):
    """Inclusion-exclusion over the boxes [p, ref]; reference for <= 3 boxes."""
    total = 0.0
    for r in range(1, len(points) + 1):
        for combo in itertools.combinations(points, r):
            corner = np.max(np.asarray(combo), axis=0)
            vol = np.prod(np.maximum(0.0, np.asarray(ref) - corner))
            total += (-1) ** (r + 1) * vol
    return float(total)


def test_hypervolume_single_box():
    assert hypervolume([(1, 1, 1)], (2, 3, 4)) == pytest.approx(1 * 2 * 3)


def test_hypervolume_two_overlapping_boxes():
    pts = [(1, 2, 2), (2, 1, 2)]
    # 2 + 2 - 1 by hand
    assert hypervolume(pts, (3, 3, 3)) == pytest.approx(3.0)
    assert hypervolume(pts, (3, 3, 3)) == pytest.approx(box_union_volume(pts, (3, 3, 3)))


def test_hypervolume_matches_inclusion_exclusion():
    rng = np.random.default_rng(12)
    ref = (10.0, 10.0, 10.0)
    for _ in range(50):
        pts = rng.uniform(0.0, 9.5, size=(int(rng.integers(1, 4)), 3))
        want = box_union_volume(pts, ref)
        assert hypervolume(pts, ref) == pytest.approx(want, abs=1e-12)


def test_hypervolume_ignores_dominated_and_duplicate_rows():
    base = hypervolume([(1, 1, 1)], (4, 4, 4))
    padded = hypervolume([(1, 1, 1), (1, 1, 1), (2, 2, 2)], (4, 4, 4))
    assert padded == base


def test_hypervolume_edge_cases():
    assert hypervolume([], (1, 1, 1)) == 0.0
    with pytest.raises(ValueError, match="cover"):
        hypervolume([(2, 0, 0)], (1, 1, 1))
    with pytest.raises(ValueError):
        hypervolume([(1, 1, 1)], (1, 1))


def test_decision_matrix_validation():
    topsis_rank([[1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]])
    for values in ([[1.0, 2.0], [3.0, 4.0]],          # not one column per indicator
                   [1.0, 2.0, 3.0, 4.0],              # not a table
                   [[1.0, np.inf, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]],
                   [[1.0, 2.0, np.nan, 4.0], [3.0, 4.0, 5.0, 6.0]]):
        with pytest.raises(ValueError):
            topsis_rank(values)


def test_topsis_clear_winner():
    # npf and msi are benefits, sm and cpt costs: row 0 is best on all four
    ci, order = topsis_rank([[2.0, 2.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])
    assert order == [0, 1]
    assert ci[0] == pytest.approx(1.0)
    assert ci[1] == pytest.approx(0.0)


def test_topsis_tied_alternatives_rank_by_index():
    ci, order = topsis_rank([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    assert ci[0] == ci[1] == pytest.approx(0.5)
    assert order == [0, 1]


def test_topsis_rejects_all_zero_column():
    with pytest.raises(ValueError, match=r"cannot be normalized: \['npf', 'sm'\]"):
        topsis_rank([[0.0, 1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 2.0]])


def test_metrics_container_is_plain():
    m = FrontMetrics(npf=1, msi=0.0, sm=0.0, cpt=0.0)
    assert m.npf == 1
