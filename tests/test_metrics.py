import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfchirp.errors import MetricError
from tfchirp.metrics import ot_if_metric, rel_error, snr_db, wasserstein1_1d


def lp_transport(xa, wa, xb, wb):
    """Brute-force optimal transport on the line via a linear program."""
    from scipy.optimize import linprog

    wa = np.asarray(wa, float) / np.sum(wa)
    wb = np.asarray(wb, float) / np.sum(wb)
    na, nb = len(xa), len(xb)
    cost = np.abs(np.subtract.outer(np.asarray(xa, float), np.asarray(xb, float))).ravel()
    a_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros(na * nb)
        row[i * nb : (i + 1) * nb] = 1
        a_eq.append(row)
        b_eq.append(wa[i])
    for j in range(nb):
        row = np.zeros(na * nb)
        row[j::nb] = 1
        a_eq.append(row)
        b_eq.append(wb[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_rel_error_basics():
    truth = np.array([3.0, 4.0])
    assert rel_error(truth, truth) == 0.0
    assert rel_error(np.zeros(2), truth) == 1.0
    assert rel_error(truth * 1.1, truth) == pytest.approx(0.1)
    with pytest.raises(MetricError):
        rel_error(truth, np.zeros(2))
    masked = rel_error(np.array([1.0, 99.0]), np.array([1.0, 2.0]), np.array([True, False]))
    assert masked == 0.0


def test_w1_trivial_cases():
    assert wasserstein1_1d([1.0, 2.0], [0.5, 0.5], [1.0, 2.0], [0.5, 0.5]) == 0.0
    assert wasserstein1_1d([0.0], None, [3.5], None) == pytest.approx(3.5)


def test_w1_matches_lp_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(30):
        na, nb = rng.integers(1, 7, size=2)
        xa, xb = rng.normal(size=na), rng.normal(size=nb)
        wa, wb = rng.uniform(0.1, 1, size=na), rng.uniform(0.1, 1, size=nb)
        assert wasserstein1_1d(xa, wa, xb, wb) == pytest.approx(lp_transport(xa, wa, xb, wb), abs=1e-9)


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=5), st.lists(st.floats(-50, 50), min_size=1, max_size=5), st.lists(st.floats(-50, 50), min_size=1, max_size=5))
def test_w1_metric_axioms(xs, ys, zs):
    d_xy = wasserstein1_1d(xs, None, ys, None)
    assert d_xy >= 0
    assert d_xy == pytest.approx(wasserstein1_1d(ys, None, xs, None), abs=1e-9)
    assert wasserstein1_1d(xs, None, xs, None) == pytest.approx(0.0, abs=1e-12)
    d_xz = wasserstein1_1d(xs, None, zs, None)
    d_zy = wasserstein1_1d(zs, None, ys, None)
    assert d_xy <= d_xz + d_zy + 1e-9


def test_w1_rejects_bad_weights():
    with pytest.raises(MetricError):
        wasserstein1_1d([], None, [1.0], None)
    with pytest.raises(MetricError):
        wasserstein1_1d([1.0], [0.0], [1.0], None)
    with pytest.raises(MetricError):
        wasserstein1_1d([1.0], [-1.0], [1.0], None)


def test_ot_if_metric_point_curves():
    truth = np.array([1.0, 2.0, 3.0])
    assert ot_if_metric(truth.copy(), truth) == 0.0
    assert ot_if_metric(truth + 0.7, truth) == pytest.approx(0.7)
    mask = np.array([True, False, True])
    assert ot_if_metric(truth + np.array([1.0, 99.0, 2.0]), truth, mask) == pytest.approx(1.5)


def test_ot_if_metric_multivalued_reduces():
    truth = np.array([2.0, 4.0])
    est = [(np.array([2.5]), None), (np.array([3.0, 5.0]), np.array([0.5, 0.5]))]
    got = ot_if_metric(est, truth)
    assert got == pytest.approx((0.5 + 1.0) / 2)


def test_snr_db():
    clean = np.exp(2j * np.pi * 0.1 * np.arange(1000))
    assert snr_db(clean, np.zeros(1000)) == np.inf
    noise = np.random.default_rng(0).normal(scale=np.std(clean.real), size=1000)
    assert abs(snr_db(clean, noise)) < 0.5


def test_ot_if_metric_empty_mask_raises():
    truth = np.array([1.0, 2.0])
    with pytest.raises(MetricError):
        ot_if_metric(truth, truth, np.zeros(2, dtype=bool))
