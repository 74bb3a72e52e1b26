import math

import numpy as np
import pytest

from arlif.attention import (
    EPS,
    AttentionParams,
    backward,
    bce_loss,
    forward,
    init_params,
    param_count,
    sgd_step,
    softmax_rows,
)
from arlif.errors import DimensionMismatch, StaleCache
from grad_check import fd_grads, grad_errors


def rand_params(k, seed):
    """Dense random parameters, centered so probability histories stay unclamped."""
    rng = np.random.default_rng(seed)
    return AttentionParams(
        Wq=rng.normal(0, 0.3, (k, k)),
        Wk=rng.normal(0, 0.3, (k, k)),
        Wv=np.eye(k) + rng.normal(0, 0.1, (k, k)),
        bq=rng.normal(0, 0.1, k),
        bk=rng.normal(0, 0.1, k),
        bv=rng.normal(0, 0.05, k),
        k=k,
    )


# --- parameter count / init ----------------------------------------------------

def test_param_count_values():
    assert param_count(1) == 6
    assert param_count(4) == 60
    assert param_count(10) == 330
    for k in range(1, 33):
        assert param_count(k) == 3 * k * (k + 1)


def test_param_count_rejects_bad_k():
    for k in (0, -1, -7):
        with pytest.raises(ValueError):
            param_count(k)


def test_init_params_structure():
    p = init_params(5, seed=3)
    assert p.k == 5
    assert np.array_equal(p.Wv, np.eye(5))
    assert np.all(p.bq == 0) and np.all(p.bk == 0) and np.all(p.bv == 0)
    assert np.all(np.abs(p.Wq) <= 0.01) and np.all(np.abs(p.Wk) <= 0.01)
    assert p.n_scalars() == param_count(5)


def test_init_params_scale_zero_is_exactly_zero():
    p = init_params(4, seed=0, scale=0.0)
    assert np.all(p.Wq == 0.0) and np.all(p.Wk == 0.0)


def test_init_params_deterministic():
    a = init_params(6, seed=42)
    b = init_params(6, seed=42)
    c = init_params(6, seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks(), b.blocks()))
    assert not np.array_equal(a.Wq, c.Wq)


def test_init_params_guards():
    with pytest.raises(ValueError):
        init_params(0, seed=0)
    with pytest.raises(ValueError):
        init_params(3, seed=0, scale=-0.1)


# --- softmax -------------------------------------------------------------------

def test_softmax_rows_hand_value():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert out[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_softmax_rows_normalizes_and_survives_large_logits():
    M = np.array([[1000.0, 1000.0, 999.0], [-5.0, 0.0, 5.0]])
    out = softmax_rows(M)
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out[0, 0] == out[0, 1] > out[0, 2]


def test_softmax_constant_row_is_uniform():
    out = softmax_rows(np.full((3, 4), 7.5))
    assert np.allclose(out, 0.25, atol=1e-15)


# --- forward -------------------------------------------------------------------

def test_forward_hand_example():
    # zero logits -> uniform attention; Wv = I, so v = H[:, -1] and every
    # entry of e = A.v is that column's mean
    p = init_params(2, seed=0, scale=0.0)
    H = np.array([[0.2, 0.8], [0.4, 0.6]])
    s, cache = forward(p, H)
    assert s == pytest.approx(0.7, abs=1e-15)
    assert np.allclose(cache.v, [0.8, 0.6], atol=1e-15)
    assert np.allclose(cache.e, [0.7, 0.7], atol=1e-15)
    assert np.allclose(cache.A, 0.5, atol=1e-15)


def test_forward_uniform_attention_reduces_to_column_mean():
    p = init_params(6, seed=1, scale=0.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        H = rng.uniform(0.05, 0.95, size=(12, 6))
        s, _ = forward(p, H)
        assert s == pytest.approx(H[:, -1].mean(), abs=1e-12)
        srow = forward(p, rng.permutation(H, axis=0))[0]
        assert srow == pytest.approx(s, abs=1e-12)


def test_forward_single_row_history():
    p = rand_params(3, seed=4)
    H = np.array([[0.3, 0.5, 0.6]])
    s, cache = forward(p, H)
    assert cache.A.shape == (1, 1) and cache.A[0, 0] == 1.0
    v = H @ p.Wv + p.bv
    assert cache.r == pytest.approx(float(v[0, -1]), abs=1e-15)
    assert s == min(max(cache.r, EPS), 1.0 - EPS)


def test_forward_snapshots_history():
    p = init_params(2, seed=0, scale=0.0)
    H = np.full((4, 2), 0.5)
    _, cache = forward(p, H)
    H[:] = 0.0
    assert np.all(cache.H == 0.5)


def test_forward_does_not_touch_params():
    p = rand_params(4, seed=8)
    before = [b.copy() for b in p.blocks()]
    forward(p, np.random.default_rng(0).uniform(size=(7, 4)))
    assert all(np.array_equal(a, b) for a, b in zip(before, p.blocks()))


def test_forward_shape_guards():
    p = init_params(3, seed=0)
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros((0, 3)))


def test_forward_clamps_readout():
    p = init_params(2, seed=0, scale=0.0)
    H = np.full((3, 2), 0.5)
    hot = AttentionParams(p.Wq, p.Wk, p.Wv, p.bq, p.bk, p.bv + 100.0, k=2)
    s, cache = forward(hot, H)
    assert s == 1.0 - EPS and cache.r > s
    cold = AttentionParams(p.Wq, p.Wk, p.Wv, p.bq, p.bk, p.bv - 100.0, k=2)
    s, cache = forward(cold, H)
    assert s == EPS and cache.r < s


# --- loss / backward -----------------------------------------------------------

def test_bce_loss_values():
    assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-15)
    assert bce_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert bce_loss(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-15)
    assert bce_loss(0.9, 0) == pytest.approx(-math.log(0.1), abs=1e-12)
    assert bce_loss(1.0 - EPS, 1) < bce_loss(0.5, 1) < bce_loss(EPS, 1)


def test_backward_zero_when_clamped():
    p = init_params(2, seed=0, scale=0.0)
    hot = AttentionParams(p.Wq, p.Wk, p.Wv, p.bq, p.bk, p.bv + 100.0, k=2)
    _, cache = forward(hot, np.full((3, 2), 0.5))
    g = backward(hot, cache, label=0)
    assert all(np.all(b == 0.0) for b in g.blocks())


def test_backward_single_row_leaves_query_key_untouched():
    # T = 1 makes the softmax row constant, so nothing flows into Q or K
    p = init_params(4, seed=11)
    _, cache = forward(p, np.random.default_rng(2).uniform(0.2, 0.8, (1, 4)))
    assert cache.s == cache.r  # a clamped readout would zero everything
    g = backward(p, cache, label=1)
    assert np.all(g.Wq == 0.0) and np.all(g.Wk == 0.0)
    assert np.all(g.bq == 0.0) and np.all(g.bk == 0.0)
    assert np.any(g.Wv != 0.0) and np.any(g.bv != 0.0)


def test_backward_rejects_stale_cache():
    p3 = rand_params(3, seed=0)
    _, cache = forward(p3, np.random.default_rng(1).uniform(size=(5, 3)))
    p2 = rand_params(2, seed=0)
    with pytest.raises(StaleCache):
        backward(p2, cache, label=1)


def test_backward_matches_finite_differences():
    p = rand_params(3, seed=7)
    H = np.random.default_rng(7).uniform(0.1, 0.9, size=(4, 3))
    for label in (0, 1):
        _, cache = forward(p, H)
        assert cache.s == cache.r
        analytic = backward(p, cache, label)
        numeric = fd_grads(p, H, label)
        max_rel, max_abs = grad_errors(analytic, numeric)
        assert max_rel < 1e-4
        assert max_abs < 1e-8


def test_backward_gradient_shapes():
    p = rand_params(5, seed=3)
    _, cache = forward(p, np.random.default_rng(3).uniform(size=(6, 5)))
    g = backward(p, cache, label=0)
    assert g.k == 5
    for gb, pb in zip(g.blocks(), p.blocks()):
        assert gb.shape == pb.shape


# --- sgd_step ------------------------------------------------------------------

def test_sgd_step_hand_example():
    p = init_params(3, seed=0, scale=0.0)
    g = AttentionParams(
        Wq=np.eye(3), Wk=np.zeros((3, 3)), Wv=np.zeros((3, 3)),
        bq=np.zeros(3), bk=np.zeros(3), bv=np.ones(3), k=3,
    )
    out = sgd_step(p, g, eta=1.0)
    assert out is p  # updates in place
    assert np.array_equal(p.Wq, -np.eye(3))
    assert np.array_equal(p.bv, -np.ones(3))
    assert np.array_equal(p.Wv, np.eye(3))


def test_sgd_step_guards():
    p = init_params(2, seed=0)
    g = init_params(2, seed=1)
    for eta in (0.0, -0.5):
        with pytest.raises(ValueError):
            sgd_step(p, g, eta=eta)
    with pytest.raises(DimensionMismatch):
        sgd_step(p, init_params(3, seed=0), eta=0.1)


def test_sgd_descent_on_fixed_sample():
    p = rand_params(4, seed=5)
    H = np.random.default_rng(5).uniform(0.1, 0.9, size=(6, 4))
    losses = []
    for _ in range(30):
        s, cache = forward(p, H)
        losses.append(bce_loss(s, 1))
        sgd_step(p, backward(p, cache, label=1), eta=0.01)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
