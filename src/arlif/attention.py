"""Single query/key/value attention layer over the T x k history matrix.

Exactly 3*k*(k+1) scalars: three affine maps k -> k. The readout is the
mean over trees of the most-recent column of A.V, so the forward pass
computes only that value column, v = H.Wv[:, -1] + bv[-1], and e = A.v.
The other k-1 columns of Wv and entries of bv, (k-1)*(k+1) scalars, never
reach a score and never get a gradient: they are inert, kept in the model
file and in param_count but never computed with. The backward pass is
hand-differentiated (readout mean -> e = A.v -> row softmax -> 1/sqrt(k)
scaled logits -> the affine maps) and is verified against central finite
differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, StaleCache

EPS = 1e-6


def param_count(k: int) -> int:
    """Trainable scalars in the layer: 3 affine maps of k*(k+1) each."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 3 * k * (k + 1)


def _blocks(flat: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Wq, Wk, Wv (k x k) and bq, bk, bv (k) as views of a parameter vector,
    in file order."""
    W, b = flat[:3 * k * k].reshape(3, k, k), flat[3 * k * k:].reshape(3, k)
    return W[0], W[1], W[2], b[0], b[1], b[2]


def _block(i: int) -> property:
    """Block i of AttentionParams.flat (see _blocks). Reading gives a view;
    assigning copies into the vector, the only storage, so a copy or pickle
    of the params keeps them in step."""
    def view(p: AttentionParams) -> np.ndarray:
        return _blocks(p.flat, p.k)[i]

    def assign(p: AttentionParams, value) -> None:
        view(p)[...] = value

    return property(view, assign)


@dataclass(eq=False)
class AttentionParams:
    """All param_count(k) scalars as one float64 vector, in model-file order."""

    flat: np.ndarray
    k: int

    Wq, Wk, Wv, bq, bk, bv = (_block(i) for i in range(6))

    def __post_init__(self):
        if self.flat.shape != (param_count(self.k),):
            raise DimensionMismatch(f"k={self.k} takes {param_count(self.k)} scalars, "
                                    f"got shape {self.flat.shape}")


def init_params(k: int, seed: int, scale: float = 0.01) -> AttentionParams:
    """Wv = identity, biases zero, Wq/Wk uniform in [-scale, scale].

    scale = 0 gives exactly-zero logits, i.e. uniform attention on the
    first forward pass.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    params = AttentionParams(np.zeros(param_count(k)), k)
    params.Wq = rng.uniform(-scale, scale, (k, k))
    params.Wk = rng.uniform(-scale, scale, (k, k))
    params.Wv = np.eye(k)
    return params


@dataclass
class ForwardCache:
    H: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    A: np.ndarray
    v: np.ndarray  # the value column the readout reads, H.Wv[:, -1] + bv[-1]
    e: np.ndarray  # A.v
    r: float | np.ndarray  # one per matrix of a stack
    s: float | np.ndarray


def forward(params: AttentionParams, H) -> tuple[float | np.ndarray, ForwardCache]:
    """Score the current history matrix, or each matrix of a stack.

    Q/K are affine images of H, A is the row softmax of Q.K^T / sqrt(k) and
    e = A.v with v the last value column; the readout is the mean of e over
    trees, clamped into [EPS, 1 - EPS]. H is one T x k matrix, giving a
    float, or a stack (..., T, k), giving an array of readouts of shape (...):
    each matrix of a stack gets the same BLAS calls, and so the same bits, as
    it would alone.
    """
    # a C-order snapshot: the caller's buffer may mutate, and a stack must lay
    # each matrix out as a lone one is
    H = np.array(H, dtype=np.float64, order="C")
    if H.ndim < 2 or H.shape[-2] < 1:
        raise DimensionMismatch(f"H must be a T x k matrix or a stack of them, got shape {H.shape}")
    k = params.k
    if H.shape[-1] != k:
        raise DimensionMismatch(f"H has {H.shape[-1]} columns, params expect k={k}")
    Wq, Wk, Wv, bq, bk, bv = _blocks(params.flat, k)
    Q = H @ Wq + bq
    K = H @ Wk + bk
    v = H @ Wv[:, -1] + bv[-1]
    A = Q @ K.swapaxes(-1, -2)
    A /= math.sqrt(k)
    # row softmax in A's own buffer, max subtracted first: no temporary the size of A
    A -= A.max(axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)
    e = (A @ v[..., None])[..., 0]
    r = e.mean(axis=-1)
    if r.ndim:
        s = np.clip(r, EPS, 1.0 - EPS)
    else:
        r = float(r)
        s = min(max(r, EPS), 1.0 - EPS)
    return s, ForwardCache(H=H, Q=Q, K=K, A=A, v=v, e=e, r=r, s=s)


def bce_loss(s: float, label: int) -> float:
    """Binary cross-entropy against a {0,1} label; s must be in (0,1)."""
    return -(label * math.log(s) + (1 - label) * math.log(1.0 - s))


def backward(params: AttentionParams, cache: ForwardCache, label: int) -> AttentionParams:
    """Gradients of BCE(score, label) w.r.t. every parameter.

    Returns an AttentionParams holding the gradients. The gradient is zero
    whenever the readout was clamped (s != r), and always zero on the inert
    Wv/bv entries.
    """
    if cache.H.ndim != 2 or cache.H.shape[1] != params.k or cache.Q.shape != cache.H.shape:
        raise StaleCache(f"cache built for H of shape {cache.H.shape}, params expect "
                         f"one T x {params.k} matrix")
    grads = np.zeros(param_count(params.k))
    if cache.s != cache.r:
        return AttentionParams(grads, params.k)
    H, Q, K, A, v, e = cache.H, cache.Q, cache.K, cache.A, cache.v, cache.e
    T, k = H.shape
    s, y = cache.s, label
    g = (s - y) / (s * (1.0 - s)) / T  # dL/de_i: dL/ds over the mean's T terms

    dv = g * A.sum(axis=0)
    # row-wise softmax Jacobian with dA_ij = g * v_j: dz_ij = a_ij * g * (v_j - e_i)
    dlogits = A * (v - e[:, None])
    dlogits *= g / math.sqrt(k)
    dQ = dlogits @ K
    dK = dlogits.T @ Q

    gWq, gWk, gWv, gbq, gbk, gbv = _blocks(grads, k)
    gWq[...] = H.T @ dQ
    gWk[...] = H.T @ dK
    gbq[...] = dQ.sum(axis=0)
    gbk[...] = dK.sum(axis=0)
    gWv[:, -1] = H.T @ dv
    gbv[-1] = dv.sum()
    return AttentionParams(grads, k)


def sgd_step(params: AttentionParams, grads: AttentionParams, eta: float) -> AttentionParams:
    """Plain SGD: p <- p - eta * g, in place; returns params."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    if grads.k != params.k:
        raise DimensionMismatch(f"gradient k={grads.k} vs params k={params.k}")
    params.flat -= eta * grads.flat
    return params
