"""Single query/key/value attention layer over the T x k history matrix.

Exactly 3*k*(k+1) scalars: three affine maps k -> k. The readout is the
mean over trees of the most-recent column of A.V, so the forward pass
computes only that value column, v = H.Wv[:, -1] + bv[-1], and e = A.v.
The other k-1 columns of Wv and entries of bv, (k-1)*(k+1) scalars, never
reach a score and never get a gradient: they are inert, kept in the model
file and in param_count but never computed with.

Deferred normalization: the forward pass does not build the row softmax A.
With E = exp(Z) of the scaled logits Z = Q.K^T / sqrt(k) and den the row
sums of E, e = (E.v) / den; one product of E with [v, 1] gives both E.v and
den, and the T x T divide goes away (the division FlashAttention defers to
the end). The row max, subtracted only to keep exp from overflowing, is
skipped when a bound on |Z| and |v| computed from the parameters alone shows
that E, den and E.v stay finite and nonzero for every H with entries in
[0, 1], which the detector guarantees. Otherwise forward falls back to the
max-shifted softmax, normalized in E's own buffer. The backward pass is
hand-differentiated from E and den (readout mean -> e -> row softmax ->
1/sqrt(k) scaled logits -> the affine maps) and is verified against central
finite differences in the test suite.

Buffers: a ForwardCache holds every buffer of one step, forward's and, for
one T x k matrix, backward's, and workspace(*shape) is their one allocator.
A stack's cache carries none of backward's buffers: backward refuses a
stack before it reads them. forward writes into the cache it is handed (out=),
else into fresh ones, so a training step on one T x k matrix (forward,
backward, sgd_step) in a reused cache allocates none of its T x T, T x k or
T x 2 arrays; the bits are those of fresh buffers. backward writes the
gradient into the cache's grad and returns it. The history carries a ones
column, H1 = [H, 1], and each step takes the live parameters into one
(k+1) x (2k+1) matrix W1 = [[Wq, Wk, Wv[:, -1]], [bq, bk, bv[-1]]] (_live
holds their positions in the vector), so one product H1.W1 gives Q, K and v
with their biases, written beside a ones column as [Q, K, v, 1]. The logits'
two factors, Q / sqrt(k) and K^T, are copied out of that buffer into C-order
ones of the cache (Qs and KT): gemm runs faster on them than on its strided
views, with the same bits. backward's one product H1^T.[dQ, dK, dv] gives
every live weight and bias gradient, which one scatter writes into the
gradient vector. workspace refuses a request whose T x T buffers (E per
matrix, and a single matrix's dE) would pass WORKSPACE_LIMIT bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import BufferTooLarge, DimensionMismatch, StaleCache

EPS = 1e-6
# forward skips the row max while the bound on |Z| is at most this: e^-64 to e^64
# is far inside the normal doubles, so neither E nor den can overflow or reach zero
LOGIT_LIMIT = 64.0
# ...and while T * e^bound * (bound on |v|) is at most this, 2^-24 of the largest
# double: no sum of E.v overflows, nor backward's terms, which |dL/ds| < 2^20 scales
_SUM_LIMIT = 2.0 ** 1000
# bytes of T x T buffers one workspace may hold: E and dE of a single matrix up to T = 8192
WORKSPACE_LIMIT = 1 << 30
_block_starts = lru_cache(lambda k: np.cumsum([0, k * k, k * k, k * k, k, k]))  # see _blocks


def param_count(k: int) -> int:
    """Trainable scalars in the layer: 3 affine maps of k*(k+1) each."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 3 * k * (k + 1)


def _blocks(flat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The layout of a parameter vector, in file order, as views of it:
    [Wq, Wk, Wv] (3, k, k) and [bq, bk, bv] (3, k). Every reader of the
    layout slices through this, apart from _block_starts."""
    return flat[:3 * k * k].reshape(3, k, k), flat[3 * k * k:].reshape(3, k)


@lru_cache
def _live(k: int) -> np.ndarray:
    """Where W1's entries sit in the parameter vector: the (k+1) x (2k+1)
    matrix [[Wq, Wk, Wv[:, -1]], [bq, bk, bv[-1]]] of positions, each live
    scalar once and no inert one. Read-only, as every caller shares it."""
    W, b = _blocks(np.arange(param_count(k)), k)
    live = np.block([[W[0], W[1], W[2, :, -1:]], [b[0], b[1], b[2, -1:]]])
    live.flags.writeable = False
    return live


def _block(i: int) -> property:
    """Block i of AttentionParams.flat (see _blocks). Reading gives a view;
    assigning copies into the vector, the only storage, so a copy or pickle
    of the params keeps them in step."""
    def view(p: AttentionParams) -> np.ndarray:
        return _blocks(p.flat, p.k)[i // 3][i % 3]

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


def _skips_row_max(flat: np.ndarray, k: int, T: int) -> bool:
    """Whether forward may exponentiate the logits of any T x k matrix H with
    entries in [0, 1] without subtracting the row max.

    With H in [0, 1], |Q_il| <= sum_m |Wq_ml| + |bq_l|, so |Z_ij| is at most
    (|Wq|_1 + |bq|_1)(|Wk|_1 + |bk|_1) / sqrt(k) in entrywise L1 norms, and
    |v_i| at most |Wv|_1 + |bv|_1. Non-finite parameters give False.
    """
    # summed at 2^-24 scale: no norm of finite parameters overflows, and warns, in numpy
    s = np.add.reduceat(np.abs(flat) * 2.0 ** -24, _block_starts(k)).tolist()
    bound = (s[0] + s[3]) * (s[1] + s[4]) * 2.0 ** 48 / math.sqrt(k)
    return bound <= LOGIT_LIMIT and T * math.exp(bound) * (s[2] + s[5]) * 2.0 ** 24 <= _SUM_LIMIT


@dataclass
class ForwardCache:
    """Every buffer of one step: forward's, which backward reads, and, in a
    single-matrix cache, backward's. The input sits in H1 beside a ones
    column, and the product H1.W1 in QKV1 beside another, so Q, K, v and
    [v, 1] are views of one buffer, as are dQ, dK and dv of D. The attention
    weights are E / den[..., None]. Every single-matrix cache lends backward
    its gradient buffer, grad: backward returns it, and the next backward on
    the same cache writes over it. A stack's cache holds None in backward's
    fields, and backward refuses it before it reads them."""

    H1: np.ndarray  # [H, 1], H a copy of forward's input, (..., T, k + 1)
    W1: np.ndarray  # the live parameters, (k + 1, 2k + 1): see _live
    QKV1: np.ndarray  # [Q, K, v, 1] = [H1.W1, 1], (..., T, 2k + 2); v, the readout's value column
    Qs: np.ndarray  # Q / sqrt(k), C-order: the left factor of the logits
    KT: np.ndarray  # K^T, C-order (..., k, T): the right one
    E: np.ndarray  # exp of the scaled logits, each row shifted or not; (..., T, T)
    Ev: np.ndarray  # [E.v, den], den the row sums of E, or all ones where forward normalized E
    e: np.ndarray  # the attention-weighted values, (E.v) / den
    grad: AttentionParams | None = None  # backward's result; its inert entries are never written
    gd: np.ndarray | None = None  # dL/de over den, (T,)
    L: np.ndarray | None = None  # (T, 2)
    R: np.ndarray | None = None  # [v, 1]^T, (2, T): a transposed view of V1 is slower
    dE: np.ndarray | None = None  # the logits' gradient, (T, T)
    D: np.ndarray | None = None  # [dQ, dK, dv], (T, 2k + 1): the gradient of H1.W1
    G: np.ndarray | None = None  # H1^T.D, (k + 1, 2k + 1): W1's gradient, scattered into grad
    r: float | np.ndarray = 0.0  # one per matrix of a stack
    s: float | np.ndarray = 0.0

    def __post_init__(self):
        # views: H; Q, K, v and [v, 1]; E.v (num) and den; dQ, dK and dv
        k = self.W1.shape[0] - 1
        self.H, self.QKv = self.H1[..., :k], self.QKV1[..., :-1]
        self.Q, self.K, self.V1 = self.QKV1[..., :k], self.QKV1[..., k:-2], self.QKV1[..., -2:]
        self.v = self.V1[..., 0]
        self.num, self.den = self.Ev[..., 0], self.Ev[..., 1]
        if self.D is not None:
            self.dQ, self.dK, self.dv = self.D[:, :k], self.D[:, k:-1], self.D[:, -1]

    def head(self, n: int) -> ForwardCache:
        """A stack's cache for its first n matrices, in views of these buffers."""
        return replace(self, **{name: getattr(self, name)[:n]
                                for name in ("H1", "QKV1", "Qs", "KT", "E", "Ev", "e")})

    def __setstate__(self, state):  # a copy or pickle copies each view apart from its buffer
        self.__dict__.update(state)
        self.__post_init__()


def workspace(*shape: int) -> ForwardCache:
    """A step's buffers, fresh: forward's for an input of this shape,
    (..., T, k), and for one T x k matrix backward's too; a stack gets none of
    backward's, as backward refuses it. forward allocates its cache here
    unless it is handed one as out=; handed back in, a cache serves any number
    of steps. Raises BufferTooLarge, allocating nothing, when the T x T
    buffers it would allocate (E, one per matrix, and a single matrix's dE)
    pass WORKSPACE_LIMIT bytes."""
    rows, (T, k) = shape[:-1], shape[-2:]
    single = len(shape) == 2
    size = 8 * T * T * (math.prod(rows[:-1]) + single)
    if size > WORKSPACE_LIMIT:
        raise BufferTooLarge(f"the attention step on {'x'.join(map(str, shape))} histories "
                             f"needs {size} bytes of T x T buffers, past the limit of "
                             f"{WORKSPACE_LIMIT} bytes")
    backward_buffers = dict(
        grad=AttentionParams(np.zeros(param_count(k)), k), gd=np.empty(T), L=np.empty((T, 2)),
        R=np.ones((2, T)), dE=np.empty((T, T)), D=np.empty((T, 2 * k + 1)),
        G=np.empty((k + 1, 2 * k + 1))) if single else {}
    return ForwardCache(H1=np.ones(rows + (k + 1,)), W1=np.empty((k + 1, 2 * k + 1)),
                        QKV1=np.ones(rows + (2 * k + 2,)), Qs=np.empty(shape),
                        KT=np.empty(shape[:-2] + (k, T)), E=np.empty(rows + rows[-1:]),
                        Ev=np.empty(rows + (2,)), e=np.empty(rows), **backward_buffers)


def forward(params: AttentionParams, H, *,
            out: ForwardCache | None = None) -> tuple[float | np.ndarray, ForwardCache]:
    """Score the current history matrix, or each matrix of a stack.

    Q/K are affine images of H, the attention weights are the row softmax of
    Z = Q.K^T / sqrt(k), and e weights v, the last value column, by them; the
    readout is the mean of e over trees, clamped into [EPS, 1 - EPS]. H is
    one T x k matrix, giving a float, or a stack (..., T, k), giving an array
    of readouts of shape (...). H's entries must lie in [0, 1]: the bound
    that lets exp skip the row max assumes it.

    The weights stay unnormalized: E = exp(Z), and one product of E with
    [v, 1] gives E.v and the row sums den, so e = (E.v) / den. exp takes Z as
    it is when _skips_row_max shows that |Z| <= LOGIT_LIMIT and that E.v
    cannot overflow. Otherwise forward falls back to the max-shifted softmax:
    each row is shifted by its max and E is normalized in place, so den is
    all ones. The branch depends on the parameters and T alone, so each
    matrix of a stack gets the same BLAS calls, and so the same bits, as it
    would alone.

    The cache returned is out, when given, written over (a workspace of H's
    shape); otherwise workspace(*H.shape). Either way it holds a copy of H,
    so the caller's buffer may change afterwards.
    """
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-2] < 1:
        raise DimensionMismatch(f"H must be a T x k matrix or a stack of them, got shape {H.shape}")
    k = params.k
    if H.shape[-1] != k:
        raise DimensionMismatch(f"H has {H.shape[-1]} columns, params expect k={k}")
    if out is None:
        c = workspace(*H.shape)
    elif out.H.shape == H.shape:
        c = out
    else:
        raise DimensionMismatch(f"workspace holds a {out.H.shape} input, H has shape {H.shape}")
    # a C-order snapshot: a stack lays each matrix out as a lone one is
    np.copyto(c.H, H)
    T, flat = H.shape[-2], params.flat
    # Q, K and v with their biases in one product, each matrix of a stack in its own;
    # _live's positions are in range, so "clip" only spares take a copy of its output
    np.matmul(c.H1, flat.take(_live(k), out=c.W1, mode="clip"), out=c.QKv)
    # the logits and then E in one buffer: no other temporary the size of E. Both
    # factors are C-order copies: gemm is faster on them than on views of QKV1
    np.copyto(c.Qs, c.Q)
    c.Qs /= math.sqrt(k)
    np.copyto(c.KT, c.K.swapaxes(-1, -2))
    E = np.matmul(c.Qs, c.KT, out=c.E)
    if _skips_row_max(flat, k, T):
        np.exp(E, out=E)
        np.matmul(E, c.V1, out=c.Ev)
    else:
        E -= E.max(axis=-1, keepdims=True)
        np.exp(E, out=E)
        # normalized before the product: E.v with E in (0, 1] could overflow where e cannot
        E /= E.sum(axis=-1, keepdims=True)
        np.matmul(E, c.V1, out=c.Ev)
        c.den[...] = 1.0
    np.divide(c.num, c.den, out=c.e)
    r = np.add.reduce(c.e, axis=-1) / T
    if r.ndim:
        # np.clip's bits, NaN included, without its Python wrapper on every piece
        s = np.maximum(r, EPS)
        np.minimum(s, 1.0 - EPS, out=s)
    else:
        r = float(r)
        s = min(max(r, EPS), 1.0 - EPS)
    c.r, c.s = r, s
    return s, c


def bce_loss(s: float, label: int) -> float:
    """Binary cross-entropy against a {0,1} label; s must be in (0,1)."""
    return -(label * math.log(s) + (1 - label) * math.log(1.0 - s))


def backward(params: AttentionParams, cache: ForwardCache, label: int) -> AttentionParams:
    """Gradients of BCE(score, label) w.r.t. every parameter.

    Returns cache.grad, written over: the next backward on the same cache
    writes over the result. The gradient is zero whenever the readout was
    clamped (s != r), and always zero on the inert Wv/bv entries.
    """
    c, H = cache, cache.H
    if H.ndim != 2 or H.shape[1] != params.k:
        raise StaleCache(f"cache built for H of shape {H.shape}, params expect "
                         f"one T x {params.k} matrix")
    T, k = H.shape
    if c.s != c.r:
        c.grad.flat.fill(0.0)
        return c.grad
    E, den, e = c.E, c.den, c.e
    s, y = c.s, label
    g = (s - y) / (s * (1.0 - s)) / T  # dL/de_i: dL/ds over the mean's T terms

    # with weights a_ij = E_ij / den_i: dv_j = g * sum_i a_ij, and the row-wise
    # softmax Jacobian gives dz_ij = E_ij * w_i * (v_j - e_i), w_i = g / sqrt(k) / den_i;
    # w_i * (v_j - e_i) is one (T x 2).(2 x T) product, [w, -w*e].[v, 1]^T, with no
    # broadcast over T x T. Unshifted, den_i >= T e^-bound keeps it under 2^21 * _SUM_LIMIT
    np.matmul(np.divide(g, den, out=c.gd), E, out=c.dv)
    w, nwe = c.L.T  # the columns of L = [w, -w*e]
    np.divide(g / math.sqrt(k), den, out=w)
    np.negative(w, out=nwe)
    nwe *= e
    np.copyto(c.R[0], c.v)  # R = [v, 1]^T
    dE = np.matmul(c.L, c.R, out=c.dE)
    dE *= E
    np.matmul(dE, c.K, out=c.dQ)
    np.matmul(dE.T, c.Q, out=c.dK)
    # every live gradient in one product, the biases' from H1's ones column
    c.grad.flat[_live(k)] = np.matmul(c.H1.T, c.D, out=c.G)
    return c.grad


def sgd_step(params: AttentionParams, grads: AttentionParams, eta: float) -> AttentionParams:
    """Plain SGD: p <- p - eta * g, in place; returns params."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    if grads.k != params.k:
        raise DimensionMismatch(f"gradient k={grads.k} vs params k={params.k}")
    params.flat -= eta * grads.flat
    return params
