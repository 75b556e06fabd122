"""Reverse-mode automatic differentiation over float64 numpy arrays.

A deliberately small op set tailored to a decoder-only transformer:
broadcastable arithmetic, matmul, reductions and embedding gathers, plus
fused ops for the model's hot composites: ``causal_attention`` (causal
softmax attention, scored in blocks of query rows), ``log_softmax``,
``layer_norm``, ``gelu`` (tanh approximation) and ``ce_kl_loss`` (the
weighted cross-entropy plus KL-to-reference training loss, which takes the
logits, normalises them itself and keeps only its logit gradient, formed
in the forward). Each fused op is one graph node with a closed-form VJP
that keeps only what it needs.
``Tensor`` defines only the operators the model uses, ``+`` and ``@``.
A tensor marked ``const`` takes no gradient: an op whose inputs are all
``const`` records no parents and no VJP, so a forward over ``const``
leaves (greedy decoding) keeps no graph and frees each intermediate
array as soon as the next op has consumed it. The tests check every
op's VJP against central finite differences, and each fused op's
forward against its primitive composition.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_ATTENTION_BLOCK = 32  # query rows per block of causal_attention


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 ndarray. ``_vjp`` maps the output
    gradient to a tuple of parent gradients (None for parents that need
    no gradient, e.g. integer indices held elsewhere). A result computed
    from ``const`` parents alone is ``const`` itself and keeps neither.
    """

    __slots__ = ("data", "grad", "const", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None, const=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents and all(p.const for p in parents):
            parents, vjp, const = (), None, True
        self.const = const
        self._parents: tuple[Tensor, ...] = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    # The model's operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _ensure(other))

    def __matmul__(self, other):
        return matmul(self, _ensure(other))


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out_data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def vjp(g):
        return (g * out_data,)

    return Tensor(out_data, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor(out_data, (x,), vjp)


def power(x: Tensor, exponent: float) -> Tensor:
    """x ** exponent for a constant real exponent (positive base assumed)."""
    out_data = np.power(x.data, exponent)

    def vjp(g):
        return (g * exponent * np.power(x.data, exponent - 1.0),)

    return Tensor(out_data, (x,), vjp)


def sumdim(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, x.data.shape).copy(),)

    return Tensor(out_data, (x,), vjp)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp along ``axis`` (keepdims). Backward is softmax."""
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = m + np.log(total)

    def vjp(g):
        return (g * (shifted / total),)

    return Tensor(out_data, (x,), vjp)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """out[..., :] = table[indices[...], :]; scatter-add on backward."""
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def vjp(g):
        grad_table = np.zeros_like(table.data)
        np.add.at(grad_table, indices, g)
        return (grad_table,)

    return Tensor(out_data, (table,), vjp)


def take_along_last(x: Tensor, indices: np.ndarray) -> Tensor:
    """out[b, t] = x[b, t, indices[b, t]] for a [B, T, V] tensor."""
    indices = np.asarray(indices)
    out_data = np.take_along_axis(x.data, indices[..., None], axis=-1)[..., 0]
    leading = np.ix_(*[np.arange(n) for n in indices.shape])

    def vjp(g):
        grad_x = np.zeros_like(x.data)
        np.add.at(grad_x, (*leading, indices), g)
        return (grad_x,)

    return Tensor(out_data, (x,), vjp)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the second-to-last axis."""
    out_data = x.data[..., start:stop, :]

    def vjp(g):
        grad_x = np.zeros_like(x.data)
        grad_x[..., start:stop, :] = g
        return (grad_x,)

    return Tensor(out_data, (x,), vjp)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def vjp(g):
        return (g.reshape(x.data.shape),)

    return Tensor(x.data.reshape(shape), (x,), vjp)


def swapaxes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    def vjp(g):
        return (np.swapaxes(g, axis1, axis2),)

    return Tensor(np.swapaxes(x.data, axis1, axis2), (x,), vjp)


# sub, mul, exp, tanh, power, sumdim, logsumexp and take_along_last have no library caller and no
# Tensor operator: the tests' reference compositions call them by name, and the benchmark tracer wraps them.


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float, offset: int = 0) -> Tensor:
    """softmax(scale * q kᵀ) v under a causal mask, for [..., t, d] queries.

    Query row i sits at key position ``offset + i`` of the [..., n, d] keys
    and values and gives every later key exactly zero weight; a positive
    offset lets new rows attend to cached keys. Block [lo, hi) of
    ``_ATTENTION_BLOCK`` rows scores keys [0, offset + hi) only, which skips
    most of the masked half, and sees its whole key prefix, so no
    online-softmax rescaling is needed. Masked entries are zeroed rather
    than exponentiated from -inf, which numpy's exp handles about three
    times slower. The VJP keeps each block's probabilities.
    """
    t = q.data.shape[-2]
    out = np.empty(q.data.shape[:-1] + v.data.shape[-1:])
    blocks = []
    for lo in range(0, t, _ATTENTION_BLOCK):
        hi = min(lo + _ATTENTION_BLOCK, t)
        n = offset + hi
        probs = q.data[..., lo:hi, :] @ np.swapaxes(k.data[..., :n, :], -1, -2)
        past = np.tri(hi - lo, n, k=offset + lo, dtype=bool)
        probs -= np.max(probs, axis=-1, keepdims=True, where=past, initial=-np.inf)
        probs *= scale
        np.exp(probs, out=probs, where=past)
        np.copyto(probs, 0.0, where=~past)
        probs /= probs.sum(axis=-1, keepdims=True)
        out[..., lo:hi, :] = probs @ v.data[..., :n, :]
        blocks.append((lo, hi, probs))

    def vjp(g):
        gq = np.empty(q.data.shape)
        gk = np.zeros(k.data.shape)
        gv = np.zeros(v.data.shape)
        for lo, hi, probs in blocks:
            n = offset + hi
            g_block = g[..., lo:hi, :]
            # swapaxes(p) @ g beats swapaxes(swapaxes(g) @ p) at these shapes.
            gv[..., :n, :] += np.swapaxes(probs, -1, -2) @ g_block
            gs = g_block @ np.swapaxes(v.data[..., :n, :], -1, -2)
            gs -= np.einsum("...ij,...ij->...i", gs, probs)[..., None]
            gs *= probs
            gs *= scale
            gq[..., lo:hi, :] = gs @ k.data[..., :n, :]
            gk[..., :n, :] += np.swapaxes(gs, -1, -2) @ q.data[..., lo:hi, :]
        return gq, gk, gv

    return Tensor(out, (q, k, v), vjp)


def log_softmax(x: Tensor) -> Tensor:
    """Stable log-softmax over the last axis; the VJP keeps the softmax."""
    m = np.max(x.data, axis=-1, keepdims=True)
    probs = x.data - m
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    out_data = x.data - (m + np.log(total))
    probs /= total

    def vjp(g):
        gx = probs * -g.sum(axis=-1, keepdims=True)
        gx += g
        return (gx,)

    return Tensor(out_data, (x,), vjp)


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float) -> Tensor:
    """The last axis normalised to zero mean and unit variance, scaled and shifted.

    The VJP keeps ``normed`` (``x`` normalised) and ``inv`` (the
    reciprocal standard deviation).
    """
    inv_d = 1.0 / x.data.shape[-1]
    normed = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    inv = np.power((normed * normed).sum(axis=-1, keepdims=True) * inv_d + eps, -0.5)
    normed *= inv
    out = normed * scale.data + bias.data
    leading = tuple(range(x.data.ndim - 1))

    def vjp(g):
        g_normed = g * scale.data
        gx = g_normed - g_normed.sum(axis=-1, keepdims=True) * inv_d
        gx -= normed * ((g_normed * normed).sum(axis=-1, keepdims=True) * inv_d)
        gx *= inv
        return gx, (g * normed).sum(axis=leading), g.sum(axis=leading)

    return Tensor(out, (x, scale, bias), vjp)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + t) with t = tanh(c (x + 0.044715 x^3))."""
    xd = x.data
    t = np.tanh((xd + 0.044715 * (xd * xd * xd)) * _GELU_C)
    out = 0.5 * (xd * (1.0 + t))

    def vjp(g):
        slope = 1.0 - t * t
        slope *= (1.0 + (3 * 0.044715) * (xd * xd)) * _GELU_C
        slope *= xd
        slope += 1.0 + t
        slope *= g
        slope *= 0.5
        return (slope,)

    return Tensor(out, (x,), vjp)


def ce_kl_loss(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray,
    ref_logprobs: np.ndarray | None,
    kl_weight: float,
) -> tuple[Tensor, float, float]:
    """Weighted cross-entropy plus ``kl_weight`` times KL(current || reference).

    ``logits`` is [B, T, V], normalised here by a stable log-softmax into
    ``lp``; ``targets`` holds the [B, T] ids to score, ``weights`` the
    [B, T] averaging weights, and ``ref_logprobs`` the reference model's
    [B, T, V] log-probabilities, held constant. With ``p = exp(lp)``:

        ce = -sum_bt w[b,t] * lp[b, t, targets[b,t]]
        kl =  sum_bt w[b,t] * sum_v p * (lp - ref_logprobs)

    The forward also forms the loss's gradient with respect to the logits,
    in place in the softmax buffer, and the node keeps that one array:

        w * (p + kl_weight * p * (diff - kl_row) - onehot(targets))

    with ``diff = lp - ref_logprobs`` and ``kl_row = sum_v p * diff``.
    Returns ``(total, ce, kl)``: the scalar loss tensor and the two terms
    as floats. Without a reference or at ``kl_weight == 0`` the KL is not
    computed, ``kl`` is 0.0 and ``total`` is exactly ``ce``.
    """
    x = logits.data
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.ix_(*[np.arange(n) for n in targets.shape])
    m = np.max(x, axis=-1, keepdims=True)
    grad = x - m
    np.exp(grad, out=grad)
    total = grad.sum(axis=-1, keepdims=True)
    lse = m + np.log(total)
    grad /= total  # the softmax p
    ce = -((x[(*rows, targets)] - lse[..., 0]) * weights).sum()
    kl, loss = 0.0, ce
    if ref_logprobs is not None and kl_weight > 0:
        diff = x - lse
        diff -= ref_logprobs
        kl_rows = np.einsum("...v,...v->...", grad, diff)
        kl = (kl_rows * weights).sum()
        loss = ce + kl * kl_weight
        diff -= kl_rows[..., None]
        diff *= grad
        diff *= kl_weight
        grad += diff
    grad *= weights[..., None]
    grad[(*rows, targets)] -= weights

    def vjp(g):
        # ``backward`` runs a VJP once, so the saved gradient is scaled in place.
        return (np.multiply(grad, g, out=grad),)

    return Tensor(loss, (logits,), vjp), float(ce), float(kl)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar ``loss`` into the graph's leaves.

    A node's own gradient is dropped once its VJP has consumed it, so only
    leaves (tensors without a VJP) keep ``grad`` after the call. Each node
    also drops its VJP and parents as soon as its VJP has run, which frees
    the arrays it saved while the rest of the backward runs, so a graph
    can be backpropagated only once.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")

    # Iterative post-order DFS; popping from its end gives a valid
    # topological order from the loss down to the leaves.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._vjp is not None and node.grad is not None:
            for parent, grad in zip(node._parents, node._vjp(node.grad)):
                if grad is None:
                    continue
                if parent.grad is None:
                    parent.grad = grad
                else:
                    parent.grad = parent.grad + grad
            node.grad = None
        node._vjp, node._parents = None, ()
