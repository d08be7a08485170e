"""Minimal dense-tensor kernel with reverse-mode autodiff.

Everything is in float32 or float64: a tensor keeps float32 data as
float32 and turns anything else into float64, and every primitive
computes its output and its gradients in its inputs' dtype (float64
where they mix). Float32 inputs, such as the optimizer's working
weights, therefore give a float32 tape; float64 inputs (fresh models, the
oracles and the gradient checks) a float64 one. There is no broadcasting
beyond what `add`/`mul` and the attention nodes need for bias terms. The
graph is recorded implicitly: each result tensor keeps its parents and a
backward closure, and `backward()` replays them in reverse topological
order.

Tensors are immutable after construction (the optimizer rebinds each
parameter's `.data` to a view of its float32 working buffer once, then
writes it in place as the single writer during training). One backward
graph per thread; graphs are never shared.

Gradient ownership: a gradient array may be shared between tensors (`add`
hands one array to both operands; `reshape`, `transpose`, `concat` and
`merge_heads` can hand out views of the gradient they receive), so no
gradient array is ever written in place. A second contribution is summed
into a fresh array, and callers that rescale `.grad` rebind it. Data is
shared the same way: `reshape` and `split_heads` return views of their
input's data, which is why no op writes its inputs. Constants (neither
requiring grad nor produced by a tracked op) receive no gradient. A
non-leaf node's gradient is released as soon as its backward closure has
run; only leaves keep theirs.

Memory: `keep_heap`, which `training.train_step` calls, keeps a step's
freed arrays of up to 2 MiB in glibc's heap instead of faulting them in
again. Masks are added in the scores' dtype: 0 and MASK_VALUE are exact
in float32, and a float64 mask would send each `+=` through a cast.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

# Additive mask value for blocked attention pairs. Large negative but
# finite so masked logits underflow to exactly 0 after max-subtraction
# instead of producing NaNs.
MASK_VALUE = -1e9
_MASKED_ROW_THRESHOLD = MASK_VALUE / 2


@functools.cache
def keep_heap():
    """Once per process on glibc, fix malloc's mmap threshold at 2 MiB and
    trim threshold at 32 MiB. Not at import: a fixed threshold turns off the
    dynamic one that keeps the kernel benchmark's 2-16 MiB temporaries."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 2 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)   # M_TRIM_THRESHOLD


class ShapeMismatchError(ValueError):
    pass


class SpecError(ValueError):
    """Malformed einsum-style contraction spec."""


def as_data(data):
    """`data` as a tensor array: float32 stays float32, anything else
    becomes float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = as_data(data)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn):
    """Build a graph node. Gradient tracking is inherited from parents."""
    needs = any(_tracked(p) for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if needs:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _tracked(t):
    """True when a gradient reaching `t` has a reader."""
    return t.requires_grad or t._backward is not None


def _accumulate(t, g):
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def constant(data):
    return Tensor(data, requires_grad=False)


def backward(loss):
    """Accumulate gradients of `loss` into every reachable requires_grad
    tensor, then release the graph and every non-leaf gradient.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------

def add(a, b):
    data = a.data + b.data
    def back(g):
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))
    return _result(data, (a, b), back)


def mul(a, b):
    data = a.data * b.data
    def back(g):
        if _tracked(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _result(data, (a, b), back)


def scale(a, c):
    c = float(c)
    data = a.data * c
    def back(g):
        _accumulate(a, g * c)
    return _result(data, (a,), back)


def _parse_spec(spec):
    if "->" not in spec:
        raise SpecError(f"spec {spec!r} lacks '->'")
    lhs, out = spec.split("->")
    parts = lhs.split(",")
    if len(parts) != 2:
        raise SpecError(f"spec {spec!r} must name exactly two operands")
    la, lb = parts
    for labels in (la, lb):
        if len(set(labels)) != len(labels):
            raise SpecError(f"spec {spec!r} repeats an axis label within one operand")
    if len(set(out)) != len(out) or not set(out) <= (set(la) | set(lb)):
        raise SpecError(f"spec {spec!r} has an invalid output")
    return la, lb, out


def _check_extents(spec, la, lb, a, b):
    if len(la) != a.ndim or len(lb) != b.ndim:
        raise ShapeMismatchError(
            f"spec {spec!r} expects ranks ({len(la)},{len(lb)}), "
            f"got {a.ndim} and {b.ndim}")
    extents = {}
    for labels, arr in ((la, a), (lb, b)):
        for axis, ext in zip(labels, arr.shape):
            if extents.setdefault(axis, ext) != ext:
                raise ShapeMismatchError(
                    f"axis {axis!r} has extents {extents[axis]} and {ext} in spec {spec!r}")


def _contract_grad(g, out, other, lo, target, shape):
    """Gradient wrt one contraction operand: one `np.einsum` down to the
    target's labels that the output or the other operand names, broadcast
    over any axis the target alone sums out (as in "ij,jk->k")."""
    kept = "".join(l for l in target if l in out or l in lo)
    part = np.einsum(f"{out},{lo}->{kept}", g, other)
    if kept == target:
        return part
    return np.broadcast_to(part.reshape(
        [n if l in kept else 1 for l, n in zip(target, shape)]), shape).copy()


def contract(spec, a, b):
    """Einstein-notation contraction of two tensors through `np.einsum`,
    e.g. contract("bhtd,bhrd->bhtr", q, k)."""
    la, lb, out = _parse_spec(spec)
    _check_extents(spec, la, lb, a.data, b.data)
    data = np.einsum(spec, a.data, b.data)

    def back(g):
        if _tracked(a):
            _accumulate(a, _contract_grad(g, out, b.data, lb, la, a.data.shape))
        if _tracked(b):
            _accumulate(b, _contract_grad(g, out, a.data, la, lb, b.data.shape))
    return _result(data, (a, b), back)


def linear(x, w, b=None):
    """x @ w (+ b) over the last axis of `x`, as one node: the leading
    axes are flattened into the rows of a single 2-D matmul."""
    din, dout = w.data.shape
    if x.data.shape[-1] != din:
        raise ShapeMismatchError(
            f"linear: input width {x.data.shape[-1]} against weight rows {din}")
    rows = x.data.reshape(-1, din)
    y = rows @ w.data
    if b is not None:
        y += b.data
    data = y.reshape(x.data.shape[:-1] + (dout,))

    def back(g):
        g = g.reshape(-1, dout)
        if _tracked(x):
            _accumulate(x, (g @ w.data.T).reshape(x.data.shape))
        if _tracked(w):
            _accumulate(w, rows.T @ g)
        if b is not None and _tracked(b):
            _accumulate(b, np.einsum("ti->i", g))
    return _result(data, (x, w) if b is None else (x, w, b), back)


def split_heads(x, H):
    """(..., T, H*dh) -> (..., H, T, dh) as one node whose data is a
    strided view of the input's, not a copy."""
    *lead, T, D = x.data.shape
    data = x.data.reshape(*lead, T, H, D // H).swapaxes(-2, -3)

    def back(g):
        _accumulate(x, g.swapaxes(-2, -3).reshape(x.data.shape))
    return _result(data, (x,), back)


def merge_heads(z):
    """Inverse of `split_heads`: (..., H, T, dh) -> (..., T, H*dh)."""
    *lead, H, T, dh = z.data.shape
    data = z.data.swapaxes(-2, -3).reshape(*lead, T, H * dh)

    def back(g):
        _accumulate(z, g.reshape(*lead, T, H, dh).swapaxes(-2, -3))
    return _result(data, (z,), back)


def _softmax_inplace(s, axis=-1):
    """Softmax along `axis` of float array `s`, written over it, with the
    row maxima from one `max` along `axis`. Rows consisting entirely of
    mask values become all zeros instead of NaN. Shared by `softmax_last`
    and the fused attention nodes."""
    m = s.max(axis=axis, keepdims=True)
    # max propagates NaN, so the row maxima stand in for a full scan
    if np.isnan(m).any():
        raise ValueError("softmax_last: NaN in input")
    np.subtract(s, m, out=s)
    np.exp(s, out=s)
    s /= (np.einsum("...i->...", s)[..., None] if axis == -1
          else s.sum(axis=axis, keepdims=True))
    dead = m <= _MASKED_ROW_THRESHOLD
    if dead.any():
        np.copyto(s, 0.0, where=dead)
    return s


def softmax_last(x):
    """Softmax along the last axis. Rows consisting entirely of mask
    values return all zeros instead of NaN.
    """
    y = _softmax_inplace(x.data.copy())

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))
    return _result(y, (x,), back)


def log_softmax_last(x):
    data = x.data
    m = data.max(axis=-1, keepdims=True)
    shifted = data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def back(g):
        _accumulate(x, g - sm * g.sum(axis=-1, keepdims=True))
    return _result(y, (x,), back)


def relu(x):
    data = np.maximum(x.data, 0.0)
    def back(g):
        _accumulate(x, g * (x.data > 0))
    return _result(data, (x,), back)


def tsum(x):
    """Sum of all entries, as a scalar tensor (shape [1])."""
    data = np.array([x.data.sum()])
    def back(g):
        _accumulate(x, np.full_like(x.data, g[0]))
    return _result(data, (x,), back)


def sum_last(x):
    """Sum over the last axis: (..., n) -> (...)."""
    data = x.data.sum(axis=-1)
    def back(g):
        _accumulate(x, np.broadcast_to(g[..., None], x.data.shape))
    return _result(data, (x,), back)


def reshape(x, shape):
    shape = tuple(shape)
    data = x.data.reshape(shape)
    def back(g):
        _accumulate(x, g.reshape(x.data.shape))
    return _result(data, (x,), back)


def transpose(x, axes):
    axes = tuple(axes)
    data = np.ascontiguousarray(np.transpose(x.data, axes))
    inv = np.argsort(axes)
    def back(g):
        _accumulate(x, np.transpose(g, inv))
    return _result(data, (x,), back)


def concat(tensors, axis):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)
    return _result(data, tuple(tensors), back)


def embed(table, ids):
    """Row lookup, table[ids]; the gradient reduceat-sums the stably sorted ids."""
    ids = np.asarray(ids)
    if ids.max(initial=-1) >= table.data.shape[0] or ids.min(initial=0) < 0:
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}) in lookup")
    data = np.take(table.data, ids, axis=0)
    def back(g):
        gt, flat = np.zeros_like(table.data), ids.reshape(-1)
        order = np.argsort(flat.astype(np.min_scalar_type(len(gt))), kind="stable")
        sid = flat[order]
        starts = np.flatnonzero(np.diff(sid, prepend=-1))   # empty ids: none
        rows = np.take(g.reshape(-1, *gt.shape[1:]), order, axis=0)
        gt[sid[starts]] = np.add.reduceat(rows, starts, axis=0)
        _accumulate(table, gt)
    return _result(data, (table,), back)


def gather_last(x, ids):
    """Pick one entry along the last axis per leading index."""
    ids = np.asarray(ids)
    data = np.take_along_axis(x.data, ids[..., None], axis=-1)[..., 0]
    def back(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, ids[..., None], g.reshape(ids.shape + (1,)), axis=-1)
        _accumulate(x, full)
    return _result(data, (x,), back)


def layer_norm(x, gain, bias):
    """Layer normalization over the last axis, with eps 1e-5 and learned
    gain/bias."""
    n = x.data.shape[-1]
    xhat = x.data - np.einsum("...i->...", x.data)[..., None] / n
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / n + 1e-5)
    xhat *= inv
    data = xhat * gain.data + bias.data

    def back(g):
        g2 = g.reshape(-1, n)
        _accumulate(gain, np.einsum("ti,ti->i", g2, xhat.reshape(-1, n)))
        _accumulate(bias, np.einsum("ti->i", g2))
        dxhat = g * gain.data
        dx = dxhat - np.einsum("...i->...", dxhat)[..., None] / n
        dx -= xhat * (np.einsum("...i,...i->...", dxhat, xhat)[..., None] / n)
        dx *= inv
        _accumulate(x, dx)
    return _result(data, (x, gain, bias), back)

