"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer; ops build a tape
of parent links and adjoints.  An adjoint is a pure function: it takes the
output's gradient and returns one gradient per parent, in parent order, and
touches no tensor.  Tensor.backward() walks the tape in reverse topological
order, accumulates each returned gradient into the parents that require one,
and releases each node as it goes.  Inside `no_grad()` ops record nothing,
so intermediates are freed as soon as the next op has read them; the switch
is per thread.  Constants an op depends on sit on the tape as parents whose
gradient is None; a rectified output (relu, or a conv that carries its ReLU
with `relu=True`) records its sign mask that way, packed one bit per value,
and only while a tape is recorded, so a gradient check can tell from two
tapes whether a perturbation crossed a kink.  A fused conv keeps that mask
instead of its pre-activation output, which no adjoint reads.  A sum of
several tensors (`add_n`) is one node, not a chain of partial sums that no
adjoint reads either.  Ops compute at their operands' numpy dtype: float32
is the training and inference dtype, and the same code paths accept
float64 for finite-difference verification.
"""

import threading
from contextlib import contextmanager

import numpy as np

from ..errors import DataError, DimensionError
from .kernels import ConvParams, dilated_conv2d, dilated_conv2d_backward, rectify


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into the grad of every leaf of the tape,
        seeded with ones.

        The walk spends the graph: once a node's adjoint has run, the node
        drops its grad, adjoint and parent links and becomes a constant, so
        each intermediate is freed as soon as nothing upstream needs it.  A
        second call on the same graph does nothing."""
        if not self.requires_grad:
            return
        order = walk(self)
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                for p, g in zip(node._parents, node._backward(node.grad), strict=True):
                    if p.requires_grad:
                        p._accumulate(g)
            node.grad = node._backward = None
            node._parents = ()
            node.requires_grad = False

    def __add__(self, other):
        return add(self, other)


def walk(root):
    """Every tensor on root's tape once, each after all of its parents, root
    last.  By an explicit stack: a recursive closure would be a reference
    cycle holding the whole tape until the cyclic GC ran."""
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        for p in stack[-1][1]:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(stack.pop()[0])
    return order


def _wrap(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _wrap2(a, b):
    # keep python scalars / plain arrays at the Tensor operand's dtype
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _wrap(a), _wrap(b)


def _needs(*tensors):
    # only a tensor that requires a gradient has an adjoint: see _make, backward
    return any(t.requires_grad for t in tensors)


class _TapeState(threading.local):
    enabled = True


_TAPE = _TapeState()


@contextmanager
def no_grad():
    """Record no tape in this thread for the duration of the block."""
    prev = _TAPE.enabled
    _TAPE.enabled = False
    try:
        yield
    finally:
        _TAPE.enabled = prev


def _make(data, parents, backward):
    out = Tensor(data)
    if _TAPE.enabled and _needs(*parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


def _rectified(data, parents, backward):
    """`data`, a ReLU's output, made like `_make` with the ReLU's sign mask,
    packed one bit per value, as one more, constant parent: a gradient check
    reads it off the tape, and two masks are equal exactly when their
    packings are.  `backward` is the adjoint of the op before the ReLU, and
    gets the gradient masked.  Without a tape no mask is computed."""
    if not (_TAPE.enabled and _needs(*parents)):
        return Tensor(data)
    bits = np.packbits(data > 0, axis=None)
    shape = data.shape

    def adjoint(g):
        mask = np.unpackbits(bits, count=g.size).reshape(shape).view(bool)
        return (*backward(g * mask), None)

    return _make(data, (*parents, Tensor(bits)), adjoint)


def astype(a, dtype):
    """Cast to `dtype`; returns `a` itself when it already has that dtype."""
    a = _wrap(a)
    if a.dtype == dtype:
        return a
    return _make(a.data.astype(dtype), (a,), lambda g: (g,))


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    a, b = _wrap2(a, b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), backward)


def add_n(tensors):
    """The sum of an iterable of same-shape tensors, left to right: the
    bytes of (t1 + t2) + t3 ..., recorded as one node whose adjoint passes
    the gradient to every summand.  Without a tape no summand is held once
    it has been added, so the outputs of a generator are freed one by one."""
    parents = [] if _TAPE.enabled else None
    total = None
    for t in map(_wrap, tensors):
        if total is None:
            total = t.data
        elif t.shape != total.shape:
            raise DimensionError(f"add_n shapes differ: {total.shape} vs {t.shape}")
        else:
            total = total + t.data
        if parents is not None:
            parents.append(t)
        del t  # not held while the next summand is computed
    if total is None:
        raise DimensionError("add_n of no tensors")
    return _make(total, parents or (), lambda g: (g,) * len(parents))


def sub(a, b):
    a, b = _wrap2(a, b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _wrap2(a, b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(a.data * b.data, (a, b), backward)


def relu(a):
    a = _wrap(a)
    return _rectified(rectify(a.data, np.empty_like(a.data)), (a,), lambda g: (g,))


def sigmoid(a):
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def log(a, eps=0.0):
    a = _wrap(a)
    val = a.data + eps
    return _make(np.log(val), (a,), lambda g: (g / val,))


def mean(a):
    a = _wrap(a)
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.dtype)
    return _make(out, (a,), lambda g: (np.full_like(a.data, g / n),))


def tsum(a):
    a = _wrap(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    return _make(out, (a,), lambda g: (np.full_like(a.data, g),))


def concat_channels(*tensors):
    """Concatenate N x C_i x H x W tensors along the channel axis."""
    ts = [_wrap(t) for t in tensors]
    base = ts[0].shape
    for t in ts[1:]:
        if t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise DimensionError(f"cannot concat shapes {[t.shape for t in ts]}")
    offsets = np.cumsum([0] + [t.shape[1] for t in ts])

    def backward(g):
        return [g[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    return _make(np.concatenate([t.data for t in ts], axis=1), ts, backward)


def split_channels(a, sizes):
    """Exact inverse of concat_channels; returns one tensor per size."""
    a = _wrap(a)
    if sum(sizes) != a.shape[1]:
        raise DimensionError(f"split sizes {sizes} do not sum to {a.shape[1]} channels")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        lo, hi = int(lo), int(hi)

        def backward(g, lo=lo, hi=hi):
            full = np.zeros_like(a.data)
            full[:, lo:hi] = g
            return (full,)

        outs.append(_make(a.data[:, lo:hi].copy(), (a,), backward))
    return outs


def channel_softmax(a):
    """Softmax over the channel axis of an N x C x H x W tensor."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (a,), backward)


def conv2d(x, weight, bias, dilation=1, pads=None, relu=False):
    """Autodiff dilated convolution; weight (O,I,k,k), bias (O,).  `pads`
    (top, bottom, left, right) as in `dilated_conv2d`, by default the
    radius on every side.  With `relu` the output is rectified in the same
    pass, with the bytes of relu(conv2d(...)) and its gradients."""
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    params = ConvParams(weights=weight.data, bias=bias.data, dilation=dilation)
    out = dilated_conv2d(x.data, params, pads, relu)

    def backward(g):
        # looked up at call time, so a wrapper installed on the module sees it
        return dilated_conv2d_backward(x.data, params, g, pads)

    return (_rectified if relu else _make)(out, (x, weight, bias), backward)


def crop(a, top, bottom, left, right):
    """`a` (N x C x H x W) without `top`, `bottom`, `left` and `right` rows
    and columns on those sides; `a` itself when all four are 0."""
    a = _wrap(a)
    if not (top or bottom or left or right):
        return a
    h, w = a.shape[2:]
    box = (slice(None), slice(None), slice(top, h - bottom), slice(left, w - right))

    def backward(g):
        full = np.zeros_like(a.data)
        full[box] = g
        return (full,)

    return _make(a.data[box], (a,), backward)


def mse(pred, target):
    """Mean squared error over all elements; target may be a plain array."""
    pred = _wrap(pred)
    target = _wrap(target, pred.dtype)
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    d = sub(pred, target)
    return mean(mul(d, d))


def bce(prob, target):
    """Mean binary cross-entropy of probabilities against a binary target."""
    prob = _wrap(prob)
    target = np.asarray(target.data if isinstance(target, Tensor) else target)
    if prob.shape != target.shape:
        raise DimensionError(f"bce shapes differ: {prob.shape} vs {target.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise DataError("bce target must be binary")
    pos = mul(log(prob, 1e-7), target)  # 1e-7 keeps both logs finite at 0 and 1
    neg = mul(log(sub(1.0, prob), 1e-7), 1.0 - target)
    return mul(mean(add(pos, neg)), -1.0)
