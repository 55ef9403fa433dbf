"""Dense tensors with reverse-mode automatic differentiation.

The graph is kept apart from the data. Every recorded op gives its output
a _Node: edges to its inputs' nodes (or to the inputs themselves, when
they are leaves or were recorded without grad) and a closure that maps
the output gradient to theirs. A closure captures only the arrays, shapes
and flags its formula reads, never a Tensor with a node, so no activation
outlives its last reader. backward() walks the nodes once in reverse
topological order, so each node's gradient is fully accumulated before it
is used, and consumes them: a node drops its edges and closure once the
closure has run, and a second backward through the same graph raises.
Two losses that share a subgraph therefore need one backward(add(l1, l2)).
Arrays are float32 by default; grad_check temporarily promotes the
parameters it probes to float64 because float32 finite differences are
too noisy to certify anything. The ops are those the pipeline calls, and
scale, which perfbench still names.

Row-local chains are single nodes: softmax takes scale and mask
(softmax(x * scale + mask)), layer_norm takes a residual it adds first,
and dropout keeps a bool mask, so none of them stores an intermediate its
backward does not read. gelu keeps only its input: backward recomputes
its tanh. softmax and layer_norm run over tiles of the leading axis,
gelu and Adam over tiles of the flat array, each tile about _TILE
elements so the passes over it stay in L2. The arithmetic, and so every
bit of the result, is that of the whole-array formulas.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward passes only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class EmptyBatchError(ValueError):
    """A loss was requested over zero labeled positions."""


class Tensor:
    """A dense float array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable | None:
        return None if self._node is None else self._node._backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    """The graph vertex of one recorded op output: edges and closure, no data."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True  # as the output it stands for, so backward walks nodes and leaves alike

    def __init__(self, parents: tuple, backward_fn: Callable):
        self._parents = parents
        self._backward = backward_fn


def parameter(data, dtype=np.float32) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Build an op output; record the graph edge only when it can matter."""
    record = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = record
    out._node = _Node(tuple([p._node or p for p in parents]), backward_fn) if record else None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# Elements per tile of the memory-bound kernels: a few float32 tiles of
# 128 KB each stay resident in a 2 MB L2 between the passes over a tile.
_TILE = 1 << 15


def _tiled(kernel: Callable, rows: int, args: tuple, outs: Callable = tuple) -> tuple:
    """Run kernel over tiles of about _TILE elements of args[0] and return its outputs.

    If args[0] fits in one tile, kernel(*args) runs once and allocates its
    outputs. Otherwise tiles split a leading axis of `rows` rows (rows 1
    never splits), outs() allocates the outputs, and kernel(*arg_tiles,
    *out_tiles) fills them; an arg without that axis goes whole to each tile.
    """
    first = args[0]
    step = max(1, _TILE * rows // first.size) if first.size else rows
    if step >= rows:
        return kernel(*args)
    full = outs()
    for start in range(0, rows, step):
        sl = slice(start, start + step)
        kernel(*(a[sl] if a is not None and a.ndim == first.ndim and len(a) == rows else a
                 for a in args), *(o[sl] for o in full))
    return full


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def backward_fn(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _result(data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    c = a.data.dtype.type(c)
    data = a.data * c

    def backward_fn(g):
        return (g * c,)

    return _result(data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over leading axes; a layer's weight goes through linear."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)
    ad, bd, ra, rb = a.data, b.data, a.requires_grad, b.requires_grad

    def backward_fn(g):
        ga = gb = None
        if ra:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if rb:
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return (ga, gb)

    return _result(data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (k, n) weight and an (n,) bias, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    data = np.matmul(x.data, w.data)
    data += b.data
    xd, wd, sb = x.data, w.data, b.data.shape
    rx, rw, rb = x.requires_grad, w.requires_grad, b.requires_grad

    def backward_fn(g):
        gx = gw = gb = None
        if rx:
            gx = np.matmul(g, wd.T)
        if rw:
            # one GEMM over every leading row, not a batched product then a sum
            k, n = wd.shape
            gw = xd.reshape(-1, k).T @ g.reshape(-1, n)
        if rb:
            gb = _unbroadcast(g, sb)
        return (gx, gw, gb)

    return _result(data, (x, w, b), backward_fn)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    data = np.transpose(a.data, axes)

    def backward_fn(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _result(data, (a,), backward_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    orig = a.data.shape
    data = a.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(orig),)

    return _result(data, (a,), backward_fn)


def softmax(x: Tensor, axis: int = -1, *, scale: float | None = None, mask=None) -> Tensor:
    """Numerically stable softmax(x * scale + mask) along one axis, as one node.

    mask is an additive array that broadcasts to x's shape.
    """
    x = as_tensor(x)
    d = x.data
    c = None if scale is None else d.dtype.type(scale)
    mask = None if mask is None else np.asarray(mask, dtype=d.dtype)
    rows = d.shape[0] if d.ndim > 1 and axis % d.ndim != 0 else 1

    def forward(z, mask, s=None):
        if c is not None:
            z = s = np.multiply(z, c, out=s)
        if mask is not None:
            z = s = np.add(z, mask, out=s)
        s = np.subtract(z, z.max(axis=axis, keepdims=True), out=s)
        np.exp(s, out=s)
        s /= s.sum(axis=axis, keepdims=True)
        return (s,)

    s, = _tiled(forward, rows, (d, mask), lambda: (np.empty_like(d),))
    if s.shape != d.shape:
        raise ValueError(f"softmax mask {mask.shape} does not broadcast to {d.shape}")

    def backward_fn(g):
        def grad(s, g, gx=None):
            gx = np.multiply(g, s, out=gx)
            np.subtract(g, gx.sum(axis=axis, keepdims=True), out=gx)
            gx *= s
            if c is not None:
                gx *= c
            return (gx,)

        return _tiled(grad, rows, (s, g), lambda: (np.empty_like(s),))

    return _result(s, (x,), backward_fn)


_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


def _gelu_tanh(d):
    """tanh(K * (d + C * d * d * d)), in that operation order."""
    t = np.multiply(d, _GELU_C)
    t *= d
    t *= d
    t += d
    t *= _GELU_K
    return np.tanh(t, out=t)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = as_tensor(x)
    shape, d = x.data.shape, x.data.reshape(-1)

    def forward(d, out=None):
        out = np.multiply(d, 0.5, out=out)
        out *= _gelu_tanh(d) + 1.0
        return (out,)

    out, = _tiled(forward, d.size, (d,), lambda: (np.empty_like(d),))

    def backward_fn(g):
        def grad(d, g, dx=None):
            # dx = 0.5 * (1 + t) + 0.5 * d * (1 - t * t) * K * (1 + 3 * C * d * d)
            t = _gelu_tanh(d)
            dx = np.multiply(d, 3.0 * _GELU_C, out=dx)
            dx *= d
            dx += 1.0
            dx *= _GELU_K
            dx *= 0.5 * d * (1.0 - t * t)
            dx += 0.5 * (1.0 + t)
            dx *= g
            return (dx,)

        dx, = _tiled(grad, d.size, (d, g.reshape(-1)), lambda: (np.empty_like(d),))
        return (dx.reshape(shape),)

    return _result(out.reshape(shape), (x,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12,
               residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis of x (+ residual) to zero mean and unit variance, then affine.

    With a residual the sum is a temporary of the forward, and x and
    residual get the same gradient, as through add.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ValueError(
            f"layer_norm affine shape mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    parents, d, r = (x, gamma, beta), x.data, None
    if residual is not None:
        residual = as_tensor(residual)
        if residual.data.shape != d.shape:
            raise ValueError(f"layer_norm residual {residual.shape} does not match x {x.shape}")
        parents, r = parents + (residual,), residual.data
    rows = d.shape[0] if d.ndim > 1 else 1
    eps = d.dtype.type(eps)
    gd, rg, rb = gamma.data, gamma.requires_grad, beta.requires_grad
    rx = x.requires_grad or (residual is not None and residual.requires_grad)

    def mean(a):  # a.mean(axis=-1, keepdims=True), bit for bit, without its Python overhead
        return np.add.reduce(a, axis=-1, keepdims=True) / n

    def forward(d, r, xhat=None, out=None, inv=None):
        # the residual sum lands in the xhat buffer and is centred there
        z = d if r is None else np.add(d, r, out=xhat)
        xhat = np.subtract(z, mean(z), out=xhat if r is None else z)
        out = np.multiply(xhat, xhat, out=out)  # working buffer: the squares, then the output
        inv = np.divide(1.0, np.sqrt(mean(out) + eps), out=inv)
        xhat *= inv
        np.multiply(xhat, gamma.data, out=out)
        out += beta.data
        return xhat, out, inv

    xhat, out, inv = _tiled(forward, rows, (d, r), lambda: (
        np.empty_like(d), np.empty_like(d), np.empty(d.shape[:-1] + (1,), dtype=d.dtype)))

    def backward_fn(g):
        gx = ggamma = gbeta = None
        # reductions across rows stay whole: tiles would change their summation order
        lead = tuple(range(g.ndim - 1))
        buf = g * xhat
        if rg:
            ggamma = buf.sum(axis=lead)
        if rb:
            gbeta = g.sum(axis=lead)

        def grad(g, xhat, inv, buf, gx=None):
            # gx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            gx = np.multiply(g, gd, out=gx)
            m1 = mean(gx)
            np.multiply(gx, xhat, out=buf)
            np.multiply(xhat, mean(buf), out=buf)
            gx -= m1
            gx -= buf
            gx *= inv
            return (gx,)

        if rx:
            gx, = _tiled(grad, rows, (g, xhat, inv, buf), lambda: (np.empty_like(g),))
        return (gx, ggamma, gbeta, gx)

    return _result(out, parents, backward_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: a gather of integer ids, checked so that no negative id wraps around."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"embedding id out of range for table with {table.shape[0]} rows")
    return gather(table, ids)


def gather(x: Tensor, index) -> Tensor:
    """x.data[index] for an advanced index over the leading axes: an array or a tuple of them.

    The one op that scatters rows back. Its backward assigns the gradient
    when the index reads each row at most once, and accumulates repeated
    rows with np.add.at otherwise, which costs ~16x more on a wide vocab.
    """
    x = as_tensor(x)
    data = x.data[index]
    shape, dtype = x.data.shape, x.data.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        lead = index if isinstance(index, tuple) else (index,)
        flat = np.ravel_multi_index(np.broadcast_arrays(*lead), shape[:len(lead)], mode="wrap")
        if np.unique(flat).size == flat.size:
            gx[index] = g
        else:
            np.add.at(gx, index, g)
        return (gx,)

    return _result(data, (x,), backward_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a bool keep mask; draws one rng.random(x.shape) per call."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    if rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    c = x.data.dtype.type(1.0) / x.data.dtype.type(1.0 - rate)
    out = x.data * c
    out *= keep

    def backward_fn(g):
        gx = g * c
        gx *= keep
        return (gx,)

    return _result(out, (x,), backward_fn)


def cross_entropy_masked(logits: Tensor, positions, label_ids) -> Tensor:
    """Mean negative log-likelihood over the labeled rows of a (rows, vocab) tensor.

    positions/label_ids are parallel integer arrays. Unless positions is
    every row in order, the labelled rows are gathered first, so only
    gather scatters the gradient back and everything else gets zero.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy_masked expects rank 2 logits, got {logits.shape}")
    positions = np.asarray(positions, dtype=np.int64).reshape(-1)
    label_ids = np.asarray(label_ids, dtype=np.int64).reshape(-1)
    if positions.shape != label_ids.shape:
        raise ValueError(
            f"positions and labels disagree: {positions.shape} vs {label_ids.shape}"
        )
    if positions.size == 0:
        raise EmptyBatchError("empty label batch: loss over zero positions is undefined")
    n_rows, n_classes = logits.shape
    if positions.min() < 0 or positions.max() >= n_rows:
        raise ValueError(f"label position out of range for {n_rows} rows")
    if label_ids.min() < 0 or label_ids.max() >= n_classes:
        raise ValueError(f"label id out of range for {n_classes} classes")

    n = positions.size
    if n != n_rows or not np.array_equal(positions, np.arange(n)):
        logits = gather(logits, positions)
    rows = logits.data
    m = rows.max(axis=-1, keepdims=True)
    e = rows - m
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    logz = np.log(z[:, 0]) + m[:, 0]
    picked = rows[np.arange(n), label_ids]
    losses = logz - picked
    out = np.asarray(np.add.reduce(losses) / n, dtype=rows.dtype)

    def backward_fn(g):
        p = e  # the forward's exp, normalised in place: backward runs once
        p /= z
        p[np.arange(n), label_ids] -= 1.0
        p *= np.asarray(g, dtype=p.dtype) / n
        return (p,)

    return _result(out, (logits,), backward_fn)


def _consumed(g):
    raise ValueError("backward already ran through this graph")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every trainable leaf, consuming the graph."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss._node or loss
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents, fn = node._parents, node._backward
        node._parents, node._backward = (), _consumed
        for parent, pg in zip(parents, fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def _graph_leaves(loss: Tensor) -> list[Tensor]:
    leaves: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss._node or loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            stack.extend(node._parents)
        elif node._backward is None:
            leaves.append(node)
    return leaves


def grad_check(build_loss: Callable[[], Tensor], params: Iterable[Tensor],
               eps: float = 1e-3, floor: float = 1e-3) -> float:
    """Compare analytic gradients against central differences.

    build_loss must rebuild the graph from the given parameter tensors on
    every call (and must be deterministic: no dropout). Returns the max
    relative error over all coordinates; an empty parameter list passes
    vacuously with 0.0.

    Coordinates whose gradient magnitude falls below `floor` are compared
    absolutely at floor scale: the difference quotient bottoms out at
    loss-roundoff / eps, so pure relative error on a negligible gradient
    only measures that noise, not correctness.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    if floor <= 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
    params = list(params)
    if not params:
        return 0.0
    for p in params:
        if p._backward is not None:
            raise ValueError("grad_check params must be leaf tensors")
    # float64 throughout: float32 differences drown in roundoff. Every
    # float leaf of the graph is promoted, not just the probed params,
    # so the finite-difference loss is evaluated at full precision.
    promoted: list[Tensor] = []
    originals: list[np.ndarray] = []

    def promote(t: Tensor) -> None:
        if id(t) not in {id(q) for q in promoted} and t.data.dtype == np.float32:
            promoted.append(t)
            originals.append(t.data)
            t.data = t.data.astype(np.float64)

    try:
        for p in params:
            promote(p)
            p.grad = None
        loss = build_loss()
        if loss.data.size != 1:
            raise ValueError("build_loss must return a scalar")
        extra = [t for t in _graph_leaves(loss) if t.data.dtype == np.float32]
        if extra:
            for t in extra:
                promote(t)
            for p in params:
                p.grad = None
            loss = build_loss()
        backward(loss)
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
        worst = 0.0
        with no_grad():
            for p, ana in zip(params, analytic):
                flat = p.data.reshape(-1)
                aflat = ana.reshape(-1)
                for i in range(flat.size):
                    v = flat[i]
                    flat[i] = v + eps
                    f_plus = float(build_loss().data)
                    flat[i] = v - eps
                    f_minus = float(build_loss().data)
                    flat[i] = v
                    numeric = (f_plus - f_minus) / (2.0 * eps)
                    a = float(aflat[i])
                    rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
                    worst = max(worst, rel)
        return worst
    finally:
        for t, d in zip(promoted, originals):
            t.data = d
        for p in params:
            p.grad = None
