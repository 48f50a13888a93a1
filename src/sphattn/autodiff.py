"""Reverse-mode automatic differentiation over numpy arrays.

A small eager autograd engine: each operation computes its value
immediately and records its parents together with one vector-Jacobian
product per parent, ``vjp[i](ct, out, *parents)``, which returns the
cotangent of parent ``i`` alone. ``grad`` collects the nodes that lie on
a path from a target to the output, walks them in reverse creation order,
and calls a node's ``vjp[i]`` only when parent ``i`` is on such a path
too; cotangents of constants, of parameters under a position gradient,
and of anything else off every target path are never computed. A VJP
keeps only static data (shapes, axes, index keys) and never a node, so no
node refers to itself and a finished graph is freed by refcounting alone.

Every primitive returns a plain array when none of its arguments is a
Node, and a Node otherwise, so code written in them needs no mode switch
of its own: it runs as plain numpy on arrays and records a graph as soon
as one input is a node. ``value_of`` reads the array behind either. The
VJPs are written in those primitives, so one definition serves both
kinds of backward pass:

* ``grad(..., create_graph=True)``, the default, hands the VJPs nodes.
  The gradients it returns are graph nodes themselves, so a force
  prediction obtained by one reverse pass can enter a loss whose
  parameter gradient is computed by a second reverse pass over the
  extended graph.
* ``grad(..., create_graph=False)`` hands the same VJPs plain arrays,
  records nothing, drops each cotangent once it has been consumed and
  returns parentless constants. Callers that take one gradient and only
  read its value (energy and forces, validation) use it; both modes give
  bitwise-equal gradients.

Everything is double precision. One evaluation builds one implicit tape;
tapes must not be shared across threads, but independent evaluations may
run concurrently.

A tape allocates and frees hundreds of megabytes per call on large
structures. By default glibc hands large freed blocks back to the kernel,
so the next call pays for every page to be zero-filled again. Importing
this module therefore asks glibc's ``malloc`` to keep freed memory in the
process: no trimming of the heap top, and no ``mmap`` for large blocks.
``HEAP_RETAINED`` says whether that took effect; it is False where
``mallopt`` does not exist or refuses (macOS, musl). The cost is that the
process keeps its high-water mark after a call.
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np

_COUNTER = itertools.count()

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _retain_freed_memory() -> bool:
    """Keep freed heap memory for reuse instead of returning it to the kernel.

    Both settings are needed: a trim threshold alone leaves blocks above
    the mmap threshold to be unmapped on free, and disabling mmap alone
    moves them onto a heap whose freed top is then trimmed. Returns
    whether glibc accepted both.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a threshold of -1 is the largest size_t: the heap is never trimmed
    return mallopt(_M_TRIM_THRESHOLD, -1) == 1 and mallopt(_M_MMAP_MAX, 0) == 1


HEAP_RETAINED = _retain_freed_memory()


class MissingDependencyError(ValueError):
    """Raised when a gradient target is not part of the evaluated graph."""


class Node:
    """One value in the computation graph.

    ``value`` is always a float64 ndarray (possibly 0-d). Leaves have no
    parents; interior nodes carry ``vjp``, a tuple of one function per
    parent: ``vjp[i](ct, out, *parents)`` maps the incoming cotangent to
    the cotangent of parent ``i``. ``grad`` calls it only for parents on
    a path to a target, passing either this node and its parents or their
    values.
    """

    __slots__ = ("value", "op", "parents", "vjp", "tid", "__weakref__")

    def __init__(self, value, op="leaf", parents=(), vjp=None):
        self.value = np.asarray(value)
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.tid = next(_COUNTER)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, tid={self.tid})"

    # arithmetic sugar; scalars and arrays are lifted to constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_const(self, p)

    def __matmul__(self, other):
        return matmul(self, other)


def leaf(value) -> Node:
    """Wrap an array as a differentiable input."""
    return Node(np.asarray(value, dtype=float))


def constant(value) -> Node:
    """Wrap an array as a non-differentiable constant."""
    return Node(np.asarray(value, dtype=float), op="const")


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def value_of(x):
    """The array behind ``x``: a Node's value, or ``x`` itself otherwise."""
    return x.value if type(x) is Node else x


def sum_to(g, shape: tuple[int, ...]):
    """Reduce a broadcast cotangent back to the parent's ``shape``."""
    if g.shape == shape:
        return g
    extra = len(g.shape) - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    return g


def _unary(name, f, vjp):
    vjps = (vjp,)

    def op(a):
        if type(a) is not Node:
            return f(a)
        return Node(f(a.value), name, (a,), vjps)

    op.__name__ = name
    return op


def _binary(name, f, vjp_a, vjp_b):
    vjps = (vjp_a, vjp_b)

    def op(a, b):
        if type(a) is not Node and type(b) is not Node:
            return f(a, b)
        a, b = as_node(a), as_node(b)
        return Node(f(a.value, b.value), name, (a, b), vjps)

    op.__name__ = name
    return op


def apply(name, f, vjps, *args):
    """``f`` of the arguments' values, recorded as a node when one is a node.

    ``vjps`` holds one VJP per argument, in the form ``Node`` documents;
    with only plain arrays ``f(*args)`` comes back as it is. This is how a
    module outside this one defines a primitive of its own.
    """
    if not any(type(a) is Node for a in args):
        return f(*args)
    args = tuple(as_node(a) for a in args)
    return Node(f(*(a.value for a in args)), name, args, tuple(vjps))


def _logistic(z):
    # evaluated via exp(-|z|) to avoid overflow
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


add = _binary("add", np.add, lambda ct, out, a, b: sum_to(ct, a.shape),
              lambda ct, out, a, b: sum_to(ct, b.shape))
sub = _binary("sub", np.subtract, lambda ct, out, a, b: sum_to(ct, a.shape),
              lambda ct, out, a, b: sum_to(neg(ct), b.shape))
mul = _binary("mul", np.multiply, lambda ct, out, a, b: sum_to(mul(ct, b), a.shape),
              lambda ct, out, a, b: sum_to(mul(ct, a), b.shape))
div = _binary("div", np.divide, lambda ct, out, a, b: sum_to(div(ct, b), a.shape),
              lambda ct, out, a, b: sum_to(neg(div(mul(ct, out), b)), b.shape))
neg = _unary("neg", np.negative, lambda ct, out, a: neg(ct))
exp = _unary("exp", np.exp, lambda ct, out, a: mul(ct, out))
log = _unary("log", np.log, lambda ct, out, a: div(ct, a))
sqrt = _unary("sqrt", np.sqrt, lambda ct, out, a: div(ct, mul(2.0, out)))
sin = _unary("sin", np.sin, lambda ct, out, a: mul(ct, cos(a)))
cos = _unary("cos", np.cos, lambda ct, out, a: neg(mul(ct, sin(a))))
tanh = _unary("tanh", np.tanh, lambda ct, out, a: mul(ct, sub(1.0, mul(out, out))))
sigmoid = _unary("sigmoid", _logistic, lambda ct, out, a: mul(ct, mul(out, sub(1.0, out))))


def pow_const(a, p: float):
    p = float(p)
    if type(a) is not Node:
        return a**p
    return Node(a.value**p, "pow", (a,), (lambda ct, out, a: mul(ct, mul(p, pow_const(a, p - 1.0))),))


def sum_(a, axis=None, keepdims=False):
    if type(a) is not Node:
        return np.sum(a, axis=axis, keepdims=keepdims)
    shape = a.value.shape
    if axis is None:
        kshape = (1,) * len(shape) if shape else None
    elif keepdims:
        kshape = None
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        kshape = tuple(1 if i in axes else n for i, n in enumerate(shape))

    def vjp(ct, out, a):
        return broadcast_to(ct if kshape is None else reshape(ct, kshape), shape)

    return Node(np.sum(a.value, axis=axis, keepdims=keepdims), "sum", (a,), (vjp,))


def mean(a, axis=None, keepdims=False):
    x = value_of(a)
    n = x.size if axis is None else np.prod(
        [x.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )
    return div(sum_(a, axis=axis, keepdims=keepdims), float(n))


def _sum_exact_vjp(ct, out, a):
    g = reshape(ct, (1,) * len(a.shape)) if a.shape else ct
    return broadcast_to(g, a.shape)


def sum_exact(a):
    """Correctly rounded full reduction (math.fsum); order-independent."""
    val = np.asarray(math.fsum(np.ravel(value_of(a)).tolist()))
    return Node(val, "fsum", (a,), (_sum_exact_vjp,)) if type(a) is Node else val


def segment_sum(a, segment_ids, num_segments: int, exact: bool = False):
    """Sum rows of ``a`` into ``num_segments`` buckets along axis 0.

    Accumulation follows row order (np.add.at), which is deterministic.
    With ``exact=True`` (1-d input only) each bucket uses math.fsum, so
    the result does not depend on row order at all.
    """
    x = value_of(a)
    ids = np.asarray(segment_ids, dtype=int)
    if exact:
        if x.ndim != 1:
            raise ValueError("exact segment_sum supports 1-d input only")
        val = np.array([math.fsum(x[ids == s].tolist()) for s in range(num_segments)])
    else:
        val = np.zeros((num_segments,) + x.shape[1:])
        np.add.at(val, ids, x)
    if type(a) is not Node:
        return val
    return Node(val, "segment_sum", (a,), (lambda ct, out, a: take(ct, (ids,)),))


def _matmul_vjp_a(ct, out, a, b):
    # a contraction of length 1 is an outer product: a broadcasting multiply
    # forms the same single products, without a batched matmul per pair
    g = mul(ct, _swap_last(b)) if b.shape[-1] == 1 else matmul(ct, _swap_last(b))
    return sum_to(g, a.shape)


def _matmul_vjp_b(ct, out, a, b):
    g = mul(_swap_last(a), ct) if a.shape[-2] == 1 else matmul(_swap_last(a), ct)
    return sum_to(g, b.shape)


_MATMUL_VJP = (_matmul_vjp_a, _matmul_vjp_b)


def matmul(a, b):
    """Matrix product with numpy batch broadcasting; operands must be >= 2-d."""
    if type(a) is not Node and type(b) is not Node:
        return a @ b
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return Node(a.value @ b.value, "matmul", (a, b), _MATMUL_VJP)


def _swap_last(a):
    n = len(a.shape)
    return transpose(a, tuple(range(n - 2)) + (n - 1, n - 2))


def transpose(a, axes=None):
    if type(a) is not Node:
        return np.transpose(a, axes)
    if axes is None:
        axes = tuple(reversed(range(a.value.ndim)))
    inv = tuple(np.argsort(axes))
    return Node(np.transpose(a.value, axes), "transpose", (a,), (lambda ct, out, a: transpose(ct, inv),))


def reshape(a, shape):
    if type(a) is not Node:
        return np.reshape(a, shape)
    return Node(np.reshape(a.value, shape), "reshape", (a,), (lambda ct, out, a: reshape(ct, a.shape),))


def broadcast_to(a, shape):
    if type(a) is not Node:
        return np.broadcast_to(a, shape).copy()
    val = np.broadcast_to(a.value, shape).copy()
    return Node(val, "broadcast", (a,), (lambda ct, out, a: sum_to(ct, a.shape),))


def concat(nodes, axis=0):
    if not any(type(n) is Node for n in nodes):
        return np.concatenate(nodes, axis=axis)
    nodes = [as_node(n) for n in nodes]
    offsets = np.cumsum([0] + [n.value.shape[axis] for n in nodes])
    vjps = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        key = [slice(None)] * nodes[0].value.ndim
        key[axis] = slice(int(lo), int(hi))
        # the key is bound as a default: a closure would see only the last one
        vjps.append(lambda ct, out, *parents, key=tuple(key): take(ct, key))
    return Node(np.concatenate([n.value for n in nodes], axis=axis), "concat", tuple(nodes), tuple(vjps))


def take(a, key):
    """Basic or integer-array indexing; the gradient scatter-adds into zeros."""
    if type(a) is not Node:
        return a[key]
    val = a.value[key]
    if np.isscalar(val) or val.ndim == 0:
        val = np.asarray(val, dtype=float)
    return Node(val, "take", (a,), (lambda ct, out, a: scatter_add(a.shape, key, ct),))


def _is_basic(key) -> bool:
    # slices, Ellipsis and Python ints (not bools, not arrays) select each
    # element of the indexed array at most once
    return all(k is Ellipsis or type(k) in (slice, int) for k in (key if type(key) is tuple else (key,)))


def scatter_add(shape, key, values):
    """Zeros of ``shape`` with ``values`` added at ``key`` (duplicates accumulate).

    A basic key hits each element at most once, so a plain in-place add
    gives the bits of ``np.add.at`` (0.0 + v either way) without its
    per-element loop.
    """
    out = np.zeros(shape)
    if _is_basic(key):
        out[key] += value_of(values)
    else:
        np.add.at(out, key, value_of(values))
    if type(values) is not Node:
        return out
    return Node(out, "scatter_add", (values,), (lambda ct, out, values: take(ct, key),))


def where_mask(mask, a, b):
    """Elementwise select with a fixed boolean mask (not differentiated)."""
    mask = np.asarray(mask, dtype=bool)
    if type(a) is not Node and type(b) is not Node:
        return np.where(mask, a, b)
    a, b = as_node(a), as_node(b)

    vjps = (
        lambda ct, out, a, b: sum_to(where_mask(mask, ct, 0.0), a.shape),
        lambda ct, out, a, b: sum_to(where_mask(mask, 0.0, ct), b.shape),
    )
    return Node(np.where(mask, a.value, b.value), "where", (a, b), vjps)


def norm(a, axis=-1, keepdims=False):
    """Euclidean norm along one axis with the zero-vector subgradient set to 0.

    Implemented as a primitive rather than sqrt(sum(x^2)) so the gradient
    at the zero vector is exactly zero instead of NaN.
    """
    x = value_of(a)
    val = np.asarray(np.sqrt(np.sum(x * x, axis=axis, keepdims=keepdims)))
    if type(a) is not Node:
        return val
    kshape = list(val.shape)
    if not keepdims:
        kshape.insert(axis % x.ndim, 1)

    def vjp(ct, out, a):
        if not keepdims:
            out, ct = reshape(out, tuple(kshape)), reshape(ct, tuple(kshape))
        nonzero = value_of(out) > 0
        safe = where_mask(nonzero, out, 1.0)
        return where_mask(np.broadcast_to(nonzero, a.shape), div(mul(ct, a), safe), 0.0)

    return Node(val, "norm", (a,), (vjp,))


def _reachable(output: Node) -> list[Node]:
    # Iterative DFS; returns nodes sorted by creation id (ascending).
    seen = {}
    stack = [output]
    while stack:
        n = stack.pop()
        if n.tid in seen:
            continue
        seen[n.tid] = n
        stack.extend(n.parents)
    return [seen[t] for t in sorted(seen)]


def grad(output, wrt, allow_unused: bool = False, create_graph: bool = True) -> list[Node]:
    """Gradients of a scalar output with respect to each node in ``wrt``.

    One pass over the graph in creation order collects the nodes on a path
    from some target to the output; the reverse walk visits only those,
    and calls a node's ``vjp[i]`` only when parent ``i`` is one of them
    too. Cotangents that could reach no target are never computed, so the
    gradients are the same bits as if every cotangent had been.

    With ``create_graph=True`` the VJPs run on nodes, so the returned
    gradients are graph nodes that can be differentiated again. That is
    what the trainer's force-loss step does with its forces, and what
    ``test_second_order_force_style_gradient`` and the force-loss workload
    of ``perfbench/`` do while relying on the default without naming it,
    so the default stays. With ``create_graph=False`` the same VJPs run
    on plain arrays: nothing is recorded, each cotangent is dropped once
    it has been passed on, and the gradients come back as parentless
    constants, bitwise equal to the taped ones.

    Targets that the output does not depend on raise
    MissingDependencyError unless ``allow_unused`` is set, in which case
    they get zeros. A plain-array output, which is what a computation
    that never met a node returns, is lifted to a constant that depends
    on no target: an edgeless structure under plain parameters gets zero
    forces this way.
    """
    output = as_node(output)
    if output.value.size != 1:
        raise ValueError("grad requires a scalar output")
    wrt = list(wrt)
    want = {w.tid for w in wrt}
    relevant = set()
    path = []
    for n in _reachable(output):  # ascending creation order: parents first
        if n.tid in want or any(p.tid in relevant for p in n.parents):
            relevant.add(n.tid)
            path.append(n)
    for w in wrt:  # a reachable target is relevant by definition
        if w.tid not in relevant and not allow_unused:
            raise MissingDependencyError(
                f"node {w.tid} ({w.op}) is not part of the evaluated graph"
            )

    seed = np.ones(output.value.shape)
    cot = {output.tid: constant(seed) if create_graph else seed}
    for n in reversed(path):
        if n.vjp is None:
            continue
        # every consumer of n was created after it, so its cotangent is complete
        ct = cot.get(n.tid) if n.tid in want else cot.pop(n.tid, None)
        if ct is None:
            continue
        if create_graph:
            out, args = n, n.parents
        else:
            out, args = n.value, [p.value for p in n.parents]
        for p, vjp in zip(n.parents, n.vjp):
            if p.tid in relevant:
                g = vjp(ct, out, *args)
                have = cot.get(p.tid)
                cot[p.tid] = g if have is None else add(have, g)

    grads = []
    for w in wrt:
        g = cot.get(w.tid)
        grads.append(g if type(g) is Node else constant(np.zeros(w.value.shape) if g is None else g))
    return grads


def release(*roots) -> None:
    """Snap the edges of a finished graph, making it unusable for grad.

    Graphs hold no reference cycles, so refcounting frees a graph as soon
    as its last root goes out of scope and the library itself never calls
    this. It stays because the benchmark in ``perfbench/`` calls it and
    times it under its own name; removing it waits for a change to that
    benchmark. Plain values among ``roots`` are ignored, and releasing a
    graph twice is harmless.
    """
    stack = [r for r in roots if isinstance(r, Node)]
    seen: set[int] = set()
    while stack:
        n = stack.pop()
        if n.tid in seen:
            continue
        seen.add(n.tid)
        stack.extend(n.parents)
        n.parents = ()
        n.vjp = None
