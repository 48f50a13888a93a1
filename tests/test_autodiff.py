"""Reverse-mode engine: per-primitive VJPs against finite differences,
graph bookkeeping, and the double-backward path the trainer relies on."""

from __future__ import annotations

import resource

import numpy as np
import pytest

from sphattn import autodiff as ad
from conftest import central_diff, relative_close


def _gradcheck(build, x, rtol=1e-6, step=1e-5, frac=1.0):
    """Compare reverse-mode gradient of build(leaf) against central differences."""
    x = np.asarray(x, dtype=float)
    lx = ad.leaf(x)
    out = build(lx)
    (g,) = ad.grad(out, [lx])
    fd = central_diff(lambda v: float(build(ad.constant(v)).value), x, step=step)
    assert relative_close(g.value, fd, rtol) >= frac, (g.value, fd)


rng = np.random.default_rng(7)


def test_square_gradient_exact():
    x = rng.normal(size=6)
    lx = ad.leaf(x)
    (g,) = ad.grad(ad.sum_(ad.mul(lx, lx)), [lx])
    assert np.array_equal(g.value, 2.0 * x)


def test_elementwise_primitives_match_fd():
    x = rng.uniform(0.5, 2.0, size=(3, 4))
    _gradcheck(lambda v: ad.sum_(ad.exp(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.log(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.sqrt(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.sin(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.cos(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.tanh(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.sigmoid(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.pow_const(v, 3.0)), x)
    _gradcheck(lambda v: ad.sum_(ad.div(ad.constant(1.0), v)), x)


def test_broadcast_arithmetic_matches_fd():
    x = rng.normal(size=(4, 1, 3))
    other = ad.constant(rng.normal(size=(2, 3)))
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.add(v, other), ad.sub(v, other))), x)


def test_matmul_matches_fd():
    x = rng.normal(size=(3, 4))
    w = ad.constant(rng.normal(size=(4, 2)))
    _gradcheck(lambda v: ad.sum_(ad.matmul(v, w)), x)
    # broadcast batch dimension on the left operand
    wb = ad.constant(rng.normal(size=(5, 4, 2)))
    _gradcheck(lambda v: ad.sum_(ad.matmul(ad.reshape(v, (1, 3, 4)), wb)), x)
    # and on the right operand
    xb = rng.normal(size=(4, 2))
    lhs = ad.constant(rng.normal(size=(5, 3, 4)))
    _gradcheck(lambda v: ad.sum_(ad.matmul(lhs, ad.reshape(v, (1, 4, 2)))), xb)


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        ad.matmul(ad.leaf(np.ones(3)), ad.leaf(np.ones((3, 2))))


def test_reductions_and_shape_ops_match_fd():
    x = rng.normal(size=(3, 4))
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.sum_(v, axis=0, keepdims=True), 3.0)), x)
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.mean(v, axis=1), ad.constant(np.arange(3.0)))), x)
    _gradcheck(lambda v: ad.sum_(ad.transpose(v)), x)
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.reshape(v, (12,)), ad.constant(np.arange(12.0)))), x)
    _gradcheck(lambda v: ad.sum_(ad.concat([v, ad.mul(v, 2.0)], axis=1)), x)
    _gradcheck(lambda v: ad.sum_exact(ad.mul(v, v)), x)


def test_gather_scatter_match_fd():
    x = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    w = ad.constant(rng.normal(size=(4, 3)))
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.take(v, (idx,)), w)), x)
    seg = np.array([0, 0, 1, 2, 2])
    _gradcheck(lambda v: ad.sum_(ad.pow_const(ad.segment_sum(v, seg, 3), 2.0)), x)
    _gradcheck(lambda v: ad.sum_exact(ad.pow_const(ad.segment_sum(ad.sum_(v, axis=1), seg, 3, exact=True), 2.0)), x)
    first4 = np.arange(4)
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.scatter_add((7, 3), (idx + 1,), ad.take(v, (first4,))), 1.5)), x)


def test_scatter_add_basic_keys_match_add_at_bitwise():
    # a basic key takes an in-place add instead of np.add.at; the bits,
    # signed zeros included, are those of np.add.at into zeros
    shape = (4, 5, 6)
    keys = [(Ellipsis, slice(1, 4)), (slice(None), 2), (1,), 3, (Ellipsis, 0),
            (slice(0, 4, 2), Ellipsis, slice(None, None, -1)), ()]
    for key in keys:
        vals = rng.normal(size=np.zeros(shape)[key].shape)
        vals.flat[::3] = 0.0
        vals.flat[1::3] = -0.0
        ref = np.zeros(shape)
        np.add.at(ref, key, vals)
        got = ad.scatter_add(shape, key, vals)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref)), key
    # an integer-array key still accumulates its duplicates
    got = ad.scatter_add((3,), (np.array([1, 1, 2]),), np.array([1.0, 2.0, 4.0]))
    assert np.array_equal(got, [0.0, 3.0, 4.0])


@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 4, 1), (3, 1, 5)), ((4, 1), (2, 1, 5)), ((2, 1, 4), (4, 3)), ((5, 4), (4, 1)), ((1, 3), (3, 1)),
])
def test_outer_product_matmul_vjps_match_matmul_bitwise(a_shape, b_shape):
    # a contraction of length 1 is formed by a broadcasting multiply; a
    # single product has the bits of the matmul it replaces
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    ct = rng.normal(size=np.shape(a @ b))
    swap = lambda x: np.swapaxes(x, -1, -2)
    expect = (ad.sum_to(ct @ swap(b), a_shape), ad.sum_to(swap(a) @ ct, b_shape))
    for create_graph in (False, True):
        la, lb = ad.leaf(a), ad.leaf(b)
        grads = ad.grad(ad.sum_(ad.mul(ad.matmul(la, lb), ct)), [la, lb], create_graph=create_graph)
        for g, e in zip(grads, expect):
            assert np.array_equal(g.value, e)


def test_norm_matches_fd_away_from_zero():
    x = rng.normal(size=(4, 3)) + 0.5
    _gradcheck(lambda v: ad.sum_(ad.norm(v, axis=-1)), x)
    _gradcheck(lambda v: ad.sum_(ad.mul(ad.norm(v, axis=0, keepdims=True), 2.0)), x)


def test_norm_zero_vector_gradient_is_zero():
    x = ad.leaf(np.zeros((2, 3)))
    (g,) = ad.grad(ad.sum_(ad.norm(x, axis=-1)), [x])
    assert np.array_equal(g.value, np.zeros((2, 3)))
    assert np.all(np.isfinite(g.value))


def test_weighted_softmax_constant_values_zero_gradient():
    # convex combination of a constant is constant
    x = rng.normal(size=8)
    w = np.abs(rng.normal(size=8)) + 0.1
    lx = ad.leaf(x)
    e = ad.exp(ad.sub(lx, ad.constant(x.max())))
    num = ad.sum_(ad.mul(ad.mul(e, ad.constant(w)), 3.7))
    den = ad.sum_(ad.mul(e, ad.constant(w)))
    (g,) = ad.grad(ad.div(num, den), [lx])
    assert np.max(np.abs(g.value)) < 1e-12


def test_three_layer_composition_matches_fd():
    x = rng.normal(size=(4, 5))
    w1 = ad.constant(rng.normal(size=(5, 6)))
    w2 = ad.constant(rng.normal(size=(6, 3)))

    def f(v):
        h = ad.tanh(ad.matmul(v, w1))
        h = ad.sigmoid(ad.matmul(h, w2))
        return ad.sum_(ad.mul(h, h))

    _gradcheck(f, x, rtol=1e-6, frac=0.99)


def test_grad_requires_scalar_output():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.grad(ad.mul(x, x), [x])


def test_grad_detached_node_raises():
    x = ad.leaf(np.ones(3))
    y = ad.leaf(np.ones(3))
    out = ad.sum_(ad.mul(x, x))
    with pytest.raises(ad.MissingDependencyError):
        ad.grad(out, [y])
    (gy,) = ad.grad(out, [y], allow_unused=True)
    assert np.array_equal(gy.value, np.zeros(3))


def test_double_precision_end_to_end():
    x = ad.leaf(np.ones(4, dtype=np.float32))
    out = ad.sum_(ad.mul(x, x))
    assert x.value.dtype == np.float64
    assert out.value.dtype == np.float64


def test_second_order_force_style_gradient():
    # L(theta) = sum((dE/dx - f0)^2) with E = sum(sin(theta * x));
    # checks the reverse-over-reverse path used for force-matching losses.
    theta0 = np.array([0.7, -1.3])
    x0 = rng.normal(size=(3, 2))
    f0 = rng.normal(size=(3, 2))

    def loss_value(tv):
        th = ad.leaf(tv)
        x = ad.leaf(x0)
        e = ad.sum_(ad.sin(ad.mul(x, ad.reshape(th, (1, 2)))))
        (gx,) = ad.grad(e, [x])
        r = ad.sub(gx, ad.constant(f0))
        return ad.sum_(ad.mul(r, r)), th

    loss, th = loss_value(theta0)
    (gth,) = ad.grad(loss, [th])
    fd = central_diff(lambda tv: float(loss_value(tv)[0].value), theta0, step=1e-6)
    assert relative_close(gth.value, fd, 1e-5) == 1.0


def test_gradients_are_reproducible():
    x = rng.normal(size=(6, 3))

    def run():
        lx = ad.leaf(x)
        h = ad.sigmoid(ad.matmul(lx, ad.constant(np.eye(3) * 0.5)))
        (g,) = ad.grad(ad.sum_(ad.norm(h, axis=-1)), [lx])
        return g.value

    assert np.array_equal(run(), run())


def test_release_breaks_closure_cycles():
    import weakref

    a = ad.leaf(np.arange(3.0))
    mid = ad.exp(a)  # exp's backward references its own output node
    out = ad.sum_(ad.mul(mid, mid))
    ref = weakref.ref(mid)
    del mid
    assert ref() is not None  # kept alive through out.parents
    ad.release(out)
    assert out.parents == () and out.vjp is None
    del out
    assert ref() is None  # cycle snapped, refcount freed it
    assert np.array_equal(a.value, np.arange(3.0))


def test_release_tolerates_plain_values_and_sharing():
    a = ad.leaf(np.ones(2))
    b = ad.mul(a, 2.0)
    c = ad.add(b, b)
    ad.release(c, 3.5, None)
    assert c.parents == ()
    ad.release(c)  # releasing twice is harmless


def test_first_order_gradient_is_a_parentless_constant():
    x = ad.leaf(rng.normal(size=(4, 3)))
    out = ad.sum_(ad.tanh(ad.norm(ad.mul(x, 1.5), axis=-1)))
    (taped,) = ad.grad(out, [x])
    (plain,) = ad.grad(out, [x], create_graph=False)
    assert plain.parents == () and plain.vjp is None and plain.op == "const"
    assert taped.parents != ()
    assert np.array_equal(plain.value, taped.value)
    # the VJPs run on plain arrays because primitives without node
    # arguments return plain arrays
    assert type(ad.mul(np.ones(2), 2.0)) is np.ndarray
    assert type(ad.exp(np.zeros((2, 2)))) is np.ndarray
    assert type(ad.mean(np.ones((2, 3)), axis=1)) is np.ndarray
    assert not isinstance(ad.mean(np.ones(3)), ad.Node) and ad.mean(np.ones(3)) == 1.0


def test_dropped_graph_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    def build(x):
        h = ad.div(ad.exp(ad.mul(x, 0.3)), ad.sqrt(ad.add(ad.mul(x, x), 1.0)))
        h = ad.mul(ad.tanh(h), ad.sigmoid(ad.mul(h, 2.0)))
        return ad.sum_(ad.norm(h, axis=-1))

    x = ad.leaf(rng.normal(size=(3, 4)))
    gc.disable()
    try:
        out = build(x)
        refs = [weakref.ref(n) for n in ad._reachable(out) if n is not x]
        assert len(refs) > 10
        del out
        assert all(r() is None for r in refs)

        # a taped gradient and the graph it extends are freed the same way
        out = build(x)
        (g,) = ad.grad(out, [x])
        refs = [weakref.ref(n) for n in ad._reachable(g) + ad._reachable(out) if n is not x]
        del out, g
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _unreachable_vjp(ct, out, *parents):
    raise AssertionError("cotangent computed for a parent off every target path")


def _probe(x, w):
    # x * w whose VJP for w must never run
    return ad.Node(x.value * w.value, "probe", (x, w), (lambda ct, out, x, w: ad.mul(ct, w), _unreachable_vjp))


def test_grad_skips_the_vjp_of_a_constant_parent():
    x = ad.leaf(rng.normal(size=(2, 3)))
    c = ad.constant(rng.normal(size=(2, 3)))

    def loss(m):
        return ad.sum_(ad.tanh(ad.mul(m, m)))

    for create_graph in (True, False):
        (g,) = ad.grad(loss(_probe(x, c)), [x], create_graph=create_graph)
        (ref,) = ad.grad(loss(ad.mul(x, c)), [x], create_graph=create_graph)
        assert np.array_equal(g.value, ref.value)


def test_taped_position_gradient_skips_the_parameter_vjp():
    # the trainer's force pass differentiates with respect to positions
    # only; a parameter leaf's cotangent is never needed there
    pos = ad.leaf(rng.normal(size=(3, 3)))
    w = ad.leaf(rng.normal(size=(1, 3)))
    (g,) = ad.grad(ad.sum_(ad.sin(_probe(pos, w))), [pos])
    (ref,) = ad.grad(ad.sum_(ad.sin(ad.mul(pos, w))), [pos])
    assert np.array_equal(g.value, ref.value)
    # the taped gradient still depends on the parameter
    assert any(n is w for n in ad._reachable(g))


def test_concat_sends_each_piece_its_own_slice():
    # pieces of different widths: a late-binding closure over the slice
    # keys would hand every piece the last slice
    pieces = [ad.leaf(rng.normal(size=(2, k))) for k in (1, 3, 2)]
    weights = rng.normal(size=(2, 6))
    out = ad.sum_(ad.mul(ad.concat(pieces, axis=1), ad.constant(weights)))
    for create_graph in (True, False):
        grads = ad.grad(out, pieces, create_graph=create_graph)
        assert [g.shape for g in grads] == [(2, 1), (2, 3), (2, 2)]
        for g, lo, hi in zip(grads, (0, 1, 4), (1, 4, 6)):
            assert np.array_equal(g.value, weights[:, lo:hi])


@pytest.mark.skipif(not ad.HEAP_RETAINED, reason="freed memory is kept only under glibc")
def test_freed_memory_is_reused_without_page_faults():
    # 64 MB is above glibc's largest dynamic mmap threshold (32 MB), so by
    # default this array is unmapped on free and faulted in afresh on every
    # allocation: 16,384 faults in 4 KB pages, and still at least 32 when
    # numpy's huge-page advice lets the kernel use 2 MB pages. Eight
    # rounds would then take at least 256.
    a = np.ones(8 * 2**20)
    del a
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(8):
        a = np.ones(8 * 2**20)
        del a
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 32
