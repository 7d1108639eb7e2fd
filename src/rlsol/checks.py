"""Acceptance criteria 1-6 as functions, shared by the test gate and
``rlsol verify``. Each draws from its own seed and returns whether the
library matches its oracle; ``CHECKS`` lists them in criterion order."""

import itertools

import numpy as np

from .conv import (
    ConvLayer, FeatureMap, WeightedSample, conv_forward, conv_loss, output_shape,
)
from .mlp import (
    CE_HEAD, SE_HEAD, Layer, MlpModel, backward, forward, head_gradient, sample_loss, softmax,
)
from .rls import (
    RlsConfig, SampleBlock, batch_solve, block_virtual_input, gain_vector, init_state, rls_step,
    update_precision,
)


def recursive_batch_equivalence() -> bool:
    """Criterion 1: the recursion tracks the batch solution, relative 1e-8."""
    rng = np.random.default_rng(101)
    grid = list(itertools.product([5, 10, 20], [1, 3], [0.9, 1.0], [1e-3, 1.0]))
    rng.shuffle(grid)
    worst = 0.0
    for p, q, beta, delta in grid[:20]:
        cfg = RlsConfig(int(p), int(q), beta=float(beta), delta=float(delta))
        state = init_state(cfg)
        w = np.zeros((q, p))
        phi = cfg.delta * np.eye(p)
        z = np.zeros((q, p))
        for _ in range(200):
            x = rng.standard_normal(p)
            y = rng.standard_normal(q)
            w, state = rls_step(state, w, x, y)
            # shadow accumulators reproduce the batch normal equations
            phi = cfg.beta * phi + np.outer(x, x)
            z = cfg.beta * z + np.outer(y, x)
            ref = np.linalg.solve(phi, z.T).T
            rel = np.linalg.norm(w - ref) / (1 + np.linalg.norm(ref))
            worst = max(worst, rel)
    # cross-check the shadow against batch_solve on one short stream
    blocks = [
        SampleBlock(x=rng.standard_normal((1, 5)), y=rng.standard_normal((1, 2)))
        for _ in range(50)
    ]
    cfg = RlsConfig(5, 2, beta=0.9, delta=1e-3)
    state = init_state(cfg)
    w = np.zeros((2, 5))
    for block in blocks:
        w, state = rls_step(state, w, block.x[0], block.y[0])
    ref = batch_solve(blocks, cfg)
    worst = max(worst, np.linalg.norm(w - ref) / (1 + np.linalg.norm(ref)))
    return bool(worst <= 1e-8)


def sherman_morrison_consistency() -> bool:
    """Criterion 2: P stays the inverse of the decayed Phi, 1e-8."""
    rng = np.random.default_rng(102)
    cfg = RlsConfig(8, 1, beta=0.99, delta=0.5)
    state = init_state(cfg)
    phi = cfg.delta * np.eye(8)
    eye = np.eye(8)
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(8)
        state = update_precision(state, x)
        phi = cfg.beta * phi + np.outer(x, x)
        worst = max(worst, np.linalg.norm(state.p_mat @ phi - eye))
    return bool(worst <= 1e-8)


def gain_identity() -> bool:
    """Criterion 3: the gain equals x^T P after the update, 1e-10."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 12))
        cfg = RlsConfig(p, 1, beta=float(rng.uniform(0.9, 1.0)), delta=float(rng.uniform(0.1, 2.0)))
        state = init_state(cfg)
        # advance to a random interior state
        for _ in range(3):
            state = update_precision(state, rng.standard_normal(p))
        x = rng.standard_normal(p)
        k = gain_vector(state, x)
        new = update_precision(state, x)
        worst = max(worst, float(np.max(np.abs(k - x @ new.p_mat))))
    return bool(worst <= 1e-10)


def virtual_input_bound() -> bool:
    """Criterion 4: the virtual-input cost bounds the block mean cost."""
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(1000):
        b = int(rng.integers(2, 33))
        p = int(rng.integers(2, 8))
        q = int(rng.integers(1, 4))
        block = SampleBlock(x=rng.standard_normal((b, p)), y=rng.standard_normal((b, q)))
        w = rng.standard_normal((q, p))
        x_bar, y_bar = block_virtual_input(block)
        lhs = float(np.sum((y_bar - w @ x_bar) ** 2))
        rhs = float(np.sum((block.y - block.x @ w.T) ** 2) / b)
        ok = ok and lhs <= rhs + 1e-12
    return bool(ok)


def _random_net(rng, head):
    widths = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)) + 1)]
    layers = []
    for i in range(len(widths) - 1):
        act = "identity"
        if i < len(widths) - 2:
            act = "relu" if rng.integers(0, 2) == 0 else "leaky_relu"
        layers.append(Layer(rng.standard_normal((widths[i + 1], widths[i])), act))
    return MlpModel(layers, head)


def mlp_gradient_checks() -> bool:
    """Criterion 5: backprop matches finite differences; CE head is softmax - y."""
    rng = np.random.default_rng(105)
    ok = True
    for i in range(50):
        head = SE_HEAD if i % 2 == 0 else CE_HEAD
        tol = 1e-5 if head == SE_HEAD else 1e-4
        model = _random_net(rng, head)
        x = rng.standard_normal(model.input_dim)
        if head == CE_HEAD:
            y = np.zeros(model.output_dim)
            y[int(rng.integers(0, model.output_dim))] = 1.0
        else:
            y = rng.standard_normal(model.output_dim)
        _, cache = forward(model, x)
        grads = backward(model, cache, y)
        step = 1e-5
        for l, layer in enumerate(model.layers):
            fd = np.zeros_like(layer.weight)
            for idx in np.ndindex(layer.weight.shape):
                saved = layer.weight[idx]
                layer.weight[idx] = saved + step
                up = sample_loss(model, x, y)
                layer.weight[idx] = saved - step
                down = sample_loss(model, x, y)
                layer.weight[idx] = saved
                fd[idx] = (up - down) / (2 * step)
            ok = ok and np.max(np.abs(grads[l] - fd)) <= tol * (1 + np.max(np.abs(fd)))
    # cross-entropy head gradient identity
    for _ in range(200):
        q = int(rng.integers(2, 8))
        model = MlpModel([Layer(np.eye(q))], head=CE_HEAD)
        z = rng.standard_normal(q)
        y = np.zeros(q)
        y[int(rng.integers(0, q))] = 1.0
        ok = ok and np.max(np.abs(head_gradient(model, z, y) - (softmax(z) - y))) <= 1e-10
    return bool(ok)


def _direct_conv(fm, layer):
    data = fm.data
    if layer.padding:
        data = np.pad(
            data,
            ((0, 0), (layer.padding, layer.padding), (layer.padding, layer.padding)),
        )
    _, kh, kw = layer.kernel.shape
    h_out, w_out = output_shape(fm, layer)
    out = np.zeros((h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            r, c = i * layer.stride, j * layer.stride
            out[i, j] = np.sum(data[:, r : r + kh, c : c + kw] * layer.kernel)
    return out


def conv_lowering() -> bool:
    """Criterion 6: conv_forward and conv_loss match a direct convolution, 1e-10."""
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(200):
        c = int(rng.integers(1, 9))
        kh, kw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - 2 * padding), kh + 4))
        w = int(rng.integers(max(1, kw - 2 * padding), kw + 4))
        if h + 2 * padding < kh or w + 2 * padding < kw:
            continue
        fm = FeatureMap(rng.standard_normal((c, h, w)))
        layer = ConvLayer(rng.standard_normal((c, kh, kw)), stride, padding)
        spatial = _direct_conv(fm, layer)
        ok = ok and np.max(np.abs(conv_forward(fm, layer) - spatial)) <= 1e-10
        shape = spatial.shape
        sample = WeightedSample(fm, rng.standard_normal(shape), rng.uniform(0, 1, shape))
        lam = float(rng.uniform(0, 1))
        spatial_loss = float(
            np.sum(sample.gamma * (sample.target - spatial) ** 2)
            + 0.5 * lam * np.sum(layer.kernel**2)
        )
        ok = ok and abs(conv_loss([sample], layer, lam) - spatial_loss) <= 1e-10
    return bool(ok)


CHECKS = [
    ("recursive/batch equivalence", recursive_batch_equivalence),
    ("sherman-morrison consistency", sherman_morrison_consistency),
    ("gain identity", gain_identity),
    ("virtual-input bound", virtual_input_bound),
    ("mlp gradient checks", mlp_gradient_checks),
    ("conv lowering equivalence", conv_lowering),
]
