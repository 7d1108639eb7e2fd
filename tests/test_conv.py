import numpy as np
import pytest

from rlsol.checks import _direct_conv
from rlsol.conv import (
    ConvLayer,
    ConvSessionConfig,
    ConvSessionEvent,
    FeatureMap,
    WeightedSample,
    conv_forward,
    conv_gradient,
    conv_loss,
    conv_update_stage,
    conv_virtual_input,
    im2col,
    init_conv_state,
    output_shape,
    run_conv_session,
)
from rlsol.errors import ConfigError, DimensionError, DivergenceError, InputError, ProtocolError
from rlsol.optimizers import GdConfig, precond_update_stage
from rlsol.rls import RlsConfig, SampleBlock, init_state


def _random_sample(rng, layer, c, h, w, gamma=None):
    fm = FeatureMap(rng.standard_normal((c, h, w)))
    shape = output_shape(fm, layer)
    target = rng.standard_normal(shape)
    if gamma is None:
        gamma = rng.uniform(0, 1, shape)
    return WeightedSample(fm, target, gamma)


class TestIm2col:
    def test_unit_kernel(self):
        fm = FeatureMap(np.arange(4.0).reshape(1, 2, 2))
        layer = ConvLayer(np.ones((1, 1, 1)))
        cols = im2col(fm, layer)
        assert cols.shape == (1, 4)
        assert np.array_equal(cols[0], [0.0, 1.0, 2.0, 3.0])

    def test_explicit_patch_enumeration(self):
        fm = FeatureMap(np.arange(9.0).reshape(1, 3, 3))
        layer = ConvLayer(np.ones((1, 2, 2)))
        cols = im2col(fm, layer)
        assert cols.shape == (4, 4)
        # output position (i, j) -> column i*2+j; rows in (row, col) order
        for i in range(2):
            for j in range(2):
                patch = fm.data[0, i : i + 2, j : j + 2].reshape(-1)
                assert np.array_equal(cols[:, i * 2 + j], patch)

    def test_zero_input(self):
        fm = FeatureMap(np.zeros((2, 4, 4)))
        layer = ConvLayer(np.ones((2, 3, 3)))
        assert np.all(im2col(fm, layer) == 0)

    def test_kernel_too_large(self):
        fm = FeatureMap(np.zeros((1, 2, 2)))
        with pytest.raises(ConfigError):
            im2col(fm, ConvLayer(np.ones((1, 5, 5))))


class TestConvForward:
    def test_identity_unit_kernel(self):
        fm = FeatureMap(np.arange(6.0).reshape(1, 2, 3))
        layer = ConvLayer(np.ones((1, 1, 1)))
        assert np.array_equal(conv_forward(fm, layer), fm.data[0])

    def test_zero_kernel(self):
        rng = np.random.default_rng(0)
        fm = FeatureMap(rng.standard_normal((3, 5, 5)))
        layer = ConvLayer(np.zeros((3, 3, 3)))
        assert np.all(conv_forward(fm, layer) == 0)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = int(rng.integers(1, 5))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 3))
            h = int(rng.integers(kh, kh + 5))
            w = int(rng.integers(kw, kw + 5))
            fm = FeatureMap(rng.standard_normal((c, h, w)))
            layer = ConvLayer(rng.standard_normal((c, kh, kw)), stride, padding)
            assert np.max(np.abs(conv_forward(fm, layer) - _direct_conv(fm, layer))) <= 1e-10


def _lowered_loss(samples, layer, lambda_d=0.0):
    """Lowered reference: conv_loss over im2col patch matrices."""
    w_vec = layer.kernel.reshape(-1)
    total = 0.0
    for sample in samples:
        resid = sample.target.reshape(-1) - w_vec @ im2col(sample.features, layer)
        total += float(sample.gamma.reshape(-1) @ resid**2)
    return total + 0.5 * lambda_d * float(np.sum(layer.kernel**2))


def _lowered_gradient(samples, layer, lambda_d=0.0):
    """Lowered reference: conv_gradient over im2col patch matrices."""
    w_vec = layer.kernel.reshape(-1)
    grad = np.zeros_like(w_vec)
    for sample in samples:
        cols = im2col(sample.features, layer)
        resid = w_vec @ cols - sample.target.reshape(-1)
        grad += cols @ (2.0 * sample.gamma.reshape(-1) * resid)
    return (grad + lambda_d * w_vec).reshape(layer.kernel.shape)


def _lowered_virtual_input(samples, layer):
    """Lowered reference: conv_virtual_input over im2col patch matrices."""
    total = 0.0
    n_cols = 0
    for sample in samples:
        cols = im2col(sample.features, layer)
        n_cols += cols.shape[1]
        total = total + cols @ np.sqrt(sample.gamma.reshape(-1))
    return total / np.sqrt(n_cols)


def _close_in_norm(got, want, rtol=1e-12):
    return np.linalg.norm(np.subtract(got, want)) <= rtol * np.linalg.norm(want)


class TestTapByTap:
    @pytest.mark.parametrize("seed", range(48))
    def test_matches_lowered_reference(self, seed):
        # c, kh, kw in 1-4, stride 1-3, padding 0-2, drawn as numpy integers;
        # every fourth case sizes each map so the kernel covers the whole
        # padded input (one output position), the others mix output sizes
        rng = np.random.default_rng([26, seed])
        c, kh, kw = rng.integers(1, 5, size=3)
        stride = rng.integers(1, 4)
        padding = rng.integers(0, 3)
        tight = seed % 4 == 0
        if tight:
            padding = min(padding, (min(kh, kw) - 1) // 2)
        layer = ConvLayer(rng.standard_normal((c, kh, kw)), stride, padding)
        samples = []
        for _ in range(rng.integers(1, 5)):
            if tight:
                h, w = kh - 2 * padding, kw - 2 * padding
            else:
                h = max(1, kh - 2 * padding) + rng.integers(0, 7)
                w = max(1, kw - 2 * padding) + rng.integers(0, 7)
            fm = FeatureMap(rng.standard_normal((c, h, w)))
            shape = output_shape(fm, layer)
            # zero, uniform and non-uniform position weights
            gamma = [np.zeros(shape), np.ones(shape), rng.uniform(0, 2, shape)][
                rng.integers(0, 3)
            ]
            samples.append(WeightedSample(fm, rng.standard_normal(shape), gamma))
        if seed % 2:
            # per-sample weights, folded into gamma
            weights = rng.uniform(0, 3, len(samples))
            samples = [
                WeightedSample(s.features, s.target, wt * s.gamma)
                for s, wt in zip(samples, weights)
            ]
        if tight:
            assert all(s.target.shape == (1, 1) for s in samples)
        lam = float(rng.uniform(0, 1))
        for sample in samples:
            lowered = layer.kernel.reshape(-1) @ im2col(sample.features, layer)
            assert _close_in_norm(conv_forward(sample.features, layer).reshape(-1), lowered)
        assert _close_in_norm(conv_loss(samples, layer, lam), _lowered_loss(samples, layer, lam))
        assert _close_in_norm(
            conv_gradient(samples, layer, lam), _lowered_gradient(samples, layer, lam)
        )
        assert _close_in_norm(
            conv_virtual_input(samples, layer), _lowered_virtual_input(samples, layer)
        )


@pytest.mark.parametrize(
    "option, value", [("stride", 1.5), ("padding", 0.5), ("stride", "2"), ("padding", None)]
)
def test_non_integral_stride_or_padding_rejected(option, value):
    with pytest.raises(ConfigError, match=option):
        ConvLayer(np.ones((1, 2, 2)), **{option: value})


# a float period fires at fractional phases ((t - 1) % 2.5 == 0 at t = 1, 6,
# 11, ...) and a float capacity fails mid-run inside deque()
@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("name", ["update_period", "sample_capacity"])
def test_session_counts_must_be_integers(name, value):
    with pytest.raises(ConfigError, match=name):
        ConvSessionConfig(GdConfig(0.01, iterations=1), **{name: value})


class TestKernelLayout:
    def test_row_order_matches_im2col(self):
        # a kernel that selects one (channel, row, col) position picks the
        # matching im2col row
        rng = np.random.default_rng(3)
        fm = FeatureMap(rng.standard_normal((2, 4, 4)))
        kernel = np.zeros((2, 2, 2))
        kernel[1, 0, 1] = 1.0
        layer = ConvLayer(kernel)
        idx = np.argmax(kernel.reshape(-1))
        assert np.allclose(conv_forward(fm, layer).reshape(-1), im2col(fm, layer)[idx])


class TestConvLoss:
    def test_fully_masked(self):
        rng = np.random.default_rng(4)
        layer = ConvLayer(rng.standard_normal((1, 2, 2)))
        sample = _random_sample(rng, layer, 1, 4, 4, gamma=np.zeros((3, 3)))
        assert conv_loss([sample], layer) == 0.0

    def test_perfect_fit(self):
        rng = np.random.default_rng(5)
        layer = ConvLayer(rng.standard_normal((2, 2, 2)))
        fm = FeatureMap(rng.standard_normal((2, 4, 4)))
        target = conv_forward(fm, layer)
        samples = [WeightedSample(fm, target, np.ones_like(target))]
        assert conv_loss(samples, layer) <= 1e-20

    def test_matches_spatial_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            layer = ConvLayer(rng.standard_normal((2, 3, 3)), padding=1)
            samples = [_random_sample(rng, layer, 2, 5, 5) for _ in range(3)]
            lam = 0.3
            ref = 0.5 * lam * np.sum(layer.kernel**2)
            for sample in samples:
                resid = sample.target - _direct_conv(sample.features, layer)
                ref += np.sum(sample.gamma * resid**2)
            assert conv_loss(samples, layer, lam) == pytest.approx(ref, abs=1e-10)

    def test_per_sample_weights_scale_gamma(self):
        # a sample weight is a gamma scale: gamma x 3 gives loss x 3
        rng = np.random.default_rng(7)
        layer = ConvLayer(rng.standard_normal((1, 2, 2)))
        sample = _random_sample(rng, layer, 1, 4, 4)
        weighted = WeightedSample(sample.features, sample.target, 3.0 * sample.gamma)
        assert conv_loss([weighted], layer) == pytest.approx(3 * conv_loss([sample], layer))


class TestConvGradient:
    def test_zero_residual(self):
        rng = np.random.default_rng(8)
        layer = ConvLayer(rng.standard_normal((2, 2, 2)))
        fm = FeatureMap(rng.standard_normal((2, 4, 4)))
        target = conv_forward(fm, layer)
        samples = [WeightedSample(fm, target, np.ones_like(target))]
        assert np.max(np.abs(conv_gradient(samples, layer))) <= 1e-12

    def test_decay_only(self):
        rng = np.random.default_rng(9)
        layer = ConvLayer(rng.standard_normal((1, 2, 2)))
        sample = _random_sample(rng, layer, 1, 3, 3, gamma=np.zeros((2, 2)))
        assert np.allclose(conv_gradient([sample], layer, 0.7), 0.7 * layer.kernel)

    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            layer = ConvLayer(rng.standard_normal((4, 3, 3)), padding=1)
            samples = [_random_sample(rng, layer, 4, 5, 5) for _ in range(2)]
            lam = 0.2
            grad = conv_gradient(samples, layer, lam)
            step = 1e-6
            fd = np.zeros_like(grad)
            for idx in np.ndindex(layer.kernel.shape):
                saved = layer.kernel[idx]
                layer.kernel[idx] = saved + step
                up = conv_loss(samples, layer, lam)
                layer.kernel[idx] = saved - step
                down = conv_loss(samples, layer, lam)
                layer.kernel[idx] = saved
                fd[idx] = (up - down) / (2 * step)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * (1 + np.max(np.abs(fd)))


class TestVirtualInput:
    def test_singleton_unit_gamma(self):
        rng = np.random.default_rng(11)
        layer = ConvLayer(rng.standard_normal((2, 2, 2)))
        fm = FeatureMap(rng.standard_normal((2, 2, 2)))
        target = np.ones((1, 1))
        samples = [WeightedSample(fm, target, np.ones((1, 1)))]
        x_bar = conv_virtual_input(samples, layer)
        assert np.allclose(x_bar, im2col(fm, layer)[:, 0])

    def test_fully_masked_zero(self):
        rng = np.random.default_rng(12)
        layer = ConvLayer(rng.standard_normal((1, 2, 2)))
        sample = _random_sample(rng, layer, 1, 4, 4, gamma=np.zeros((3, 3)))
        assert np.all(conv_virtual_input([sample], layer) == 0)

    def test_gamma_doubling_scales_sqrt2(self):
        rng = np.random.default_rng(13)
        layer = ConvLayer(rng.standard_normal((2, 2, 2)))
        samples = [_random_sample(rng, layer, 2, 4, 4) for _ in range(2)]
        doubled = [
            WeightedSample(s.features, s.target, 2.0 * s.gamma) for s in samples
        ]
        a = conv_virtual_input(samples, layer)
        b = conv_virtual_input(doubled, layer)
        assert np.allclose(b, np.sqrt(2) * a, atol=1e-12)

    def test_weighted_residual_bound(self):
        # scaled-mean residual never exceeds the column-wise residual sum
        rng = np.random.default_rng(14)
        for _ in range(50):
            layer = ConvLayer(rng.standard_normal((2, 2, 2)))
            samples = [_random_sample(rng, layer, 2, 4, 4) for _ in range(3)]
            w_vec = layer.kernel.reshape(-1)
            x_bar = conv_virtual_input(samples, layer)
            n_cols = len(samples) * 9
            y_bar = 0.0
            for sample in samples:
                y_bar += np.sqrt(sample.gamma.reshape(-1)) @ sample.target.reshape(-1)
            y_bar /= np.sqrt(n_cols)
            lhs = (y_bar - w_vec @ x_bar) ** 2
            rhs = conv_loss(samples, layer)
            assert lhs <= rhs + 1e-12

    def test_mixed_sizes_order_invariant(self):
        # 2x2 and 5x5 outputs: the normalization counts all 29 columns
        rng = np.random.default_rng(18)
        layer = ConvLayer(rng.standard_normal((1, 2, 2)))
        small = _random_sample(rng, layer, 1, 3, 3, gamma=np.ones((2, 2)))
        large = _random_sample(rng, layer, 1, 6, 6, gamma=np.ones((5, 5)))
        a = conv_virtual_input([small, large], layer)
        b = conv_virtual_input([large, small], layer)
        assert np.allclose(a, b, rtol=1e-14, atol=0)
        cols = np.hstack([im2col(s.features, layer) for s in (small, large)])
        assert np.allclose(a, cols.sum(axis=1) / np.sqrt(29), rtol=1e-14, atol=0)


class TestUpdateStage:
    def test_scalar_reduction(self):
        # 1x1 kernel on 1x1 single-channel maps: the conv stage is the
        # generic preconditioned stage with the gradient's factor 2 folded
        # into the learning rate
        rng = np.random.default_rng(15)
        eta = 0.1
        layer = ConvLayer(rng.standard_normal((1, 1, 1)))
        w = layer.kernel.reshape(1, 1).copy()
        conv_state = init_conv_state(layer, delta=0.5, beta=0.9)
        plain_state = init_state(RlsConfig(1, 1, beta=0.9, delta=0.5))
        for _ in range(5):
            x = float(rng.standard_normal())
            y = float(rng.standard_normal())
            sample = WeightedSample(
                FeatureMap(np.full((1, 1, 1), x)), np.full((1, 1), y), np.ones((1, 1))
            )
            layer, conv_state = conv_update_stage(
                layer, [sample], conv_state, GdConfig(eta / 2.0, iterations=3)
            )
            block = SampleBlock(x=np.array([[x]]), y=np.array([[y]]))
            w, plain_state = precond_update_stage(
                w, block, plain_state, GdConfig(eta, iterations=3)
            )
            assert np.allclose(layer.kernel.reshape(1, 1), w, atol=1e-12)

    def test_default_delta_preset(self):
        layer = ConvLayer(np.zeros((2, 3, 3)))
        state = init_conv_state(layer)
        assert state.config.delta == 0.1

    def test_zero_gradient_decay_only(self):
        rng = np.random.default_rng(16)
        layer = ConvLayer(rng.standard_normal((2, 2, 2)))
        fm = FeatureMap(rng.standard_normal((2, 4, 4)))
        target = conv_forward(fm, layer)
        samples = [WeightedSample(fm, target, np.ones_like(target))]
        state = init_conv_state(layer, delta=1.0)
        cfg = GdConfig(0.1, iterations=1, weight_decay=0.4)
        new_layer, new_state = conv_update_stage(layer, samples, state, cfg)
        p = new_state.p_mat
        expect = layer.kernel.reshape(-1) @ (np.eye(8) - 0.1 * 0.4 * p)
        assert np.allclose(new_layer.kernel.reshape(-1), expect, atol=1e-12)
        assert new_state.step == 1


class TestSession:
    def _layer_and_state(self, rng, channels=1):
        layer = ConvLayer(rng.standard_normal((channels, 2, 2)))
        return layer, init_conv_state(layer, delta=1.0)

    def _event(self, rng, layer, t, **kw):
        channels = layer.kernel.shape[0]
        sample = _random_sample(rng, layer, channels, 3, 3, gamma=np.ones((2, 2)))
        return ConvSessionEvent(t, sample=sample, **kw)

    def test_twenty_step_schedule(self):
        rng = np.random.default_rng(18)
        layer, state = self._layer_and_state(rng)
        events = [self._event(rng, layer, t) for t in range(1, 101)]
        cfg = ConvSessionConfig(GdConfig(0.01, iterations=1), update_period=20)
        _, audit = run_conv_session(layer, state, events, cfg)
        updates = [t for kind, t in audit if kind == "update"]
        assert updates == [1, 21, 41, 61, 81]

    def test_hard_negative_extra_update(self):
        rng = np.random.default_rng(19)
        layer, state = self._layer_and_state(rng)
        events = [
            self._event(rng, layer, t, hard_negative=(t == 7)) for t in range(1, 11)
        ]
        cfg = ConvSessionConfig(GdConfig(0.01, iterations=1), update_period=20)
        _, audit = run_conv_session(layer, state, events, cfg)
        updates = [t for kind, t in audit if kind == "update"]
        assert updates == [1, 7]
        assert ("hard_negative", 7) in audit

    def test_capacity_eviction(self):
        # capacity 1, a middle capacity, and the event count (no eviction);
        # the hard negative at t = 7 updates from the newest `capacity`
        # samples, oldest first
        rng = np.random.default_rng(20)
        layer, state = self._layer_and_state(rng)
        events = [self._event(rng, layer, t, hard_negative=t == 7) for t in range(1, 8)]
        stage = GdConfig(0.01, iterations=1)
        samples = [ev.sample for ev in events]
        for capacity, evicted in ((1, [1, 2, 3, 4, 5, 6]), (5, [1, 2]), (7, [])):
            cfg = ConvSessionConfig(stage, sample_capacity=capacity)
            final, audit = run_conv_session(layer, state, events, cfg)
            assert [t for kind, t in audit if kind == "evict"] == evicted
            own = state.clone()
            want, want_state = conv_update_stage(layer, samples[:1], own, stage)
            want, _ = conv_update_stage(want, samples[-capacity:], want_state, stage)
            assert np.array_equal(final.kernel, want.kernel)

    def test_caller_state_unchanged(self):
        # 68 channels of a 2x2 kernel: p = 272 takes the in-place update
        for channels in (1, 68):
            rng = np.random.default_rng(29)
            layer, state = self._layer_and_state(rng, channels)
            kernel_before = layer.kernel.copy()
            p_before = state.p_mat.copy()
            events = [self._event(rng, layer, t) for t in range(1, 6)]
            cfg = ConvSessionConfig(GdConfig(0.01, iterations=1), update_period=1)
            _, audit = run_conv_session(layer, state, events, cfg)
            assert [t for kind, t in audit if kind == "update"] == [1, 2, 3, 4, 5]
            assert np.array_equal(state.p_mat, p_before)
            assert state.step == 0
            assert np.array_equal(layer.kernel, kernel_before)

    def test_unflagged_samples_skipped(self):
        rng = np.random.default_rng(21)
        layer, state = self._layer_and_state(rng)
        events = [
            self._event(rng, layer, 1),
            ConvSessionEvent(2),
        ]
        cfg = ConvSessionConfig(GdConfig(0.01, iterations=1))
        _, audit = run_conv_session(layer, state, events, cfg)
        assert [t for kind, t in audit if kind == "insert"] == [1]

    def test_protocol_error(self):
        rng = np.random.default_rng(22)
        layer, state = self._layer_and_state(rng)
        events = [self._event(rng, layer, 3), self._event(rng, layer, 2)]
        cfg = ConvSessionConfig(GdConfig(0.01, iterations=1))
        with pytest.raises(ProtocolError):
            run_conv_session(layer, state, events, cfg)


def test_empty_set_rejected():
    layer = ConvLayer(np.ones((1, 1, 1)))
    with pytest.raises(InputError):
        conv_loss([], layer)


# NaN passes a plain `< 0` test, so the weight decay takes GdConfig's range rule
@pytest.mark.parametrize("lambda_d", [float("nan"), float("inf"), -1.0])
def test_weight_decay_range(lambda_d):
    layer = ConvLayer(np.ones((1, 2, 2)))
    sample = WeightedSample(FeatureMap(np.ones((1, 3, 3))), np.zeros((2, 2)), np.ones((2, 2)))
    for objective in (conv_loss, conv_gradient):
        with pytest.raises(ConfigError, match="weight decay must be non-negative and finite"):
            objective([sample], layer, lambda_d)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_weighted_sample_rejects_bad_gamma(entry):
    gamma = np.ones((2, 2))
    gamma[1, 0] = entry
    with pytest.raises(InputError, match="gamma"):
        WeightedSample(FeatureMap(np.ones((1, 3, 3))), np.zeros((2, 2)), gamma)


def test_weighted_sample_rejects_gamma_shape_mismatch():
    with pytest.raises(DimensionError, match="gamma shape"):
        WeightedSample(FeatureMap(np.ones((1, 3, 3))), np.zeros((2, 2)), np.ones((2, 3)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConvLayer(np.zeros((1, 0, 2))),
        lambda: FeatureMap(np.zeros((1, 3, 0))),
        lambda: WeightedSample(FeatureMap(np.ones((1, 3, 3))), np.zeros((0, 2)), np.ones((0, 2))),
        lambda: WeightedSample(FeatureMap(np.ones((1, 3, 3))), np.zeros((2, 2)), np.ones((2, 0))),
    ],
    ids=["kernel", "map", "target", "gamma"],
)
def test_zero_dimension_rejected(build):
    # a (1, 0, 2) kernel once made conv_forward return a (4, 2) map from a
    # (1, 3, 3) input, larger than the input itself
    with pytest.raises(DimensionError, match="positive dimensions"):
        build()


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_non_finite_kernel_and_target_rejected(entry):
    kernel = np.ones((1, 2, 2))
    kernel[0, 1, 0] = entry
    with pytest.raises(InputError, match="kernel contains non-finite entries"):
        ConvLayer(kernel)
    target = np.zeros((2, 2))
    target[0, 1] = entry
    with pytest.raises(InputError, match="target contains non-finite entries"):
        WeightedSample(FeatureMap(np.ones((1, 3, 3))), target, np.ones((2, 2)))


# at a rate this large the kernel overflows within a few iterations; the
# stage raises DivergenceError naming the iteration and the precision step,
# and no numpy warning comes first (this test runs with warnings as errors)
@pytest.mark.filterwarnings("error")
def test_diverging_stage_names_iteration_and_step():
    rng = np.random.default_rng(0)
    layer = ConvLayer(rng.standard_normal((2, 3, 3)))
    samples = [_random_sample(rng, layer, 2, 6, 6) for _ in range(3)]
    state = init_conv_state(layer)
    with pytest.raises(DivergenceError) as caught:
        conv_update_stage(layer, samples, state, GdConfig(1e3, iterations=200))
    err = caught.value
    assert 0 <= err.iteration < 200 and err.layer is None
    assert err.step == state.step == 1
    assert str(err) == (
        f"conv_update_stage: weights not finite after iteration {err.iteration} "
        "at precision step 1"
    )
