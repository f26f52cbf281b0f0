import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from podclass import convnet
from podclass.convnet import (
    Architecture,
    Params,
    TrainConfig,
    conv3x3_backward,
    conv3x3_forward,
    cross_entropy,
    evaluate_network,
    initialize,
    load_checkpoint,
    loss_and_gradients,
    maxpool_backward,
    maxpool_forward,
    rmsprop_step,
    save_checkpoint,
    softmax,
    train,
)
from podclass.errors import ConfigError, DataFormatError, NumericError
from podclass.metrics import accuracy

from oracles import (
    finite_difference_gradients,
    reference_conv3x3,
    reference_conv3x3_backward,
    reference_maxpool,
    reference_maxpool_backward,
    relative_error,
)

TINY = Architecture(height=8, width=8, channels=(2, 2, 2), hidden=4, classes=3, seed=0)


# -- layers ------------------------------------------------------------------


def test_conv_matches_reference(rng):
    x = rng.normal(size=(2, 5, 6, 3))
    kernel = rng.normal(size=(3, 3, 3, 4))
    bias = rng.normal(size=4)
    ours, _ = conv3x3_forward(x, kernel, bias)
    assert np.abs(ours - reference_conv3x3(x, kernel, bias)).max() <= 1e-12


def test_conv_backward_matches_finite_differences(rng):
    x = rng.normal(size=(2, 4, 4, 2))
    kernel = rng.normal(size=(3, 3, 2, 3))
    bias = rng.normal(size=3)
    target = rng.normal(size=(2, 4, 4, 3))

    def loss():
        out, _ = conv3x3_forward(x, kernel, bias)
        return 0.5 * ((out - target) ** 2).sum()

    out, patches = conv3x3_forward(x, kernel, bias)
    grad_out = out - target
    gx, gk, gb = conv3x3_backward(patches, kernel, grad_out)
    fx, fk, fb = finite_difference_gradients(loss, [x, kernel, bias])
    assert np.abs(gx - fx).max() <= 1e-6
    assert np.abs(gk - fk).max() <= 1e-6
    assert np.abs(gb - fb).max() <= 1e-6


# Odd frame sides exercise the edges that the workloads' even frames never
# reach. The convolution tolerance is float64 rounding over sums of at most
# B*H*W = 144 products of unit-scale normals (about 144 * 2.2e-16 * 12, or
# 4e-13).
LAYER_SHAPES = pytest.mark.parametrize(
    "cin, h, w", [(1, 7, 5), (3, 7, 5), (1, 6, 8), (3, 6, 8)]
)


@LAYER_SHAPES
def test_conv_forward_matches_loop_reference(rng, cin, h, w):
    x = rng.normal(size=(3, h, w, cin))
    kernel = rng.normal(size=(3, 3, cin, 4))
    bias = rng.normal(size=4)
    ours, patches = conv3x3_forward(x, kernel, bias)
    assert np.abs(ours - reference_conv3x3(x, kernel, bias)).max() <= 1e-12
    # the centre tap's columns of the patch matrix are the input itself
    assert patches.shape == (3 * h * w, 9 * cin)
    assert np.array_equal(patches[:, 4 * cin : 5 * cin], x.reshape(-1, cin))


@LAYER_SHAPES
def test_conv_backward_matches_loop_reference(rng, cin, h, w):
    x = rng.normal(size=(3, h, w, cin))
    kernel = rng.normal(size=(3, 3, cin, 4))
    bias = rng.normal(size=4)
    grad_out = rng.normal(size=(3, h, w, 4))
    _, patches = conv3x3_forward(x, kernel, bias)
    ours = conv3x3_backward(patches, kernel, grad_out)
    expected = reference_conv3x3_backward(x, kernel, grad_out)
    for got, want in zip(ours, expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def _tied_input(rng, h, w):
    # three intensity levels: most windows hold a tie somewhere
    return rng.integers(0, 3, size=(3, h, w, 4)).astype(np.float64)


@pytest.mark.parametrize("h, w", [(7, 5), (6, 8)])
def test_maxpool_forward_picks_first_max_under_ties(rng, h, w):
    x = _tied_input(rng, h, w)
    pooled, argmax = maxpool_forward(x)
    assert np.array_equal(pooled, reference_maxpool(x))
    # argmax is the row-major position (0..3) of the window's first maximum
    for n, i, j, c in np.ndindex(*argmax.shape):
        window = list(x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c].reshape(-1))
        assert argmax[n, i, j, c] == window.index(max(window))


@pytest.mark.parametrize("h, w", [(7, 5), (6, 8)])
def test_maxpool_backward_routes_to_first_max_under_ties(rng, h, w):
    x = _tied_input(rng, h, w)
    pooled, argmax = maxpool_forward(x)
    grad_out = rng.normal(size=pooled.shape)
    grad = maxpool_backward(grad_out, argmax, x.shape)
    assert np.array_equal(grad, reference_maxpool_backward(x, grad_out))


def test_maxpool_matches_reference(rng):
    x = rng.normal(size=(3, 6, 8, 2))
    pooled, _ = maxpool_forward(x)
    assert np.abs(pooled - reference_maxpool(x)).max() == 0.0


def test_maxpool_truncates_odd_edges(rng):
    x = rng.normal(size=(1, 5, 7, 2))
    pooled, _ = maxpool_forward(x)
    assert pooled.shape == (1, 2, 3, 2)
    assert np.abs(pooled - reference_maxpool(x)).max() == 0.0


def test_maxpool_gradient_routes_to_first_max():
    # all four window entries equal: the gradient must land on the
    # row-major first position only
    x = np.ones((1, 2, 2, 1))
    pooled, argmax = maxpool_forward(x)
    assert pooled[0, 0, 0, 0] == 1.0
    grad = maxpool_backward(np.full((1, 1, 1, 1), 5.0), argmax, x.shape)
    assert grad[0, 0, 0, 0] == 5.0
    assert grad.sum() == 5.0


def test_maxpool_gradient_single_winner(rng):
    x = rng.normal(size=(2, 4, 4, 3))
    pooled, argmax = maxpool_forward(x)
    grad_out = rng.normal(size=pooled.shape)
    grad = maxpool_backward(grad_out, argmax, x.shape)
    # gradient mass per window equals the incoming gradient
    assert abs(grad.sum() - grad_out.sum()) <= 1e-12
    # nonzero only where the input attains the window maximum
    for b in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(2):
                    window = x[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                    gwin = grad[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                    assert (gwin[window != window.max()] == 0).all()


def test_softmax_rows_normalized(rng):
    logits = rng.normal(size=(5, 7)) * 50
    probs = softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert probs.min() >= 0.0


def test_uniform_logits_give_log_class_count_loss():
    for classes in (2, 3, 5, 11):
        logits = np.zeros((4, classes))
        probs = softmax(logits)
        labels = np.arange(4) % classes
        assert abs(cross_entropy(probs, labels) - np.log(classes)) <= 1e-12


# -- full-network gradients --------------------------------------------------


def test_network_gradients_match_finite_differences(rng):
    params = initialize(TINY)
    images = rng.uniform(0, 1, size=(4, 8, 8))
    labels = rng.integers(0, 3, size=4)
    _, grads, _ = loss_and_gradients(params, images, labels)

    arrays = [a.copy() for a in params]

    def loss():
        value, _, _ = loss_and_gradients(
            Params(*arrays), images, labels
        )
        return value

    worst = 0.0
    probe_rng = np.random.default_rng(7)
    for analytic, array in zip(grads, arrays):
        flat = array.reshape(-1)
        picks = probe_rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for p in picks:
            orig = flat[p]
            flat[p] = orig + 1e-5
            hi = loss()
            flat[p] = orig - 1e-5
            lo = loss()
            flat[p] = orig
            fd = (hi - lo) / 2e-5
            worst = max(worst, relative_error(analytic.reshape(-1)[p], fd))
    assert worst <= 1e-4


def test_skipped_image_gradient_leaves_parameter_gradients_bit_identical(
    rng, monkeypatch
):
    # the first layer's input gradient (with respect to the images) is not
    # computed; forcing it back on must not change a single bit elsewhere
    arch = Architecture(height=16, width=12, channels=(3, 4, 5), hidden=6, classes=3)
    params = initialize(arch)
    images = rng.uniform(0, 1, size=(7, 16, 12))
    labels = rng.integers(0, 3, size=7)
    loss, grads, probs = loss_and_gradients(params, images, labels)

    def every_input_gradient(patches, kernel, grad_out, input_grad=True):
        out = conv3x3_backward(patches, kernel, grad_out)
        assert out[0] is not None
        return out

    monkeypatch.setattr(convnet, "conv3x3_backward", every_input_gradient)
    full_loss, full_grads, full_probs = loss_and_gradients(params, images, labels)
    assert loss == full_loss
    assert np.array_equal(probs, full_probs)
    for got, want in zip(grads, full_grads):
        assert got.tobytes() == want.tobytes()


def _relu_then_pool_reference(params, images, labels):
    """Loss, probabilities, gradients and pre-activations computed the way
    the network did before pooling moved ahead of the ReLU: ReLU on the
    full activation, then pooling, and in the backward pass every patch
    matrix rebuilt from the padded layer input."""

    def patches_of(xp):
        windows = sliding_window_view(xp, (3, 3), axis=(1, 2))
        return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * xp.shape[3])

    x = images[:, :, :, None]
    batch = x.shape[0]
    layers, pre_activations = [], []
    for i in (1, 2, 3):
        kernel, bias = getattr(params, f"kernel{i}"), getattr(params, f"bias{i}")
        b, h, w, cin = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        act = patches_of(xp) @ kernel.reshape(9 * cin, -1)
        act += bias
        act = act.reshape(b, h, w, -1)
        pre_activations.append(act.copy())
        mask = act > 0
        act *= mask
        x, argmax = maxpool_forward(act)
        layers.append((xp, mask, act.shape, argmax))
    flat = x.reshape(batch, -1)
    hidden_pre = flat @ params.hidden_weight + params.hidden_bias
    hidden_mask = hidden_pre > 0
    hidden = hidden_pre * hidden_mask
    probs = softmax(hidden @ params.output_weight + params.output_bias)
    loss = cross_entropy(probs, labels)

    grad_logits = probs.copy()
    grad_logits[np.arange(batch), labels] -= 1.0
    grad_logits /= batch
    grads = {
        "output_weight": hidden.T @ grad_logits,
        "output_bias": grad_logits.sum(axis=0),
    }
    grad_hidden = (grad_logits @ params.output_weight.T) * hidden_mask
    grads["hidden_weight"] = flat.T @ grad_hidden
    grads["hidden_bias"] = grad_hidden.sum(axis=0)
    grad_x = (grad_hidden @ params.hidden_weight.T).reshape(x.shape)
    for i in (3, 2, 1):
        xp, mask, act_shape, argmax = layers[i - 1]
        kernel = getattr(params, f"kernel{i}")
        grad_pre = maxpool_backward(grad_x, argmax, act_shape)
        grad_pre *= mask
        b, h, w, cout = grad_pre.shape
        grad_rows = grad_pre.reshape(-1, cout)
        grads[f"kernel{i}"] = (patches_of(xp).T @ grad_rows).reshape(kernel.shape)
        grads[f"bias{i}"] = np.ones(grad_rows.shape[0]) @ grad_rows
        grad_xp = np.zeros_like(xp)
        for u in range(3):
            for v in range(3):
                grad_xp[:, u : u + h, v : v + w, :] += (
                    grad_rows @ kernel[u, v].T
                ).reshape(b, h, w, -1)
        grad_x = grad_xp[:, 1:-1, 1:-1, :]
    return loss, probs, Params(**grads), pre_activations


def _window_counts(pre):
    """(windows whose four inputs are all <= 0, windows whose positive
    maximum is tied) of 2x2 pooling over one layer's pre-activations."""
    b, h, w, c = pre.shape
    windows = pre[:, : h // 2 * 2, : w // 2 * 2].reshape(b, h // 2, 2, w // 2, 2, c)
    top = windows.max(axis=(2, 4), keepdims=True)
    tied = (windows == top).sum(axis=(2, 4)) > 1
    top = top[:, :, 0, :, 0]
    return int((top <= 0).sum()), int((tied & (top > 0)).sum())


def _integer_params(arch, rng):
    # small integer kernels and biases keep every convolution exact, so
    # tied maxima, exact zeros and all-negative windows are common
    params = initialize(arch)
    arrays = [
        rng.integers(-1, 2, size=a.shape).astype(np.float64)
        if name.startswith(("kernel", "bias"))
        else a
        for name, a in zip(Params._fields, params)
    ]
    return Params(*arrays)


@pytest.mark.parametrize("values", ["integer", "normal"])
@pytest.mark.parametrize("h, w", [(9, 11), (16, 16)])
def test_pool_then_relu_is_bit_identical_to_relu_then_pool(rng, values, h, w):
    arch = Architecture(height=h, width=w, channels=(3, 4, 5), hidden=6, classes=3)
    if values == "integer":
        params = _integer_params(arch, rng)
        images = rng.integers(0, 3, size=(6, h, w)).astype(np.float64)
    else:
        params = initialize(arch)
        images = rng.uniform(0, 1, size=(6, h, w))
    labels = rng.integers(0, 3, size=6)
    loss, grads, probs = loss_and_gradients(params, images, labels)
    want_loss, want_probs, want_grads, pre = _relu_then_pool_reference(
        params, images, labels
    )
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert probs.tobytes() == want_probs.tobytes()
    for name, got, want in zip(Params._fields, grads, want_grads):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    if values == "integer":
        counts = [_window_counts(p) for p in pre]
        assert sum(c[0] for c in counts) > 0  # all-negative windows
        assert sum(c[1] for c in counts) > 0  # tied positive maxima


# Small enough for several blocks of uneven size in every layer of a
# 37-frame batch at 9x11 and at 16x16 with channels (3, 4, 5).
SMALL_BLOCK_BYTES = 20_000


@pytest.mark.parametrize("budget", [1, 1_000, 7_128, 40_000, 1 << 20, 8 << 20])
def test_frame_blocks_split_the_batch_evenly_above_the_budget(monkeypatch, budget):
    monkeypatch.setattr(convnet, "BLOCK_BYTES", budget)
    for h, w, cin in [(9, 11, 1), (16, 16, 3), (64, 64, 8)]:
        frame = 72 * h * w * cin  # one frame's rows of the patch matrix
        for n in range(1, 101):
            blocks = convnet._frame_blocks(n, h, w, cin)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            sizes = [b.stop - b.start for b in blocks]
            assert max(sizes) - min(sizes) <= 1
            if len(blocks) > 1:  # no block under the budget
                assert min(sizes) * frame >= budget
            # one block more would put a block under the budget
            assert n // (len(blocks) + 1) * frame < budget
            if n * frame < 2 * budget:
                assert blocks == [slice(0, n)]


def _network_outputs(params, images, labels):
    loss, grads, probs = loss_and_gradients(params, images, labels)
    val_loss, val_acc = convnet.evaluate_network(params, images, labels)
    return [
        np.float64(loss).tobytes(),
        probs.tobytes(),
        *(g.tobytes() for g in grads),
        convnet.forward(params, images).tobytes(),
        np.float64(val_loss).tobytes(),
        np.float64(val_acc).tobytes(),
        convnet.predict(params, images).tobytes(),
    ]


@pytest.mark.parametrize("values", ["integer", "normal"])
@pytest.mark.parametrize("h, w", [(9, 11), (16, 16)])
def test_frame_blocks_leave_every_output_bit_identical(monkeypatch, rng, values, h, w):
    arch = Architecture(height=h, width=w, channels=(3, 4, 5), hidden=6, classes=3)
    if values == "integer":
        params = _integer_params(arch, rng)  # ties, signed zeros, dead windows
        images = rng.integers(0, 3, size=(37, h, w)).astype(np.float64)
    else:
        params = initialize(arch)
        images = rng.uniform(0, 1, size=(37, h, w))
    labels = rng.integers(0, 3, size=37)
    monkeypatch.setattr(convnet, "BLOCK_BYTES", 1 << 62)  # the batch is one block
    whole = _network_outputs(params, images, labels)
    monkeypatch.setattr(convnet, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    for hi, wi, cin in [(h, w, 1), (h // 2, w // 2, 3), (h // 4, w // 4, 4)]:
        sizes = {b.stop - b.start for b in convnet._frame_blocks(37, hi, wi, cin)}
        assert len(sizes) == 2  # several blocks, split unevenly
    blocked = _network_outputs(params, images, labels)
    names = ["loss", "probs", *Params._fields, "logits", "val_loss",
             "val_accuracy", "predict"]
    for name, got, want in zip(names, blocked, whole):
        assert got == want, name


@pytest.mark.parametrize("frames", [3, 7])
def test_frame_blocks_at_the_real_budget_keep_wide_layers_bit_identical(
    monkeypatch, rng, frames
):
    # conv2 has long patch rows (9 x 64 columns) and two output channels,
    # so one 56x56 frame's product is under 10^6 multiply-adds, where
    # OpenBLAS sums in another order than for a whole batch of such frames
    arch = Architecture(height=56, width=56, channels=(64, 2, 2), hidden=4, classes=3)
    params = initialize(arch)
    images = rng.uniform(0, 1, size=(frames, 56, 56))
    labels = rng.integers(0, 3, size=frames)
    blocked = _network_outputs(params, images, labels)
    monkeypatch.setattr(convnet, "BLOCK_BYTES", 1 << 62)
    assert blocked == _network_outputs(params, images, labels)


def test_inference_forward_matches_training_forward(rng):
    arch = Architecture(height=9, width=11, channels=(3, 4, 5), hidden=6, classes=3)
    params = initialize(arch)
    images = rng.uniform(0, 1, size=(5, 9, 11))
    cache: dict = {}
    trained = convnet.forward(params, images, cache)
    assert convnet.forward(params, images).tobytes() == trained.tobytes()
    assert {"conv1", "conv2", "conv3", "flat", "hidden"} <= set(cache)
    # the last epoch's validation accuracy is the one predict gives with the
    # final parameters, which is what an experiment report row carries
    labels = rng.integers(0, 3, size=5)
    cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=1e-2)
    result = train(arch, images, labels, cfg, validation=(images, labels))
    predicted = convnet.predict(result.params, images)
    assert result.history[-1]["validation_accuracy"] == accuracy(labels, predicted)


def test_conv_backward_can_skip_the_input_gradient(rng):
    x = rng.normal(size=(2, 6, 5, 3))
    kernel = rng.normal(size=(3, 3, 3, 4))
    _, patches = conv3x3_forward(x, kernel, rng.normal(size=4))
    grad_out = rng.normal(size=(2, 6, 5, 4))
    _, grad_kernel, grad_bias = conv3x3_backward(patches, kernel, grad_out)
    skipped = conv3x3_backward(patches, kernel, grad_out, input_grad=False)
    assert skipped[0] is None
    assert np.array_equal(skipped[1], grad_kernel)
    assert np.array_equal(skipped[2], grad_bias)


def test_relu_subgradient_zero_at_zero():
    # a parameter sitting exactly at zero pre-activation must get no
    # gradient through the ReLU
    params = initialize(TINY)
    zeroed = [np.zeros_like(a) for a in params]
    # zero weights give zero pre-activations everywhere
    frozen = Params(*zeroed)
    images = np.full((2, 8, 8), 0.5)
    labels = np.array([0, 1])
    _, grads, _ = loss_and_gradients(frozen, images, labels)
    # with all activations dead, only the output bias can move
    for name, grad in zip(Params._fields, grads):
        if name == "output_bias":
            assert np.abs(grad).max() > 0
        else:
            assert np.abs(grad).max() == 0.0, name


# -- initialization ----------------------------------------------------------


def test_initialize_is_seeded():
    a = initialize(TINY)
    b = initialize(TINY)
    c = initialize(Architecture(**{**TINY.__dict__, "seed": 1}))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(
        not np.array_equal(x, z) for x, z in zip(a, c)
    )


def test_initialize_he_variance():
    arch = Architecture(
        height=32, width=32, channels=(64, 64, 64), hidden=256, classes=5, seed=3
    )
    params = initialize(arch)
    fan_in = 3 * 3 * 64
    observed = params.kernel2.var()
    assert abs(observed - 2.0 / fan_in) <= 0.3 * (2.0 / fan_in)
    assert np.abs(params.bias1).max() == 0.0
    assert np.abs(params.hidden_bias).max() == 0.0


def test_architecture_validation():
    with pytest.raises(ConfigError):
        Architecture(height=4, width=8)
    with pytest.raises(ConfigError):
        Architecture(height=8, width=8, classes=1)


@pytest.mark.parametrize("refused, taken", [(-1, 0), (2**64, 2**64 - 1)])
def test_network_seeds_outside_u64_are_refused(tmp_path, refused, taken):
    # they used to be accepted, and a checkpoint then failed to store one
    # with struct.error after the whole network had trained
    message = rf"seed {refused} is outside \[0, 2\*\*64\)"
    with pytest.raises(ConfigError, match=message):
        Architecture(8, 8, seed=refused)
    arch = Architecture(**{**TINY.__dict__, "seed": taken})
    save_checkpoint(arch, initialize(arch), tmp_path / "model.bin")
    assert load_checkpoint(tmp_path / "model.bin")[0] == arch


# -- optimizer ---------------------------------------------------------------


def test_rmsprop_hand_value():
    p0 = Params(np.array([0.0]), *(np.zeros(1) for _ in range(9)))
    g = Params(np.array([1.0]), *(np.zeros(1) for _ in range(9)))
    squares = Params(*map(np.zeros_like, p0))
    p1, _ = rmsprop_step(p0, g, squares, learning_rate=1e-3)
    # first step with unit gradient: s = 0.1, theta = -lr / (sqrt(0.1) + eps)
    expected = -1e-3 / (0.316228 + 1e-7)
    assert abs(p1.kernel1[0] - expected) <= 1e-8


def test_rmsprop_accumulates_square(rng):
    shape = (3, 2)
    p = Params(rng.normal(size=shape), *[np.zeros(1)] * 9)
    g1 = Params(rng.normal(size=shape), *[np.zeros(1)] * 9)
    g2 = Params(rng.normal(size=shape), *[np.zeros(1)] * 9)
    squares = Params(*map(np.zeros_like, p))
    p, squares = rmsprop_step(p, g1, squares, 1e-2)
    p, squares = rmsprop_step(p, g2, squares, 1e-2)
    expected = 0.9 * (0.1 * g1.kernel1**2) + 0.1 * g2.kernel1**2
    assert np.abs(squares.kernel1 - expected).max() <= 1e-15


def test_rmsprop_does_not_mutate_inputs(rng):
    p = Params(rng.normal(size=(2, 2)), *[np.zeros(1)] * 9)
    g = Params(rng.normal(size=(2, 2)), *[np.zeros(1)] * 9)
    squares = Params(*map(np.zeros_like, p))
    p_copy = [a.copy() for a in p]
    s_copy = [a.copy() for a in squares]
    rmsprop_step(p, g, squares, 1e-3)
    assert all(np.array_equal(a, b) for a, b in zip(p, p_copy))
    assert all(np.array_equal(a, b) for a, b in zip(squares, s_copy))


# -- training ----------------------------------------------------------------


def toy_problem(n=40, side=8, seed=0):
    rng = np.random.default_rng(seed)
    images = np.zeros((n, side, side))
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        c = i % 2
        labels[i] = c
        img = rng.uniform(0, 0.2, size=(side, side))
        if c == 0:
            img[: side // 2] += 0.7
        else:
            img[side // 2 :] += 0.7
        images[i] = np.clip(img, 0, 1)
    return images, labels


def test_training_is_deterministic():
    images, labels = toy_problem()
    arch = Architecture(8, 8, channels=(2, 2, 2), hidden=4, classes=2, seed=5)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3)
    a = train(arch, images, labels, cfg)
    b = train(arch, images, labels, cfg)
    assert a.history == b.history
    for x, y in zip(a.params, b.params):
        assert np.array_equal(x, y)


def test_training_handles_short_final_batch():
    images, labels = toy_problem(n=37)
    arch = Architecture(8, 8, channels=(2, 2, 2), hidden=4, classes=2, seed=0)
    cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3)
    result = train(arch, images, labels, cfg)
    # 37 = 16 + 16 + 5; the accuracy denominator must cover all 37
    assert result.history[0]["train_accuracy"] <= 1.0
    assert len(result.history) == 1


def test_training_reports_validation_metrics():
    images, labels = toy_problem()
    arch = Architecture(8, 8, channels=(2, 2, 2), hidden=4, classes=2, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3)
    result = train(arch, images, labels, cfg, validation=(images, labels))
    for row in result.history:
        assert "validation_loss" in row and "validation_accuracy" in row


def test_training_overfits_toy():
    images, labels = toy_problem(n=50)
    arch = Architecture(8, 8, channels=(4, 8, 8), hidden=16, classes=2, seed=1)
    cfg = TrainConfig(epochs=30, batch_size=16, learning_rate=1e-3)
    result = train(arch, images, labels, cfg)
    assert max(row["train_accuracy"] for row in result.history) == 1.0


def test_train_rejects_label_overflow():
    images, labels = toy_problem()
    arch = Architecture(8, 8, channels=(2, 2, 2), hidden=4, classes=2, seed=0)
    with pytest.raises(ConfigError):
        train(arch, images, labels + 5, TrainConfig(epochs=1))


@pytest.mark.parametrize("rate", [0.0, -1e-3, float("inf"), float("nan")])
def test_train_config_rejects_a_bad_learning_rate(rate):
    with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=rate)


def test_inference_refuses_non_finite_logits(rng):
    # what a diverged final update leaves: the loss it was computed from
    # was finite, so only scoring sees the damage
    params = initialize(TINY)
    blown = params._replace(output_bias=np.array([np.inf, 0.0, 0.0]))
    images = rng.uniform(0, 1, size=(3, 8, 8))
    with pytest.raises(NumericError, match="non-finite logits"):
        convnet.predict(blown, images)
    with pytest.raises(NumericError, match="non-finite logits"):
        convnet.evaluate_network(blown, images, np.array([0, 1, 2]))


def test_forward_rejects_bad_shapes():
    params = initialize(TINY)
    with pytest.raises(DataFormatError):
        convnet.forward(params, np.zeros((2, 8, 8, 3)))
    with pytest.raises(DataFormatError):  # (N, H, W) only
        convnet.forward(params, np.zeros((2, 8, 8, 1)))


# -- BLAS threads ------------------------------------------------------------

# The two networks the benchmark trains, as (side, channels, hidden), each
# on one 128-frame batch: headline-train's narrow net and cli-wide's default.
BENCHMARK_NETS = {
    "headline-train": (64, (8, 16, 32), 64),
    "cli-wide": (16, (32, 64, 64), 128),
}

# Prints the sha256 of the loss, probabilities, gradients and inference
# logits of one batch. OpenBLAS reads its thread count only when it loads,
# so each count needs its own process.
DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
from podclass.convnet import Architecture, forward, initialize, loss_and_gradients
side, c1, c2, c3, hidden = map(int, sys.argv[1:])
params = initialize(Architecture(side, side, (c1, c2, c3), hidden, 5, seed=3))
rng = np.random.default_rng(4)
images = rng.uniform(0.0, 1.0, size=(128, side, side))
labels = rng.integers(0, 5, size=128)
loss, grads, probs = loss_and_gradients(params, images, labels)
digest = hashlib.sha256(np.float64(loss).tobytes() + probs.tobytes())
for array in (*grads, forward(params, images)):
    digest.update(np.ascontiguousarray(array).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("net", sorted(BENCHMARK_NETS))
def test_network_bytes_do_not_depend_on_blas_threads(net):
    side, channels, hidden = BENCHMARK_NETS[net]
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-c", DIGEST_SCRIPT, str(side), *map(str, channels)]
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests[threads] = subprocess.run(
            argv + [str(hidden)], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        ).stdout
    assert digests["1"] == digests["2"]


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = initialize(TINY)
    path = tmp_path / "model.bin"
    save_checkpoint(TINY, params, path)
    first = path.read_bytes()
    arch, again = load_checkpoint(path)
    assert arch == TINY
    for a, b in zip(params, again):
        assert np.array_equal(a, b)
    save_checkpoint(arch, again, path)
    assert path.read_bytes() == first


def test_checkpoint_rejects_corruption(tmp_path):
    params = initialize(TINY)
    path = tmp_path / "model.bin"
    save_checkpoint(TINY, params, path)
    data = bytearray(path.read_bytes())
    path.write_bytes(bytes(data[:-9]))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("image_count", [10, 2])
def test_images_and_labels_of_different_lengths_are_refused(image_count):
    # evaluate_network scored images[:3] with 10 images and raised IndexError
    # with 2; train left the 7 unlabeled images out without a word
    images, labels = toy_problem(n=10)
    images, labels = images[:image_count], labels[:3]
    arch = Architecture(8, 8, channels=(2, 2, 2), hidden=4, classes=2, seed=0)
    message = rf"^{image_count} images but 3 labels$"
    with pytest.raises(ConfigError, match=message):
        evaluate_network(initialize(arch), images, labels)
    with pytest.raises(ConfigError, match=message):
        train(arch, images, labels, TrainConfig(epochs=1))
