"""A small convolutional classifier built directly on numpy.

Architecture: three rounds of 3x3 same-padding convolution, ReLU, and 2x2
max pooling, then one hidden dense layer with ReLU and a softmax output.
Everything runs in float64, NHWC layout, with explicit forward and
backward passes; training is plain minibatch RMSprop. All randomness
(initialization, epoch shuffles) flows from the architecture's seed, which
checkpoints store, so a run is a pure function of its inputs.

Convolutions are patch-matrix GEMMs (Chellapilla, Puri & Simard 2006):
the padded batch is unrolled into a (B*H*W, 9*Cin) matrix of 3x3 patches
and multiplied by the kernel reshaped to (9*Cin, Cout). Training keeps
that matrix for the backward pass, where the kernel gradient is one GEMM
against it; the input gradient is nine 2-D GEMMs, one per kernel tap,
added back at their shifts, and is skipped for the first layer, whose
input is the images. Pooling works on the four window corners as strided
views of the input, and comes before the ReLU: relu(maxpool(x)) equals
maxpool(relu(x)) exactly, and the ReLU then touches a quarter of the
elements. Inference runs the same layer loop without keeping anything for
a backward pass and without locating the pooling maxima.

Each conv layer works through the batch in contiguous blocks of frames
whose patch matrix is cache-sized, ``BLOCK_BYTES`` to twice that, so a
block's intermediates stay in cache instead of streaming whole-batch
arrays through memory (loop blocking, Goto & van de Geijn 2008). Per
block run the steps whose output for a frame depends on that frame
alone: padding and unrolling, the conv GEMM and bias, pooling with its
argmax, the ReLU, the pool backward, and the nine input-gradient GEMMs
with their shifted adds. Steps that sum over frames stay single
whole-batch calls, so every sum keeps its order and every result its
bits: the kernel-gradient GEMM (each training block writes its patches
into the batch-wide matrix it reads), the bias GEMV and the dense layers.
A batch under twice the budget is one block and makes exactly the
unblocked calls. The budget is a floor, not a cap: BLAS may sum a small
GEMM in another order than a large one (OpenBLAS does below about 10^6
multiply-adds when its rows are long), and a cap would force small
blocks whenever a few large frames just exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DataFormatError,
    NumericError,
    read_array,
    read_container,
    read_fields,
    write_array,
    write_container,
    write_fields,
)

CHECKPOINT_MAGIC = b"EHCN"

RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-7

# Frames per forward pass when scoring; training batches are configurable.
INFERENCE_BATCH = 256

# Least size of a block's patch matrix: the per-frame steps of a conv layer
# run over contiguous blocks of frames this large or up to twice it (see
# above). 2-8 MiB blocks measured alike; this keeps blocks' GEMMs large.
BLOCK_BYTES = 8 << 20

def check_widths(channels: Sequence[int], hidden: int) -> None:
    """Refuse layer widths that no network can have."""
    if len(channels) != 3 or min(channels) < 1:
        raise ConfigError("need three positive channel counts")
    if hidden < 1:
        raise ConfigError("need hidden >= 1")


def check_seed(seed: int) -> None:
    """Refuse a network seed that a checkpoint cannot store as a u64."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed} is outside [0, 2**64)")


@dataclass(frozen=True)
class Architecture:
    """Static shape of the network plus the seed of its weights and shuffles."""

    height: int
    width: int
    channels: tuple[int, int, int] = (32, 64, 64)
    hidden: int = 128
    classes: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ConfigError("images must be at least 8x8 to survive three pools")
        check_widths(self.channels, self.hidden)
        if self.classes < 2:
            raise ConfigError("need classes >= 2")
        check_seed(self.seed)

    @property
    def flat_dim(self) -> int:
        """Features after three pools: (H // 8) * (W // 8) * c3."""
        return (self.height // 8) * (self.width // 8) * self.channels[2]


class Params(NamedTuple):
    """The ten network tensors in serialization order. The same tuple holds
    their gradients, RMSprop's running squares and (``param_shapes``) their
    shapes."""

    kernel1: np.ndarray
    bias1: np.ndarray
    kernel2: np.ndarray
    bias2: np.ndarray
    kernel3: np.ndarray
    bias3: np.ndarray
    hidden_weight: np.ndarray
    hidden_bias: np.ndarray
    output_weight: np.ndarray
    output_bias: np.ndarray


def param_shapes(arch: Architecture) -> Params:
    c1, c2, c3 = arch.channels
    return Params(
        (3, 3, 1, c1), (c1,),
        (3, 3, c1, c2), (c2,),
        (3, 3, c2, c3), (c3,),
        (arch.flat_dim, arch.hidden), (arch.hidden,),
        (arch.hidden, arch.classes), (arch.classes,),
    )


def initialize(arch: Architecture) -> Params:
    """He-initialized weights (variance 2 / fan-in), zero biases.

    Weight tensors (two or more dimensions) are drawn in serialization
    order from a generator seeded with ``arch.seed``; biases (one
    dimension) consume no randomness.
    """
    rng = np.random.default_rng(arch.seed)
    return Params(
        *(
            rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[:-1])), size=shape)
            if len(shape) > 1
            else np.zeros(shape)
            for shape in param_shapes(arch)
        )
    )


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def _frame_blocks(frames: int, h: int, w: int, cin: int) -> list[slice]:
    """Contiguous blocks covering ``range(frames)`` in order for the
    per-frame steps of a conv layer on (h, w, cin) frames: as many as keep
    each block's patch matrix (72 bytes per input element: nine taps of
    float64) at ``BLOCK_BYTES`` or more, with sizes that differ by at most
    one. A batch under twice the budget is one block."""
    least = -(-BLOCK_BYTES // (72 * h * w * cin))  # frames per block, at least
    count = max(1, frames // least)
    bounds = [frames * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _patches(xp: np.ndarray) -> np.ndarray:
    """The (B*H*W, 9*Cin) patch matrix of a padded batch, columns in
    (u, v, channel) order to match ``kernel.reshape(9 * Cin, Cout)``."""
    windows = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B, H, W, Cin, 3, 3)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * xp.shape[3])


def conv3x3_forward(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same-padding stride-1 3x3 convolution; returns (output, patch matrix)."""
    b, h, w, cin = x.shape
    cout = kernel.shape[3]
    patches = _patches(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))))
    out = patches @ kernel.reshape(9 * cin, cout)
    wide = out.reshape(b * h, w * cout)  # same additions, W times fewer rows: faster
    wide += np.tile(bias, w)
    return out.reshape(b, h, w, cout), patches


def conv3x3_backward(
    patches: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (input, kernel, bias) of the convolution above, from the
    patch matrix its forward pass returned; the input gradient is None when
    ``input_grad`` is false (the first layer, whose input is the images).

    The kernel and bias gradients sum over the whole batch in one GEMM and
    one GEMV; the input gradient of each frame needs only that frame, so its
    nine per-tap GEMMs and shifted adds run over blocks of frames."""
    b, h, w, cout = grad_out.shape
    cin = kernel.shape[2]
    grad_rows = grad_out.reshape(-1, cout)
    grad_kernel = (patches.T @ grad_rows).reshape(kernel.shape)
    grad_x = None
    if input_grad:
        grad_xp = np.zeros((b, h + 2, w + 2, cin))
        taps = [(u, v, kernel[u, v].T) for u in range(3) for v in range(3)]
        for block in _frame_blocks(b, h, w, cin):
            rows = grad_rows[block.start * h * w : block.stop * h * w]
            block_xp = grad_xp[block]
            for u, v, tap in taps:
                block_xp[:, u : u + h, v : v + w, :] += (rows @ tap).reshape(
                    -1, h, w, cin
                )
        grad_x = grad_xp[:, 1:-1, 1:-1, :]
    # the row sum as a GEMV: numpy's axis-0 sum is several times slower on
    # the few wide columns of grad_rows
    grad_bias = np.ones(grad_rows.shape[0]) @ grad_rows
    return grad_x, grad_kernel, grad_bias


def _corner_views(x: np.ndarray) -> list[np.ndarray]:
    """The corners r0c0, r0c1, r1c0, r1c1 of every 2x2 window as strided
    views of ``x``, odd trailing rows/columns left out."""
    h, w = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    return [x[:, i:h:2, j:w:2, :] for i in (0, 1) for j in (0, 1)]


def maxpool_forward(
    x: np.ndarray, with_argmax: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """2x2 stride-2 max pooling; odd trailing rows/columns are dropped.

    Returns (pooled, argmax) where argmax holds, per window, the index of
    the first maximum in row-major window order (r0c0, r0c1, r1c0, r1c1);
    the backward pass routes the gradient only there. Without
    ``with_argmax`` (inference) argmax is None.
    """
    c0, c1, c2, c3 = _corner_views(x)
    top, bottom = np.maximum(c0, c1), np.maximum(c2, c3)
    pooled = np.maximum(top, bottom)
    if not with_argmax:
        return pooled, None
    # ties go to the top row, then to the left column: the first maximum.
    # argmax = 2 * low + (c3 > c2 if low else c1 > c0), low = not top >= bottom,
    # in place on uint8 views of the comparisons
    argmax = np.greater_equal(top, bottom).view(np.uint8)
    argmax ^= 1
    right = np.greater(c1, c0).view(np.uint8)
    flip = np.greater(c3, c2).view(np.uint8)
    flip ^= right
    flip &= argmax
    right ^= flip
    argmax <<= 1
    argmax |= right
    return pooled, argmax


def maxpool_backward(
    grad_out: np.ndarray, argmax: np.ndarray, input_shape: tuple[int, ...]
) -> np.ndarray:
    even = input_shape[1] % 2 == 0 and input_shape[2] % 2 == 0
    # the four corners cover every element of an even input
    grad = np.empty(input_shape) if even else np.zeros(input_shape)
    for k, corner in enumerate(_corner_views(grad)):
        np.multiply(grad_out, argmax == k, out=corner)
    return grad


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    picked = probs[np.arange(labels.size), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------


def forward(
    params: Params, images: np.ndarray, cache: dict | None = None
) -> np.ndarray:
    """Logits for a batch. Given a ``cache`` dict (training), fills it with
    what the backward pass needs; without one, keeps nothing."""
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 3:
        raise DataFormatError(
            f"expected a (N, H, W) grayscale batch, got shape {x.shape}"
        )
    x = x[:, :, :, None]
    n = x.shape[0]
    for i in (1, 2, 3):
        kernel, bias = getattr(params, f"kernel{i}"), getattr(params, f"bias{i}")
        _, h, w, cin = x.shape
        cout = kernel.shape[3]
        pooled = np.empty((n, h // 2, w // 2, cout))
        if cache is not None:
            all_patches = np.empty((n * h * w, 9 * cin))
            mask = np.empty(pooled.shape, dtype=bool)
            argmax = np.empty(pooled.shape, dtype=np.uint8)
            cache[f"conv{i}"] = (all_patches, mask, (n, h, w, cout), argmax)
        for block in _frame_blocks(n, h, w, cin):
            act, patches = conv3x3_forward(x[block], kernel, bias)
            out, out_argmax = maxpool_forward(act, with_argmax=cache is not None)
            out_mask = out > 0
            out *= out_mask  # ReLU in place, after pooling: a quarter of the elements
            pooled[block] = out
            if cache is not None:
                all_patches[block.start * h * w : block.stop * h * w] = patches
                mask[block], argmax[block] = out_mask, out_argmax
            del act, patches  # freed before the next block
        x = pooled
    flat = x.reshape(n, -1)
    hidden_pre = flat @ params.hidden_weight + params.hidden_bias
    hidden_mask = hidden_pre > 0
    hidden = hidden_pre * hidden_mask
    logits = hidden @ params.output_weight + params.output_bias
    if cache is not None:
        cache.update(flat=flat, hidden_mask=hidden_mask, hidden=hidden)
    return logits


def loss_and_gradients(
    params: Params, images: np.ndarray, labels: np.ndarray
) -> tuple[float, Params, np.ndarray]:
    """Cross-entropy loss, its gradient with respect to every parameter,
    and the class probabilities for the batch.

    Softmax and cross-entropy fuse: the logit gradient is simply
    (probabilities - one-hot) / batch.
    """
    labels = np.asarray(labels)
    cache: dict = {}
    probs = softmax(forward(params, images, cache))
    loss = cross_entropy(probs, labels)
    batch = probs.shape[0]

    grad_logits = probs.copy()
    grad_logits[np.arange(batch), labels] -= 1.0
    grad_logits /= batch

    grads = {
        "output_weight": cache["hidden"].T @ grad_logits,
        "output_bias": grad_logits.sum(axis=0),
    }
    grad_hidden = (grad_logits @ params.output_weight.T) * cache["hidden_mask"]
    grads["hidden_weight"] = cache["flat"].T @ grad_hidden
    grads["hidden_bias"] = grad_hidden.sum(axis=0)
    grad_x = grad_hidden @ params.hidden_weight.T
    for i in (3, 2, 1):
        patches, mask, act_shape, argmax = cache.pop(f"conv{i}")
        kernel = getattr(params, f"kernel{i}")
        grad_x = grad_x.reshape(mask.shape)
        grad_pre = np.empty(act_shape)
        _, h, w, _ = act_shape
        for block in _frame_blocks(batch, h, w, kernel.shape[2]):
            grad_pre[block] = maxpool_backward(
                grad_x[block] * mask[block], argmax[block], grad_pre[block].shape
            )
        grad_x, grads[f"kernel{i}"], grads[f"bias{i}"] = conv3x3_backward(
            patches, kernel, grad_pre, input_grad=i > 1
        )
    return loss, Params(**grads), probs


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------


def rmsprop_step(
    params: Params,
    grads: Params,
    squares: Params,
    learning_rate: float,
) -> tuple[Params, Params]:
    """One update: s <- rho s + (1 - rho) g^2, theta <- theta - lr g / (sqrt(s) + eps),
    with rho = RMSPROP_RHO and eps = RMSPROP_EPS, for the running squares s.

    Inputs are left untouched; fresh parameters and squares come back.
    """
    new_params = []
    new_squares = []
    for theta, g, s in zip(params, grads, squares):
        s_new = RMSPROP_RHO * s + (1.0 - RMSPROP_RHO) * g * g
        new_params.append(theta - learning_rate * g / (np.sqrt(s_new) + RMSPROP_EPS))
        new_squares.append(s_new)
    return Params(*new_params), Params(*new_squares)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")


@dataclass
class TrainResult:
    arch: Architecture
    params: Params
    history: list[dict]


def _inference_logits(params: Params, images: np.ndarray):
    """``(start, logits)`` per ``INFERENCE_BATCH`` frames; non-finite ones raise."""
    for start in range(0, len(images), INFERENCE_BATCH):
        logits = forward(params, images[start : start + INFERENCE_BATCH])
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits; the network's parameters diverged")
        yield start, logits


def evaluate_network(
    params: Params, images: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """(mean loss, accuracy) over a labeled set, computed in batches."""
    labels = np.asarray(labels)
    n = labels.size
    if len(images) != n:
        raise ConfigError(f"{len(images)} images but {n} labels")
    if n == 0:
        raise ConfigError("cannot evaluate on an empty set")
    total_loss = 0.0
    correct = 0
    for start, logits in _inference_logits(params, images):
        batch = labels[start : start + INFERENCE_BATCH]
        total_loss += cross_entropy(softmax(logits), batch) * batch.size
        correct += int((logits.argmax(axis=1) == batch).sum())
    return total_loss / n, correct / n


def predict(params: Params, images: np.ndarray) -> np.ndarray:
    """Predicted class indices for a batch of images."""
    out = [logits.argmax(axis=1) for _, logits in _inference_logits(params, images)]
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def train(
    arch: Architecture,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainResult:
    """Minibatch RMSprop from a fresh He initialization.

    Each epoch shuffles the training set with a generator seeded by
    ``arch.seed``, walks it in ``batch_size`` chunks (the short final
    chunk included), and records running train metrics plus, when given,
    validation metrics on the epoch's final parameters. The returned model
    is the last epoch's, not a best-so-far snapshot.
    """
    train_images = np.asarray(train_images, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    n = train_labels.size
    if len(train_images) != n:
        raise ConfigError(f"{len(train_images)} images but {n} labels")
    if n == 0:
        raise ConfigError("cannot train on an empty set")
    if train_labels.min() < 0 or train_labels.max() >= arch.classes:
        raise ConfigError("training labels outside the architecture's class range")
    params = initialize(arch)
    squares = Params(*map(np.zeros_like, params))
    shuffler = np.random.default_rng(arch.seed)
    history: list[dict] = []
    for epoch in range(config.epochs):
        order = shuffler.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            loss, grads, probs = loss_and_gradients(
                params, train_images[take], train_labels[take]
            )
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}")
            params, squares = rmsprop_step(params, grads, squares, config.learning_rate)
            epoch_loss += loss * take.size
            epoch_correct += int(
                (probs.argmax(axis=1) == train_labels[take]).sum()
            )
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / n,
            "train_accuracy": epoch_correct / n,
        }
        if validation is not None:
            val_loss, val_acc = evaluate_network(params, *validation)
            row["validation_loss"] = val_loss
            row["validation_accuracy"] = val_acc
        history.append(row)
    return TrainResult(arch=arch, params=params, history=history)


# ---------------------------------------------------------------------------
# Checkpoints, in the shared container layout (see ``errors``): the
# architecture as eight u64 fields (H, W, c1, c2, c3, hidden, classes,
# seed), then every parameter tensor in serialization order, row-major.
# ---------------------------------------------------------------------------


def save_checkpoint(arch: Architecture, params: Params, path: str | Path) -> None:
    with write_container(path, CHECKPOINT_MAGIC) as stream:
        write_fields(
            stream,
            "8Q",
            arch.height,
            arch.width,
            *arch.channels,
            arch.hidden,
            arch.classes,
            arch.seed,
        )
        for array in params:
            write_array(stream, array, "C")


def load_checkpoint(path: str | Path) -> tuple[Architecture, Params]:
    path = Path(path)
    with read_container(path, CHECKPOINT_MAGIC, "parameters") as stream:
        fields = read_fields(stream, "8Q", "architecture")
        h, w, c1, c2, c3, hidden, classes, seed = fields
        arch = Architecture(h, w, (c1, c2, c3), hidden, classes, seed)
        shapes = zip(Params._fields, param_shapes(arch))
        params = Params(*(read_array(stream, s, name, "C") for name, s in shapes))
    return arch, params
