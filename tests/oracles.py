"""Independent reference computations for the test suite.

The point of these is to not share code paths (or LAPACK calls) with the
package: the eigensolver is a hand-written cyclic Jacobi iteration, and
the derived quantities are built from first principles on top of it.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigvalsh(matrix: np.ndarray, sweeps: int = 30, tol: float = 1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi, descending.

    Sweeps zero out each off-diagonal pair (p, q) with a plane rotation
    until the off-diagonal mass is negligible against the diagonal. The
    rotations are not accumulated: no caller needs the eigenvectors.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("symmetric matrix required")
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(sweeps):
        off = np.sqrt(max((a**2).sum() - (np.diag(a) ** 2).sum(), 0.0))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                # rotation angle that annihilates a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = c * a[:, p] - s * a[:, q]
                rq = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rp, rq
                rp = c * a[p, :] - s * a[q, :]
                rq = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rp, rq
    return np.sort(np.diag(a))[::-1]


def oracle_singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values of a matrix, descending, via Jacobi on the
    smaller Gram matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    j, k = matrix.shape
    gram = matrix.T @ matrix if k <= j else matrix @ matrix.T
    values = jacobi_eigvalsh(gram)
    return np.sqrt(np.clip(values, 0.0, None))


def principal_angle_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two subspaces given by
    orthonormal column bases; all near 1 means the spans agree."""
    overlap = a.T @ b
    return oracle_singular_values(overlap)


def reference_conv3x3(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """Direct quadruple-loop 3x3 same-padding convolution (NHWC)."""
    b, h, w, cin = x.shape
    cout = kernel.shape[3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((b, h, w, cout))
    for i in range(h):
        for jj in range(w):
            patch = xp[:, i : i + 3, jj : jj + 3, :]
            for o in range(cout):
                out[:, i, jj, o] = (patch * kernel[:, :, :, o]).sum(axis=(1, 2, 3))
    return out + bias


def reference_conv3x3_backward(
    x: np.ndarray, kernel: np.ndarray, grad_out: np.ndarray
):
    """Direct-loop gradients (input, kernel, bias) of ``reference_conv3x3``
    for the upstream gradient ``grad_out``: every output position sends its
    gradient back through each of the nine taps."""
    b, h, w, cin = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    grad_xp = np.zeros_like(xp)
    grad_kernel = np.zeros_like(kernel)
    for i in range(h):
        for jj in range(w):
            g = grad_out[:, i, jj, :]  # (b, cout)
            for u in range(3):
                for v in range(3):
                    pixel = xp[:, i + u, jj + v, :]  # (b, cin)
                    grad_kernel[u, v] += (
                        pixel[:, :, None] * g[:, None, :]
                    ).sum(axis=0)
                    grad_xp[:, i + u, jj + v, :] += (
                        kernel[u, v][None, :, :] * g[:, None, :]
                    ).sum(axis=2)
    grad_bias = grad_out.sum(axis=(0, 1, 2))
    return grad_xp[:, 1:-1, 1:-1, :], grad_kernel, grad_bias


def reference_maxpool(x: np.ndarray):
    """Direct 2x2 stride-2 max pooling (NHWC), truncating odd edges."""
    b, h, w, c = x.shape
    hh, ww = h // 2, w // 2
    out = np.zeros((b, hh, ww, c))
    for i in range(hh):
        for jj in range(ww):
            out[:, i, jj, :] = x[:, 2 * i : 2 * i + 2, 2 * jj : 2 * jj + 2, :].max(
                axis=(1, 2)
            )
    return out


def reference_maxpool_backward(x: np.ndarray, grad_out: np.ndarray):
    """Direct-loop max-pool gradient: each window's upstream gradient lands
    on the first maximum in row-major window order; odd trailing
    rows/columns get none."""
    b, h, w, c = x.shape
    grad = np.zeros(x.shape)
    for n in range(b):
        for i in range(h // 2):
            for jj in range(w // 2):
                for ch in range(c):
                    window = [
                        (x[n, 2 * i + r, 2 * jj + s, ch], r, s)
                        for r in (0, 1)
                        for s in (0, 1)
                    ]
                    top = max(value for value, _, _ in window)
                    _, r, s = next(item for item in window if item[0] == top)
                    grad[n, 2 * i + r, 2 * jj + s, ch] = grad_out[n, i, jj, ch]
    return grad


def finite_difference_gradients(loss_fn, arrays, step: float = 1e-5):
    """Central-difference gradient of a scalar function of many arrays."""
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a) + abs(b), 1e-6)
