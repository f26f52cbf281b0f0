"""Acceptance gate: one test per headline guarantee of the package.

Every test appends a PASS or FAIL line to RESULTS; a terminal-summary
hook in conftest prints the collected lines after the run so the whole
gate reads at a glance. Timed guarantees measure wall-clock inside the
test and fail when the budget is blown.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from oracles import oracle_singular_values, relative_error
from podclass import convnet
from podclass.basis import build_library, load_library, save_library
from podclass.dataset import (
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    split_dataset,
    write_samples,
)
from podclass.experiment import ExperimentConfig, TruncationRule, render_report, run_experiment
from podclass.svd import thin_svd

RESULTS: list[str] = []


def _record(name: str, ok: bool, detail: str) -> None:
    RESULTS.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _all_pairs(samples):
    return [(frame, s.label) for s in samples for frame in s.frames]


def test_singular_values_match_independent_oracle():
    """The SVD agrees with a from-scratch Jacobi oracle on 200 random
    matrices, and the factor invariants hold."""
    rng = np.random.default_rng(20260822)
    worst_sv = worst_orth = worst_rec = 0.0
    start = time.perf_counter()
    for _ in range(200):
        j = int(rng.integers(2, 51))
        k = int(rng.integers(2, 51))
        a = rng.standard_normal((j, k))
        reference = oracle_singular_values(a)
        svd = thin_svd(a)
        assert svd.rank == min(j, k)
        worst_sv = max(
            worst_sv, float(np.abs(svd.values - reference).max() / reference[0])
        )
        eye = np.eye(svd.rank)
        worst_orth = max(
            worst_orth,
            float(np.abs(svd.modes.T @ svd.modes - eye).max()),
            float(np.abs(svd.coeffs.T @ svd.coeffs - eye).max()),
        )
        worst_rec = max(
            worst_rec,
            float(
                np.linalg.norm(a - (svd.modes * svd.values) @ svd.coeffs.T)
                / np.linalg.norm(a)
            ),
        )
    elapsed = time.perf_counter() - start
    ok = worst_sv <= 1e-9 and worst_orth <= 1e-10 and worst_rec <= 1e-10 and elapsed < 10.0
    _record(
        "svd-oracle",
        ok,
        f"200 matrices, direct route: sv {worst_sv:.2e} (<=1e-9), "
        f"orthonormality {worst_orth:.2e}, reconstruction {worst_rec:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<10s)",
    )


def test_truncation_error_matches_discarded_spectrum():
    """Frobenius error of a rank-r cut equals the root sum of squares of
    the dropped singular values."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(6, 41))
        k = int(rng.integers(6, 41))
        a = rng.standard_normal((j, k))
        svd = thin_svd(a)
        norm = np.linalg.norm(a)
        for r in np.linspace(1, svd.rank, 5).astype(int):
            kept = (svd.modes[:, :r] * svd.values[:r]) @ svd.coeffs[:, :r].T
            direct = np.linalg.norm(a - kept)
            tail = float(np.sqrt(np.sum(svd.values[r:] ** 2)))
            worst = max(worst, abs(direct - tail) / norm)
    ok = worst <= 1e-9
    _record("truncation-tail", ok, f"50 matrices x 5 ranks, worst {worst:.2e} (<=1e-9)")


def test_noise_threshold_recovers_planted_rank():
    """The median-based hard threshold finds the planted rank of noisy
    low-rank square matrices in at least 95 of 100 seeded trials."""
    m = 200
    hits = 0
    start = time.perf_counter()
    for trial in range(100):
        k = (1, 3, 5, 10)[trial % 4]
        sigma = (1e-3, 1e-2)[(trial // 4) % 2]
        rng = np.random.default_rng(1000 + trial)
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((m, k)))
        a = (u * np.linspace(3.0, 1.0, k)) @ v.T + sigma * rng.standard_normal((m, m))
        if TruncationRule().select(thin_svd(a).values, a.shape)[0] == k:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 60.0
    _record(
        "rank-recovery",
        ok,
        f"{hits}/100 planted ranks recovered (>=95), {elapsed:.1f}s (<60s)",
    )


def test_projection_laws_hold_on_random_images():
    """Idempotence, non-expansiveness, and residual orthogonality for
    every built basis, probed with 1000 random images each."""
    spec = SyntheticSpec(
        class_count=3, frames_per_class=36, image_side=16,
        intrinsic_rank=3, noise_level=0.1, seed=9,
    )
    samples = generate_synthetic(spec)
    library = build_library(_all_pairs(samples), (16, 16))
    rng = np.random.default_rng(5)
    worst_idem = worst_orth = worst_expand = 0.0
    for basis in library.bases:

        def project(columns):  # one flat frame per column
            return np.stack([basis.project(c) for c in columns.T], axis=1)

        x = rng.random((16 * 16, 1000))
        p = project(x)
        centered_x = x - basis.mean[:, None]
        centered_p = p - basis.mean[:, None]
        scale = np.linalg.norm(centered_x, axis=0).max()
        worst_idem = max(worst_idem, float(np.abs(project(p) - p).max()))
        worst_orth = max(
            worst_orth, float(np.abs(basis.modes.T @ (x - p)).max()) / scale
        )
        worst_expand = max(
            worst_expand,
            float(
                (
                    np.linalg.norm(centered_p, axis=0)
                    - np.linalg.norm(centered_x, axis=0)
                ).max()
            )
            / scale,
        )
    ok = worst_idem <= 1e-10 and worst_orth <= 1e-10 and worst_expand <= 1e-10
    _record(
        "projector-laws",
        ok,
        f"3 bases x 1000 images: idempotence {worst_idem:.2e}, residual "
        f"orthogonality {worst_orth:.2e}, expansion {worst_expand:.2e} (<=1e-10)",
    )


def test_analytic_gradients_match_finite_differences():
    """Central differences confirm every parameter gradient over 5 seeds.

    Probes that push an activation across a ReLU or pooling switch are
    skipped: the loss is not differentiable there and the quotient is
    meaningless. The activation pattern at both probe points must match
    the unperturbed one for the probe to count.
    """
    step = 1e-5
    worst = 0.0
    checked = skipped = 0
    start = time.perf_counter()
    for seed in range(5):
        arch = convnet.Architecture(
            height=16, width=16, channels=(2, 3, 4), hidden=6, classes=3, seed=seed
        )
        params = convnet.initialize(arch)
        data = np.random.default_rng(100 + seed)
        images = data.random((4, 16, 16))
        labels = data.integers(0, 3, size=4)
        _, grads, _ = convnet.loss_and_gradients(params, images, labels)

        def probe():
            cache: dict = {}
            logits = convnet.forward(params, images, cache)
            loss = convnet.cross_entropy(convnet.softmax(logits), labels)
            parts = []
            for name in ("conv1", "conv2", "conv3"):
                _, mask, _, argmax = cache[name]
                parts.append(mask.tobytes())
                parts.append(argmax.tobytes())
            parts.append(cache["hidden_mask"].tobytes())
            return loss, b"".join(parts)

        _, base_sig = probe()
        for field in convnet.Params._fields:
            flat = getattr(params, field).reshape(-1)
            grad = getattr(grads, field).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi, sig_hi = probe()
                flat[i] = orig - step
                lo, sig_lo = probe()
                flat[i] = orig
                if sig_hi != base_sig or sig_lo != base_sig:
                    skipped += 1
                    continue
                worst = max(worst, relative_error((hi - lo) / (2 * step), grad[i]))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and checked > 0 and elapsed < 120.0
    _record(
        "gradient-check",
        ok,
        f"5 seeds, {checked} entries checked, {skipped} kink probes skipped, "
        f"worst {worst:.2e} (<1e-4), {elapsed:.1f}s (<2min)",
    )


def test_loss_and_optimizer_closed_form_values():
    """Uniform softmax costs ln C exactly; the first unit-gradient step of
    the optimizer matches its closed form, 3.1623e-3 to five digits."""
    probs = convnet.softmax(np.zeros((4, 5)))
    loss = convnet.cross_entropy(probs, np.array([0, 1, 2, 3]))
    loss_err = abs(loss - np.log(5.0))

    arch = convnet.Architecture(
        height=8, width=8, channels=(2, 2, 2), hidden=4, classes=3, seed=0
    )
    zeros = convnet.Params(*map(np.zeros, convnet.param_shapes(arch)))
    ones = convnet.Params(*map(np.ones, convnet.param_shapes(arch)))
    stepped, _ = convnet.rmsprop_step(zeros, ones, zeros, learning_rate=1e-3)
    magnitude = -float(stepped.bias1[0])
    expected = 1e-3 / (np.sqrt(0.1) + convnet.RMSPROP_EPS)
    step_err = abs(magnitude - expected)
    rendered = f"{magnitude:.5g}"

    ok = loss_err <= 1e-12 and step_err <= 1e-8 and rendered == "0.0031623"
    _record(
        "hand-values",
        ok,
        f"uniform loss off ln5 by {loss_err:.1e} (<=1e-12); first step "
        f"{rendered} (= 3.1623e-3 at 5 digits), off closed form by "
        f"{step_err:.1e} (<=1e-8)",
    )


def test_network_overfits_small_labeled_set():
    """Fifty noise images with arbitrary labels are memorized to training
    accuracy 1.0 within 30 epochs. Noise images rule out passing on
    accidentally separable structure; only fitting can succeed."""
    rng = np.random.default_rng(3)
    images = rng.random((50, 16, 16))
    labels = np.tile(np.array([0, 1]), 25)
    arch = convnet.Architecture(
        height=16, width=16, channels=(8, 8, 8), hidden=16, classes=2, seed=0
    )
    config = convnet.TrainConfig(epochs=30, batch_size=8, learning_rate=3e-3)
    result = convnet.train(arch, images, labels, config)
    best = max(row["train_accuracy"] for row in result.history)
    first = next(
        (row["epoch"] for row in result.history if row["train_accuracy"] == 1.0), None
    )
    final = convnet.evaluate_network(result.params, images, labels)[1]
    ok = best == 1.0
    _record(
        "overfit-sanity",
        ok,
        f"50 noise images memorized: train accuracy 1.0 first reached at "
        f"epoch {first} (<30 epochs), final sweep {final:.2f}"
        if ok
        else f"best train accuracy {best:.3f} after 30 epochs",
    )


def test_projected_training_beats_raw_on_held_out_samples():
    """The shipped synthetic study: training on per-class projections
    lifts unseen-recording accuracy over raw training by at least 0.10,
    and the residual baseline stays at 0.90 or better."""
    start = time.perf_counter()
    config_file = Path(__file__).resolve().parent.parent / "configs" / "headline.cfg"
    spec = SyntheticSpec.from_config_file(config_file)
    samples = generate_synthetic(spec)
    split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=spec.seed)
    config = ExperimentConfig(
        rules=(TruncationRule(),), runs=5, epochs=30, batch_size=128,
        learning_rate=1e-3, seed=0, channels=(8, 16, 32), hidden=64,
    )
    report = run_experiment(split, config)
    raw = report["arms"]["raw"]["network"]["aggregate"]["unseen"]
    projected = report["arms"]["projected-auto"]["network"]["aggregate"]["unseen"]
    baseline = report["arms"]["projected-auto"]["baseline"]["unseen"]["accuracy"]
    gap = projected["mean"] - raw["mean"]
    elapsed = time.perf_counter() - start
    ok = gap >= 0.10 and baseline >= 0.90 and elapsed < 1200.0
    _record(
        "headline-gap",
        ok,
        f"unseen accuracy {projected['mean']:.3f}±{projected['std']:.3f} projected "
        f"vs {raw['mean']:.3f}±{raw['std']:.3f} raw, gap {gap:+.3f} (>=0.10); "
        f"baseline {baseline:.3f} (>=0.90); {elapsed:.0f}s (<20min)",
    )


def test_experiment_reports_are_bit_reproducible():
    """Two runs of the same study render byte-identical reports."""
    spec = SyntheticSpec(
        class_count=3, frames_per_class=36, image_side=16,
        intrinsic_rank=3, noise_level=0.1, seed=9,
    )
    samples = generate_synthetic(spec)
    split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=2)
    config = ExperimentConfig(
        rules=(TruncationRule(),), runs=2, epochs=2, batch_size=16,
        learning_rate=1e-3, seed=3, channels=(2, 2, 2), hidden=4,
    )
    first = render_report(run_experiment(split, config))
    second = render_report(run_experiment(split, config))
    ok = first == second
    _record(
        "reproducibility",
        ok,
        f"two invocations, {len(first)}-byte reports "
        + ("identical" if ok else "differ"),
    )


def test_serialized_artifacts_round_trip_exactly(tmp_path):
    """Library and checkpoint files reload bit-exactly; PGM export and
    ingest agree to the 8-bit quantization grid."""
    spec = SyntheticSpec(
        class_count=3, frames_per_class=12, image_side=16,
        intrinsic_rank=3, noise_level=0.1, seed=9,
    )
    samples = generate_synthetic(spec)

    library = build_library(_all_pairs(samples), (16, 16), rank=3)
    lib_path = tmp_path / "bases.lib"
    save_library(library, lib_path)
    loaded = load_library(lib_path)
    again = tmp_path / "bases2.lib"
    save_library(loaded, again)
    lib_ok = lib_path.read_bytes() == again.read_bytes() and all(
        np.array_equal(a.mean, b.mean) and np.array_equal(a.modes, b.modes)
        for a, b in zip(library.bases, loaded.bases)
    )

    arch = convnet.Architecture(
        height=16, width=16, channels=(2, 2, 2), hidden=4, classes=3, seed=1
    )
    params = convnet.initialize(arch)
    ckpt = tmp_path / "model.ckpt"
    convnet.save_checkpoint(arch, params, ckpt)
    arch2, params2 = convnet.load_checkpoint(ckpt)
    ckpt2 = tmp_path / "model2.ckpt"
    convnet.save_checkpoint(arch2, params2, ckpt2)
    ckpt_ok = (
        arch2 == arch
        and ckpt.read_bytes() == ckpt2.read_bytes()
        and all(np.array_equal(a, b) for a, b in zip(params, params2))
    )

    tree = tmp_path / "frames"
    write_samples(samples, tree)
    reloaded = load_dataset(tree)
    by_key = {(s.label.code, s.sample_id): s for s in reloaded}
    pgm_ok = True
    for sample in samples:
        back = by_key[(sample.label.code, sample.sample_id)]
        expected = np.rint(np.clip(sample.frames, 0.0, 1.0) * 255.0) / 255.0
        pgm_ok = pgm_ok and np.array_equal(back.frames, expected)

    ok = lib_ok and ckpt_ok and pgm_ok
    _record(
        "round-trips",
        ok,
        f"library bit-exact: {lib_ok}; checkpoint bit-exact: {ckpt_ok}; "
        f"PGM ingest on the 1/255 grid: {pgm_ok}",
    )
