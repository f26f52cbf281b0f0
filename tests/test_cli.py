import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from podclass import basis, convnet
from podclass.cli import _load_split, build_parser, main
from podclass.convnet import load_checkpoint
from podclass.dataset import (
    SplitPolicy,
    load_dataset,
    split_dataset,
    split_from_manifest,
    write_manifest,
)
from podclass.basis import LIBRARY_MAGIC, build_library, load_library, project_pairs
from podclass.errors import FORMAT_VERSION
from podclass.pgm import read_pgm, write_pgm


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.txt"
    path.write_text(
        "classes=3\nframes=36\nside=16\nrank=3\nnoise=0.1\nseed=9\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


def _assert_canonical_json(text):
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_synth_writes_tree_and_manifest(data_dir):
    assert (data_dir / "manifest.tsv").is_file()
    assert (data_dir / "spec.txt").is_file()
    assert (data_dir / "C0" / "s00" / "0000.pgm").is_file()
    samples = load_dataset(data_dir)
    assert len(samples) == 36


def test_synth_is_deterministic(tmp_path, spec_file, data_dir):
    again = tmp_path / "data2"
    assert main(["synth", "--spec", str(spec_file), "--out", str(again)]) == 0
    assert (again / "manifest.tsv").read_bytes() == (
        data_dir / "manifest.tsv"
    ).read_bytes()
    a = (data_dir / "C1" / "s03" / "0001.pgm").read_bytes()
    b = (again / "C1" / "s03" / "0001.pgm").read_bytes()
    assert a == b


def test_ingest_check_passes(data_dir, capsys):
    assert main(["ingest-check", "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "classes: 3" in out and "ok" in out


def test_ingest_check_missing_data(tmp_path):
    assert main(["ingest-check", "--data", str(tmp_path / "nope")]) == 3


def test_build_basis_and_evaluate(data_dir, tmp_path, capsys):
    lib = tmp_path / "lib.bin"
    assert main(
        ["build-basis", "--data", str(data_dir), "--rank", "3", "--out", str(lib)]
    ) == 0
    library = load_library(lib)
    assert [b.rank for b in library.bases] == [3, 3, 3]
    capsys.readouterr()
    report = tmp_path / "evaluation.json"
    assert main(
        [
            "evaluate", "--data", str(data_dir), "--library", str(lib),
            "--out", str(report),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "unseen accuracy" in out
    _assert_canonical_json(report.read_text(encoding="utf-8"))


def test_spectrum_writes_factors(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "factors"
    assert main(
        ["spectrum", "--data", str(data_dir), "--out", str(out_dir)]
    ) == 0
    assert (out_dir / "C0.factors").is_file()
    text = capsys.readouterr().out
    assert "leading sigma" in text


def test_project_writes_clamped_tree(data_dir, tmp_path):
    out = tmp_path / "proj"
    assert main(
        ["project", "--data", str(data_dir), "--rank", "3", "--out", str(out)]
    ) == 0
    projected = load_dataset(out)
    assert len(projected) == 36
    assert (out / "manifest.tsv").read_bytes() == (
        data_dir / "manifest.tsv"
    ).read_bytes()
    for sample in projected:
        for frame in sample.frames:
            assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_project_writes_project_pairs_output(data_dir, tmp_path):
    out = tmp_path / "proj"
    assert main(
        ["project", "--data", str(data_dir), "--rank", "3", "--out", str(out)]
    ) == 0
    samples = load_dataset(data_dir)
    split = split_from_manifest(samples, data_dir / "manifest.tsv")
    library = build_library(split.train, split.metadata.frame_shape, rank=3)
    sample = samples[-1]
    ((projected, _),) = project_pairs(library, [(sample.frames[1], sample.label)])
    expected = np.rint(np.clip(projected, 0.0, 1.0) * 255.0).astype(np.uint8)
    written = read_pgm(out / sample.label.code / sample.sample_id / "0001.pgm")
    assert np.array_equal(written, expected)


def test_project_writes_the_split_its_bases_were_fitted_on(data_dir, tmp_path):
    # from a tree without a manifest it used to write none, and a later
    # seed-0 split of the projected tree dealt frames the bases were fitted
    # on into validation, test and unseen
    bare = _tree_copy(data_dir, tmp_path / "bare")
    out = tmp_path / "proj"
    args = ["--data", str(bare), "--seed", "3", "--rank", "2", "--out", str(out)]
    assert main(["project", *args]) == 0
    samples = load_dataset(bare)
    split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=3)
    write_manifest(split, tmp_path / "seed3.tsv")
    assert (out / "manifest.tsv").read_bytes() == (tmp_path / "seed3.tsv").read_bytes()
    for later in (["ingest-check"], ["train", "--out", "model"]):
        later = build_parser().parse_args([*later, "--data", str(out)])
        assert later.seed == 0
        assert _load_split(later)[1].origins == split.origins


@pytest.mark.parametrize("source", ["no-manifest", "crlf-manifest"])
def test_project_of_a_synth_tree_writes_its_manifest_bytes(data_dir, tmp_path, source):
    # a synth tree's split is its spec seed's (9); a hand-written manifest
    # comes out in canonical form
    bare = _tree_copy(data_dir, tmp_path / "bare")
    canonical = (data_dir / "manifest.tsv").read_bytes()
    args = ["--data", str(bare), "--seed", "9", "--rank", "2"]
    if source == "crlf-manifest":
        (tmp_path / "crlf.tsv").write_bytes(canonical.replace(b"\n", b"\r\n"))
        args += ["--seed", "0", "--manifest", str(tmp_path / "crlf.tsv")]
    assert main(["project", *args, "--out", str(tmp_path / "proj")]) == 0
    assert (tmp_path / "proj" / "manifest.tsv").read_bytes() == canonical


@pytest.mark.parametrize("spelling", ["same", "dotted", "inside"])
def test_project_onto_its_own_data_exit_2(data_dir, tmp_path, capsys, spelling):
    # it used to replace the raw frames with their projections, or add a
    # class directory of them, and exit 0
    root = tmp_path / "data"
    shutil.copytree(data_dir, root)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    out = {"same": root, "dotted": root / "C0" / "..", "inside": root / "proj"}
    args = ["project", "--data", str(root), "--rank", "1", "--out", str(out[spelling])]
    assert main(args) == 2
    assert "is the --data directory" in capsys.readouterr().err
    after = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    assert after == before


def test_project_onto_its_own_data_is_refused_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["project", "--data", missing, "--out", missing]) == 2
    assert "is the --data directory" in capsys.readouterr().err


def test_train_writes_outputs(data_dir, tmp_path):
    out = tmp_path / "model"
    assert main(
        [
            "train", "--data", str(data_dir), "--epochs", "2", "--batch", "16",
            "--arch", "2,4,4,8", "--out", str(out),
        ]
    ) == 0
    arch, params = load_checkpoint(out / "checkpoint.bin")
    assert arch.classes == 3 and arch.height == 16
    history = json.loads((out / "history.json").read_text())
    assert len(history) == 2
    scores = json.loads((out / "evaluation.json").read_text())
    assert set(scores) == {"validation", "test", "unseen"}
    for name in ("history.json", "evaluation.json"):
        _assert_canonical_json((out / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "command, message",
    [
        ("train", "training needs a nonempty train partition"),
        ("experiment", "no frames to build a basis library from"),
    ],
    ids=["train", "experiment"],
)
def test_train_without_train_partition_exit_3(
    data_dir, tmp_path, capsys, command, message
):
    # train used to end in a KeyError traceback, then train and experiment
    # exited 2 as if the settings, not the data, were at fault
    lines = (data_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{line}\n" for line in lines if not line.startswith("train\t")),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = [
        command, "--data", str(data_dir), "--manifest", str(manifest),
        "--epochs", "1", "--arch", "2,4,4,8", "--out", str(out),
    ]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # such a split is still valid data: a saved library scores it
    lib = tmp_path / "lib.bin"
    assert main(["build-basis", "--data", str(data_dir), "--out", str(lib)]) == 0
    evaluate = ["evaluate", "--data", str(data_dir), "--manifest", str(manifest)]
    assert main(evaluate + ["--library", str(lib)]) == 0
    assert "unseen accuracy" in capsys.readouterr().out


def test_experiment_writes_deterministic_report(data_dir, tmp_path, capsys):
    args = [
        "experiment", "--data", str(data_dir), "--rank", "3", "--runs", "1",
        "--epochs", "2", "--batch", "16", "--arch", "2,4,4,8",
    ]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(r1)]) == 0
    summary = capsys.readouterr().out
    assert "raw\tvalidation " in summary
    assert main(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["protocol"]["arm_order"] == ["raw", "projected-r3"]
    _assert_canonical_json(r1.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert main(args) == 0
    # the summary rows, then the report exactly as --out writes it
    rows = summary.removesuffix(f"wrote {r1}\n")
    assert capsys.readouterr().out == rows + r1.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    # noise far above the planted modes: the hard threshold keeps nothing
    root = tmp_path_factory.mktemp("noisy")
    spec = root / "spec.txt"
    spec.write_text(
        "classes=2\nframes=24\nside=16\nrank=2\nnoise=0.3\nseed=3\n",
        encoding="utf-8",
    )
    assert main(["synth", "--spec", str(spec), "--out", str(root / "data")]) == 0
    return root / "data"


def test_experiment_prints_library_warnings(noisy_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    args = [
        "experiment", "--data", str(noisy_dir), "--runs", "1", "--epochs", "1",
        "--batch", "16", "--arch", "2,4,4,8", "--out", str(out),
    ]
    assert main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    report = json.loads(out.read_text(encoding="utf-8"))
    notes = {note for arm in report["arms"].values() for note in arm["warnings"]}
    assert any("fell back to rank 1" in note for note in notes)
    # the raw and projected-auto arms share their warnings: each prints once
    assert sorted(lines) == sorted(f"warning: {note}" for note in notes)


def test_project_and_evaluate_print_library_warnings(noisy_dir, tmp_path, capsys):
    # both used to build the library that build-basis builds without a word
    lib = tmp_path / "lib.bin"
    assert main(["build-basis", "--data", str(noisy_dir), "--out", str(lib)]) == 0
    warnings = capsys.readouterr().err
    assert warnings.count("fell back to rank 1") == 2
    for command, out in (("project", "proj"), ("evaluate", "report.json")):
        args = [command, "--data", str(noisy_dir), "--out", str(tmp_path / out)]
        assert main(args) == 0
        assert capsys.readouterr().err == warnings


def test_bad_arguments_exit_2(data_dir):
    assert main(
        ["build-basis", "--data", str(data_dir), "--rank", "0", "--out", "/tmp/x"]
    ) == 2
    assert main(
        [
            "experiment", "--data", str(data_dir), "--rank", "3", "--rank", "3",
            "--runs", "1", "--epochs", "1",
        ]
    ) == 2
    assert main(
        ["train", "--data", str(data_dir), "--arch", "1,2", "--out", "/tmp/x"]
    ) == 2


def test_corrupt_data_exit_3(tmp_path):
    root = tmp_path / "broken"
    (root / "C0" / "s00").mkdir(parents=True)
    (root / "C0" / "s00" / "0000.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    assert main(["ingest-check", "--data", str(root)]) == 3


def _leak_train_frame_into_test(lines):
    train = next(line for line in lines if line.startswith("train\t"))
    return lines + ["test" + train[len("train"):]]


def _garble_frame_token(lines):
    part, code, sample, _ = lines[0].split("\t")
    return ["\t".join((part, code, sample, "x1"))] + lines[1:]


def _form_feed_join(lines):
    # str.splitlines() would end the first line at the form feed
    part, code, sample, frame = lines[0].split("\t")
    joined = "\t".join((part, code, sample, frame + "\x0c" + lines[1]))
    return [joined] + lines[2:]


def _frame_token(token):
    # int() reads the token as frame 1, so the edited line keeps its frame
    def edit(lines):
        k = next(i for i, line in enumerate(lines) if line.endswith("\t0001"))
        part, code, sample, _ = lines[k].split("\t")
        return lines[:k] + ["\t".join((part, code, sample, token))] + lines[k + 1 :]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _leak_train_frame_into_test,
        _garble_frame_token,
        _form_feed_join,
        _frame_token("0_1"),
        _frame_token(" 1"),
        _frame_token("+1"),
        _frame_token("0" * 4400 + "1"),
    ],
    ids=[
        "duplicate-frame",
        "non-integer-frame",
        "form-feed-line",
        "underscore-frame",
        "space-frame",
        "plus-frame",
        "4401-digit-frame",
    ],
)
def test_malformed_manifest_exit_3(data_dir, tmp_path, capsys, edit):
    lines = (data_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    edited = edit(lines)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(edited) + "\n", encoding="utf-8")
    args = ["ingest-check", "--data", str(data_dir), "--manifest", str(manifest)]
    assert main(args) == 3
    # the error names the first edited line
    lineno = next(
        n for n, (new, old) in enumerate(zip(edited, lines + [None]), 1) if new != old
    )
    assert capsys.readouterr().err.startswith(f"error: {manifest}:{lineno}: ")


def test_manifest_with_a_sample_in_unseen_and_train_exit_3(data_dir, tmp_path, capsys):
    manifest = tmp_path / "overlap.tsv"
    manifest.write_text("train\tC0\ts00\t0000\nunseen\tC0\ts00\t0001\n")
    args = ["ingest-check", "--data", str(data_dir), "--manifest", str(manifest)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: samples [('C0', 's00')] appear both in training partitions "
        "and in unseen\n"
    )


def test_ingest_check_mixed_frame_shapes_exit_3(data_dir, tmp_path, capsys):
    # the manifest path used to accept the tree; every later command then
    # failed with exit 2 on the library's dimension check
    root = tmp_path / "data"
    shutil.copytree(data_dir, root)
    for path in (root / "C1").glob("*/*.pgm"):
        write_pgm(path, read_pgm(path)[:8, :8])
    assert main(["ingest-check", "--data", str(root)]) == 3
    err = capsys.readouterr().err
    assert err == "error: sample C1/s00 has frame shape (8, 8), expected (16, 16)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("noise=nan\n", "noise_level must be finite"),
        ("noise=inf\n", "noise_level must be finite"),
        (
            "classes=5\nside=8\nrank=13\nframes=20\n",
            "5 classes x rank 13 patterns need disjoint supports but only 64 pixels",
        ),
        ("classes=3\nclasses=2\n", ":2: key 'classes' already set at line 1"),
        ("classes=1_0\n", ":1: bad value for classes"),
        ("classes=3\nframes=\u0661\u0662\n", ":2: bad value for frames"),
        ("noise=0_1\n", ":1: bad value for noise"),
    ],
    ids=[
        "nan", "inf", "capacity", "duplicate-key",
        "underscore", "non-ascii", "noise-underscore",
    ],
)
def test_synth_bad_spec_exit_2(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.txt"
    spec.write_text(text, encoding="utf-8")
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, reason",
    [
        ("typo.tsv", "No such file or directory"),
        ("", "Is a directory"),  # Path("") is "."
        (".", "Is a directory"),  # tmp_path itself
    ],
    ids=["typo", "empty", "directory"],
)
@pytest.mark.parametrize("command", ["ingest-check", "build-basis"])
def test_missing_named_manifest_exit_3(
    data_dir, tmp_path, capsys, command, name, reason
):
    # a missing file used to fall back to a seeded split and exit 0
    missing = str(tmp_path / name) if name else name
    out = tmp_path / "lib.bin"
    args = [command, "--data", str(data_dir), "--manifest", missing]
    assert main(args + (["--out", str(out)] if command == "build-basis" else [])) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read manifest {Path(missing)}: {reason}\n"
    assert captured.out == ""
    assert not out.exists()


def test_manifest_not_utf8_exit_3(data_dir, tmp_path, capsys):
    lines = (data_dir / "manifest.tsv").read_bytes().split(b"\n")
    lines[4] = lines[4][:-1] + b"\xff"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"\n".join(lines))
    args = ["ingest-check", "--data", str(data_dir), "--manifest", str(manifest)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith(f"error: {manifest}:5: ")


def test_evaluate_with_corrupt_library_exit_3(data_dir, tmp_path, capsys):
    lib = tmp_path / "lib.bin"
    assert main(["build-basis", "--data", str(data_dir), "--out", str(lib)]) == 0
    data = bytearray(lib.read_bytes())
    # class block: u32 id 0, u32 code length 2, then the code itself
    code_at = data.index(b"\x00" * 4 + b"\x02\x00\x00\x00C0") + 8
    data[code_at] = 0xFF
    lib.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data_dir), "--library", str(lib)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lib}: class code is not UTF-8")


def test_evaluate_with_zero_class_library_exit_3(data_dir, tmp_path, capsys):
    # zero classes and a 2^64-1 x 2^64-1 frame: bad data (3), not a frame
    # shape that mismatches the dataset's (2)
    lib = tmp_path / "lib.bin"
    head = struct.pack("<IIQQQ", FORMAT_VERSION, 0, 2**64 - 1, 2**64 - 1, 2)
    lib.write_bytes(LIBRARY_MAGIC + head + b"{}")
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data_dir), "--library", str(lib)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lib}: library holds no classes")


def test_experiment_divergence_exit_4(data_dir, capsys):
    args = [
        "experiment", "--data", str(data_dir), "--runs", "2", "--epochs", "1",
        "--batch", "16", "--arch", "2,4,4,8", "--lr", "1e300",
    ]
    with np.errstate(all="ignore"):
        assert main(args) == 4
    assert "training diverged at epoch 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_diverged_final_update_exit_4(data_dir, tmp_path, capsys, command):
    # one batch per epoch: the loss is finite until the only update diverges,
    # which used to end in exit 0 and NaN in the JSON
    out = tmp_path / "out"
    args = [
        command, "--data", str(data_dir), "--epochs", "1", "--arch", "2,4,4,8",
        "--lr", "1e300", "--out", str(out),
    ]
    if command == "experiment":
        args += ["--runs", "1"]
    with np.errstate(all="ignore"):
        assert main(args) == 4
    assert "non-finite logits" in capsys.readouterr().err
    assert not out.exists()  # no history, scores or report


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_train_non_finite_learning_rate_exit_2(data_dir, tmp_path, capsys, rate):
    args = [
        "train", "--data", str(data_dir), "--epochs", "1", "--arch", "2,4,4,8",
        "--lr", rate, "--out", str(tmp_path / "model"),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: learning_rate must be positive and finite\n"


def _tree_copy(data_dir, root, drop=(), rename=None):
    """A copy of the tree without its manifest, minus the ``drop`` classes,
    with class directories renamed by ``rename``."""
    shutil.copytree(data_dir, root)
    (root / "manifest.tsv").unlink()
    for code in drop:
        shutil.rmtree(root / code)
    for path in sorted(root.iterdir()):
        if path.is_dir() and rename:
            path.rename(root / rename(path.name))
    return root


def test_evaluate_library_class_roster_mismatch_exit_2(data_dir, tmp_path, capsys):
    # both used to exit 0, the renamed copy with unseen accuracy 1
    lib = tmp_path / "lib.bin"
    assert main(["build-basis", "--data", str(data_dir), "--out", str(lib)]) == 0
    renamed = _tree_copy(data_dir, tmp_path / "renamed", rename=lambda c: "X" + c[1:])
    fewer = _tree_copy(data_dir, tmp_path / "fewer", drop=["C2"])
    capsys.readouterr()
    for root, code in ((renamed, "C0 (id 0)"), (fewer, "C2 (id 2)")):
        assert main(["evaluate", "--data", str(root), "--library", str(lib)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: library class {code} is not a class of the dataset\n"
    # and a library without one of the dataset's classes
    small = tmp_path / "small.bin"
    assert main(["build-basis", "--data", str(fewer), "--out", str(small)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data_dir), "--library", str(small)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: evaluated class C2 (id 2) has no basis in library {small}\n"


def test_evaluate_library_frame_shape_mismatch_exit_2(data_dir, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "classes=3\nframes=36\nside=8\nrank=3\nnoise=0.1\nseed=9\n",
        encoding="utf-8",
    )
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "eight")]) == 0
    lib = tmp_path / "lib.bin"
    args = ["--data", str(tmp_path / "eight"), "--rank", "2", "--out", str(lib)]
    assert main(["build-basis", *args]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data_dir), "--library", str(lib)]) == 2
    err = capsys.readouterr().err
    assert err == "error: library frame shape (8, 8) does not match dataset (16, 16)\n"


def test_spectrum_degenerate_class_writes_no_factors(data_dir, tmp_path, capsys):
    root = tmp_path / "flat"
    shutil.copytree(data_dir, root)  # with the manifest: the same split
    frames = sorted((root / "C0").glob("*/*.pgm"))
    for path in frames[1:]:
        shutil.copyfile(frames[0], path)
    out = tmp_path / "factors"
    assert main(["spectrum", "--data", str(root), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "C0: degenerate ensemble, canonical basis\n" in captured.out
    lines = (root / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    trained = sum(line.startswith("train\tC0\t") for line in lines)
    assert captured.err == (
        f"warning: class C0: all {trained} frames identical; "
        "using canonical one-mode basis\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["C1.factors", "C2.factors"]


@pytest.mark.parametrize(
    "command",
    [
        "evaluate",
        "project",
        "experiment",
        "build-basis",
        "spectrum",
        "train",
        "ingest-check",
    ],
)
def test_class_missing_from_train_exit_3(
    data_dir, tmp_path, capsys, monkeypatch, command
):
    # evaluate used to score 0.667 with exit 0; project and experiment
    # exited 2 with a bare "no basis for class id 2"; spectrum, train and
    # ingest-check exited 0, train scoring a network that never saw C2.
    # The split refuses it, before any class is fitted or network trained.
    def never(*args, **kwargs):
        raise AssertionError("fitted or trained a split missing a train class")

    monkeypatch.setattr(basis, "fit_class", never)
    monkeypatch.setattr(convnet, "train", never)
    lines = (data_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{line}\n" for line in lines if not line.startswith("train\tC2\t")),
        encoding="utf-8",
    )
    args = [command, "--data", str(data_dir), "--manifest", str(manifest)]
    if command in ("project", "build-basis", "spectrum", "train"):
        args += ["--out", str(tmp_path / "out")]
    if command in ("experiment", "train"):
        args += ["--epochs", "1", "--arch", "2,4,4,8"]
    if command == "experiment":
        args += ["--runs", "1"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == "error: class C2 is in validation, test, unseen but not in train\n"
    assert not (tmp_path / "out").exists()


def test_project_class_without_train_frames_exit_3_before_writing(
    data_dir, tmp_path, capsys, monkeypatch
):
    # project used to write every sample of C0 and C1, then exit 2 with
    # "no basis for class id 2", leaving a tree with no manifest
    def never(*args, **kwargs):
        raise AssertionError("fitted a split that project cannot write")

    monkeypatch.setattr(basis, "fit_class", never)
    lines = (data_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{line}\n" for line in lines if "\tC2\t" not in line),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["project", "--data", str(data_dir), "--manifest", str(manifest)]
    assert main([*args, "--rank", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: class C2 has no train frames to fit a basis\n"
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["1.5", "nan"])
def test_experiment_bad_tolerance_exit_2_before_reading_data(
    tmp_path, capsys, tolerance
):
    # it used to fail on the missing data (exit 3), or on good data only
    # after every class was fitted
    args = ["experiment", "--data", str(tmp_path / "absent"), "--tolerance", tolerance]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: energy tolerance must be in [0, 1), got {tolerance}\n"


_LR = "learning_rate must be positive and finite"
_SIZES = "epochs and batch_size must be positive"
_CHANNELS = "need three positive channel counts"
_HIDDEN = "need hidden >= 1"
_ONE_RULE = "this subcommand takes a single truncation rule"
_TOLERANCE = "energy tolerance must be in [0, 1), got "


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--lr", "inf"], _LR),
        (["train", "--epochs", "0"], _SIZES),
        (["experiment", "--lr", "inf"], _LR),
        (["experiment", "--batch", "0"], _SIZES),
        (["build-basis", "--tolerance", "1.5"], _TOLERANCE + "1.5"),
        (["build-basis", "--rank", "2", "--gavish"], _ONE_RULE),
        (["project", "--tolerance", "nan"], _TOLERANCE + "nan"),
        (["project", "--rank", "2", "--tolerance", "0.1"], _ONE_RULE),
        (["evaluate", "--tolerance", "-0.1"], _TOLERANCE + "-0.1"),
        (["evaluate", "--rank", "2", "--gavish"], _ONE_RULE),
        (["train", "--arch", "0,4,4,8"], _CHANNELS),
        (["train", "--arch", "4,4,4,0"], _HIDDEN),
        (["experiment", "--arch", "4,-1,4,8"], _CHANNELS),
        (["experiment", "--arch", "4,4,4,-2"], _HIDDEN),
        (["train", "--arch", "a,b,c,d"], "--arch wants four integers, got 'a,b,c,d'"),
        (["experiment", "--runs", "0"], "need at least one run"),
    ],
)
def test_bad_settings_exit_2_before_reading_data(tmp_path, capsys, args, message):
    # each used to fail on the missing data (exit 3), or on good data only
    # after the tree was read (an --arch width only once the network was built)
    out = tmp_path / "out"
    if args[0] in ("train", "build-basis", "project"):
        args = args + ["--out", str(out)]
    assert main(args + ["--data", str(tmp_path / "absent")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_U64 = "is outside [0, 2**64)"


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--seed", str(2**64)], f"seed {2**64} {_U64}"),
        (["train", "--seed", "-1"], f"seed -1 {_U64}"),
        (["experiment", "--seed", "-1"], f"seed -1 {_U64}"),
        (
            ["experiment", "--seed", str(2**64 - 2), "--runs", "3"],
            f"seed {2**64} {_U64}",
        ),
    ],
    ids=["train-2**64", "train-negative", "experiment-negative", "experiment-last"],
)
def test_network_seed_outside_u64_exit_2_before_reading_data(
    tmp_path, capsys, args, message
):
    # train used to train the whole network and then crash with struct.error
    # on saving its seed, leaving an 8-byte checkpoint.bin; experiment fitted
    # every class and then exited 2 naming no flag
    out = tmp_path / "out"
    args = [*args, "--out", str(out), "--data", str(tmp_path / "absent")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_takes_the_largest_u64_seed(data_dir, tmp_path):
    # train builds one network, so only --seed itself must fit in a u64
    out = tmp_path / "model"
    args = ["train", "--data", str(data_dir), "--epochs", "1", "--arch", "2,2,2,2"]
    assert main([*args, "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert load_checkpoint(out / "checkpoint.bin")[0].seed == 2**64 - 1


@pytest.mark.parametrize("command", ["synth", "ingest-check"])
def test_negative_data_seed_exit_2(data_dir, tmp_path, capsys, command):
    # numpy used to refuse it with a bare "expected non-negative integer"
    out = tmp_path / "out"
    args = ["--seed", "-1"]
    if command == "synth":
        args += ["--out", str(out)]
    else:
        args += ["--data", str(_tree_copy(data_dir, tmp_path / "bare"))]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == "error: seed -1 is negative\n"
    assert not out.exists()


def _tree_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_over_a_tree_exit_2_and_leaves_it_as_it_was(tmp_path, capsys):
    # it used to write the new tree over the old: a 3-class spec over a
    # 4-class tree left a fourth class, and samples that mixed new frames
    # with the old spec's
    first, second = tmp_path / "first.spec", tmp_path / "second.spec"
    first.write_text("classes=4\nframes=40\nside=8\nrank=2\n", encoding="utf-8")
    second.write_text("classes=3\nframes=24\nside=8\nrank=2\n", encoding="utf-8")
    out = tmp_path / "d"
    assert main(["synth", "--spec", str(first), "--out", str(out)]) == 0
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(["synth", "--spec", str(second), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out} is a directory that is not empty\n"
    assert _tree_bytes(out) == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["synth", "--spec", str(second), "--out", str(empty)]) == 0
    assert sum(len(sample.frames) for sample in load_dataset(empty)) == 3 * 24


def test_project_over_a_tree_exit_2_before_reading_data(data_dir, tmp_path, capsys):
    out = tmp_path / "proj"
    out.mkdir()
    (out / "stale.txt").write_text("x", encoding="utf-8")
    message = f"error: --out {out} is a directory that is not empty\n"
    for data in (tmp_path / "absent", data_dir):
        args = ["project", "--data", str(data), "--rank", "2", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == message
        assert _tree_bytes(out) == {out / "stale.txt": b"x"}
    (out / "stale.txt").unlink()  # an empty directory is taken
    assert main(args) == 0
    manifest = (data_dir / "manifest.tsv").read_bytes()
    assert (out / "manifest.tsv").read_bytes() == manifest


_OUT_REFUSALS = {
    "afile": "--out {out}: {root}/afile is not a directory",
    "adir": "--out {out} is a directory",
    "nodir": "--out {out} is not in an existing directory",
}


@pytest.mark.parametrize(
    "command, out",
    [
        ("synth", "afile"),
        ("synth", "afile/tree"),
        ("project", "afile"),
        ("train", "afile"),
        ("train", "afile/model"),
        ("spectrum", "afile"),
        ("build-basis", "adir"),
        ("build-basis", "nodir/r.bin"),
        ("evaluate", "adir"),
        ("evaluate", "nodir/r.json"),
        ("experiment", "adir"),
        ("experiment", "nodir/r.json"),
    ],
)
def test_bad_out_exit_2_before_any_work(
    data_dir, spec_file, tmp_path, capsys, command, out
):
    # each used to exit 3 with a bare errno message once the work was done:
    # experiment only after every network had trained
    kind, out = out.split("/")[0], tmp_path / out
    message = _OUT_REFUSALS[kind].format(out=out, root=tmp_path)
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)
    net = ["--epochs", "1", "--arch", "2,2,2,2"]
    knobs = {"train": net, "experiment": [*net, "--runs", "1"]}
    args = [command, "--out", str(out), *knobs.get(command, [])]
    if command == "synth":
        runs = [[*args, "--spec", str(spec_file)]]
    else:  # the refusal wins over good data and over missing data
        runs = [[*args, "--data", str(d)] for d in (data_dir, tmp_path / "absent")]
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)) == before


@pytest.mark.parametrize("spelling", ["same", "inside"])
@pytest.mark.parametrize("command", ["train", "spectrum"])
def test_out_at_or_inside_data_exit_2_before_reading_data(
    data_dir, tmp_path, capsys, command, spelling
):
    # spectrum --out data/factors used to exit 0, and every later command on
    # the tree then read factors/ as a class with no samples and exited 3
    root = tmp_path / "data"
    shutil.copytree(data_dir, root)
    before = sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)
    net = {"train": ["--epochs", "1", "--arch", "2,2,2,2"], "spectrum": []}[command]
    for data in (root, tmp_path / "absent"):
        out = data if spelling == "same" else data / "model"
        assert main([command, "--data", str(data), *net, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {out} is the --data directory or inside it\n"
        assert (sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)) == before


def _rename_class(root):
    (root / "C1").rename(root / "A\tB")


def _renumber_from_one(root):
    sample_dir = root / "C0" / "s00"
    for path in sorted(sample_dir.glob("*.pgm"), reverse=True):
        path.rename(sample_dir / f"{int(path.stem) + 1:04d}.pgm")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename_class, "class directory {tab!r}: not UTF-8, or has a tab, CR or LF"),
        (
            _renumber_from_one,
            "sample directory {s00} numbers its frames up to 3, not 0 to 2",
        ),
    ],
    ids=["tab-in-class-name", "frames-from-1"],
)
def test_tree_a_manifest_cannot_name_exit_3_before_writing(
    data_dir, tmp_path, capsys, edit, message
):
    # project used to exit 0 on both: with a tab it wrote a manifest that its
    # own reader refused; from 1 it renumbered every frame from 0
    root = tmp_path / "data"
    shutil.copytree(data_dir, root)
    (root / "manifest.tsv").unlink()  # the split is drawn from --seed
    edit(root)
    message = message.format(tab=str(root / "A\tB"), s00=root / "C0" / "s00")
    before = sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)
    out = tmp_path / "proj"
    assert main(["project", "--data", str(root), "--rank", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (sorted(tmp_path.rglob("*")), _tree_bytes(tmp_path)) == before


@pytest.mark.parametrize(
    "flag", [["--rank", "3"], ["--tolerance", "0.2"], ["--gavish"]]
)
def test_evaluate_library_refuses_truncation_flags(data_dir, tmp_path, capsys, flag):
    # they used to be accepted and ignored
    lib = tmp_path / "lib.bin"
    assert main(["build-basis", "--data", str(data_dir), "--out", str(lib)]) == 0
    capsys.readouterr()
    for data in (data_dir, tmp_path / "absent"):
        args = ["evaluate", "--data", str(data), "--library", str(lib), *flag]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: --library takes no --rank, --tolerance or --gavish\n"
