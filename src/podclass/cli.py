"""Command-line front end.

Subcommands cover the full workflow: synthesize a dataset, sanity-check
an ingested tree, build and inspect per-class bases, project a dataset
through them, train the network, score the subspace baseline, and run
the complete multi-arm experiment.

Exit codes: 0 success, 2 bad configuration or arguments, 3 unreadable or
malformed data, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import convnet
from .basis import (
    BasisLibrary,
    fit_classes,
    library_from_fits,
    load_library,
    project_pairs,
    save_factors,
    save_library,
)
from .dataset import (
    PARTITIONS,
    DatasetSplit,
    Sample,
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    group_by_class,
    load_dataset,
    partition_arrays,
    split_dataset,
    split_from_manifest,
    write_manifest,
    write_samples,
)
from .errors import ConfigError, DataError, NumericError
from .experiment import (
    EVAL_PARTITIONS,
    ExperimentConfig,
    baseline_report,
    render_report,
    run_experiment,
    save_report,
    train_and_score,
)
from .svd import TruncationRule

MANIFEST_NAME = "manifest.tsv"


def _parse_arch(text: str) -> tuple[tuple[int, int, int], int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--arch wants c1,c2,c3,hidden, got {text!r}")
    try:
        c1, c2, c3, hidden = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--arch wants four integers, got {text!r}") from exc
    return (c1, c2, c3), hidden


def _network_config(args, **fields) -> ExperimentConfig:
    """The network knobs of ``train`` and ``experiment`` (plus ``fields``)."""
    channels, hidden = _parse_arch(args.arch)
    return ExperimentConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        channels=channels,
        hidden=hidden,
        **fields,
    )


def _rules(args) -> tuple[TruncationRule, ...]:
    rules = [TruncationRule(rank=r) for r in args.rank or []]
    rules += [TruncationRule(tolerance=t) for t in args.tolerance or []]
    if args.gavish or not rules:
        rules.append(TruncationRule())
    return tuple(rules)


def _rule(args) -> TruncationRule:
    """The one truncation rule of ``build-basis``, ``project`` and ``evaluate``."""
    rules = _rules(args)
    if len(rules) > 1:
        raise ConfigError("this subcommand takes a single truncation rule")
    return rules[0]


def _train_library(split: DatasetSplit, rule: TruncationRule) -> BasisLibrary:
    """The library of the train partition under ``rule``."""
    meta = split.metadata
    source = f"train partition of {meta.view}"
    return library_from_fits(fit_classes(split.train), meta.frame_shape, rule, source)


def _saved_library(path: str, split: DatasetSplit) -> BasisLibrary:
    """The library at ``path``, refused unless it has the split's frame shape,
    no class outside the split's and a basis for every evaluated class."""
    library = load_library(path)
    meta = split.metadata
    if library.frame_shape != meta.frame_shape:
        raise ConfigError(
            f"library frame shape {library.frame_shape} does not match "
            f"dataset {meta.frame_shape}"
        )
    based = {basis.label for basis in library.bases}
    evaluated = {label for n in EVAL_PARTITIONS for _, label in split.partition(n)}
    for labels, what, problem in (
        (based - set(meta.classes), "library", "is not a class of the dataset"),
        (evaluated - based, "evaluated", f"has no basis in library {path}"),
    ):
        if labels:
            label = min(labels, key=lambda label: label.id)
            raise ConfigError(f"{what} class {label.code} (id {label.id}) {problem}")
    return library


def _load_split(args) -> tuple[list[Sample], DatasetSplit]:
    """Samples and their split: the manifest's, or one drawn by ``--seed``. A
    caller that needs only the split keeps ``[1]``: unsplit frames are freed."""
    samples = load_dataset(args.data)
    named = args.manifest is not None  # a named manifest must exist
    manifest = Path(args.manifest) if named else Path(args.data) / MANIFEST_NAME
    view = Path(args.data).name
    if named or manifest.is_file():
        return samples, split_from_manifest(samples, manifest, view=view)
    policy = SplitPolicy.for_samples(samples)
    return samples, split_dataset(samples, policy, seed=args.seed, view=view)


def _add_data_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="dataset root directory")
    sub.add_argument(
        "--manifest",
        help=f"split manifest path (default: <data>/{MANIFEST_NAME} when present)",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed (default 0)")


def _add_rule_options(sub: argparse.ArgumentParser, repeatable: bool) -> None:
    sub.add_argument(
        "--rank",
        type=int,
        action="append",
        help="fixed truncation rank" + (" (repeatable)" if repeatable else ""),
    )
    sub.add_argument(
        "--tolerance",
        type=float,
        action="append",
        help="relative energy tolerance" + (" (repeatable)" if repeatable else ""),
    )
    sub.add_argument(
        "--gavish",
        action="store_true",
        help="hard-threshold rank selection (default when no rule is given)",
    )


def _add_train_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, default=80)
    sub.add_argument("--batch", type=int, default=128)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument(
        "--arch",
        default="32,64,64,128",
        help="channels and hidden width as c1,c2,c3,hidden",
    )


def _print_split_counts(split: DatasetSplit) -> None:
    counts = split.counts()
    print("split frames: " + " ".join(f"{n}={counts[n]}" for n in sorted(counts)))


def _check_out(args, kind: str) -> None:
    """Refuse a bad ``--out`` before any data is read or generated. A "file"
    goes into an existing directory; a "dir" is made with its parents, outside
    ``--data``, which would read it as a class; a "tree" is an empty dir:
    written over another tree, it would keep that one's stale frames."""
    if args.out is None:
        return
    out = Path(args.out)
    if kind == "file":
        if out.is_dir():
            raise ConfigError(f"--out {out} is a directory")
        if not out.parent.is_dir():
            raise ConfigError(f"--out {out} is not in an existing directory")
        return
    # made with its parents, so the nearest path that exists must be a directory
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    if hasattr(args, "data"):  # every command but synth
        data, target = Path(args.data).resolve(), out.resolve()
        if target == data or data in target.parents:
            raise ConfigError(f"--out {args.out} is the --data directory or inside it")
    if kind == "tree" and out.is_dir() and any(out.iterdir()):
        raise ConfigError(f"--out {out} is a directory that is not empty")


def cmd_synth(args) -> int:
    spec = (
        SyntheticSpec.from_config_file(args.spec) if args.spec else SyntheticSpec()
    )
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    _check_out(args, "tree")
    out = Path(args.out)
    samples = generate_synthetic(spec)
    write_samples(samples, out)
    policy = SplitPolicy.for_samples(samples)
    split = split_dataset(samples, policy, seed=spec.seed)
    write_manifest(split, out / MANIFEST_NAME)
    (out / "spec.txt").write_text(spec.to_config_text(), encoding="utf-8")
    print(f"wrote {len(samples)} samples under {out}")
    _print_split_counts(split)
    return 0


def cmd_ingest_check(args) -> int:
    samples, split = _load_split(args)
    by_class = group_by_class(samples)
    shape = split.metadata.frame_shape
    print(f"classes: {len(by_class)}")
    for label, group in by_class.items():
        frames = sum(len(s.frames) for s in group)
        print(f"  {label.code}: {len(group)} samples, {frames} frames")
    print(f"frame shape: {shape[0]}x{shape[1]}")
    _print_split_counts(split)
    print("ok")
    return 0


def cmd_build_basis(args) -> int:
    rule = _rule(args)
    _check_out(args, "file")
    split = _load_split(args)[1]
    library = _train_library(split, rule)
    save_library(library, args.out)
    for basis in library.bases:
        print(f"{basis.label.code}: rank {basis.rank}")
    for note in library.provenance["warnings"]:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    _check_out(args, "dir")
    split = _load_split(args)[1]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for fit in fit_classes(split.train):
        code = fit.label.code
        basis, notes = fit.basis()
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        if fit.svd is None:
            print(f"{code}: degenerate ensemble, canonical basis")
            continue
        lead = " ".join(f"{v:.4g}" for v in fit.svd.values[:6])
        print(
            f"{code}: frames={fit.shape[1]} rank={fit.svd.rank} "
            f"kept={basis.rank} leading sigma: {lead}"
        )
        if out_dir is not None:
            save_factors(fit.svd, out_dir / f"{code}.factors")
    if out_dir is not None:
        print(f"wrote factors under {out_dir}")
    return 0


def cmd_project(args) -> int:
    _check_out(args, "tree")
    out = Path(args.out)
    rule = _rule(args)
    samples, split = _load_split(args)
    trained = {label for _, label in split.train}  # every class is projected
    if missing := [c.code for c in split.metadata.classes if c not in trained]:
        raise DataError(f"class {missing[0]} has no train frames to fit a basis")
    library = _train_library(split, rule)
    for s in samples:  # one sample's projections in memory at a time
        pairs = project_pairs(library, [(frame, s.label) for frame in s.frames])
        write_samples([Sample(s.label, s.sample_id, [im for im, _ in pairs])], out)
    write_manifest(split, out / MANIFEST_NAME)  # the split the bases were fitted on
    ranks = " ".join(f"{b.label.code}={b.rank}" for b in library.bases)
    print(f"projected dataset written to {out} (ranks: {ranks})")
    return 0


def cmd_train(args) -> int:
    config = _network_config(args, runs=1)  # one network, from --seed
    _check_out(args, "dir")
    split = _load_split(args)[1]
    arch = config.architecture(split.metadata)
    data = {n: partition_arrays(p) for n in PARTITIONS if (p := split.partition(n))}
    result, scores = train_and_score(
        arch, data, config.train_config(), validate_every_epoch=True
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    convnet.save_checkpoint(result.arch, result.params, out / "checkpoint.bin")
    save_report(result.history, out / "history.json")
    save_report(scores, out / "evaluation.json")
    last = result.history[-1]
    print(
        f"epochs={args.epochs} final train accuracy {last['train_accuracy']:.3g}"
    )
    for name, value in scores.items():
        print(f"{name} accuracy {value:.3g}")
    print(f"checkpoint and logs under {out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.library and (args.rank or args.tolerance or args.gavish):
        raise ConfigError("--library takes no --rank, --tolerance or --gavish")
    rule = None if args.library else _rule(args)
    _check_out(args, "file")
    split = _load_split(args)[1]
    if rule is None:
        library = _saved_library(args.library, split)
    else:
        library = _train_library(split, rule)
    report = baseline_report(library, split)
    for name, section in report.items():
        print(f"{name} accuracy {section['accuracy']:.3g}")
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    config = _network_config(args, rules=_rules(args), runs=args.runs)
    _check_out(args, "file")
    split = _load_split(args)[1]
    report = run_experiment(split, config)
    for row in report["summary"]:
        print(row)
    notes = [note for arm in report["arms"].values() for note in arm["warnings"]]
    for note in dict.fromkeys(notes):
        print(f"warning: {note}", file=sys.stderr)
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(render_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podclass",
        description="Per-class subspace preprocessing and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="key=value spec file (defaults when omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", help="validate a dataset tree and its split")
    _add_data_options(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("build-basis", help="build a per-class basis library")
    _add_data_options(p)
    _add_rule_options(p, repeatable=False)
    p.add_argument("--out", required=True, help="library file to write")
    p.set_defaults(func=cmd_build_basis)

    p = sub.add_parser("spectrum", help="inspect per-class singular spectra")
    _add_data_options(p)
    p.add_argument("--out", help="directory for per-class factor files")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("project", help="project a dataset through class bases")
    _add_data_options(p)
    _add_rule_options(p, repeatable=False)
    p.add_argument("--out", required=True, help="projected dataset directory")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("train", help="train the convolutional classifier")
    _add_data_options(p)
    _add_train_options(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the nearest-subspace baseline")
    _add_data_options(p)
    _add_rule_options(p, repeatable=False)
    p.add_argument("--library", help="use a saved library instead of building one")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full multi-arm protocol")
    _add_data_options(p)
    _add_rule_options(p, repeatable=True)
    p.add_argument("--runs", type=int, default=5)
    _add_train_options(p)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
