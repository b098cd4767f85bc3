"""Command-line interface.

Commands: gradcheck, params, synth, train, eval, export-attn. Process exit
codes: 0 success, 2 configuration errors (an ``--out`` that cannot be made
too), 3 data errors, 4 numeric failures, 1 anything else.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, NumericError, StrfError
from .backbone import attention_export
from .config import parse_config, synth_spec_from
from .gradsuite import TOLERANCE, run_suite, suite_passes
from .netpbm import write_pgm
from .synthdata import generate, load_manifest, load_tracklet
from .train import check_out_dir, dataset_manifest, load_eval_network, params_report, run_retrieval, run_training


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strf",
        description="Factorized spatio-temporal attention for video re-identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="verify tape gradients against finite differences")
    p.add_argument("--tolerance", type=float, default=TOLERANCE)

    p = sub.add_parser("params", help="per-layer parameter accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="dataset root directory")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory for logs and checkpoints")
    p.add_argument("--manifest", default=None, help="override [data] manifest")

    p = sub.add_parser("eval", help="retrieval evaluation of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)

    p = sub.add_parser("export-attn", help="write per-frame attention energy maps as PGM")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tracklet", required=True,
                   help="tracklet name (manifest directory, or its last part if that is unique)")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)

    return parser


def _cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance must be a finite positive number, got {args.tolerance}")
    results = run_suite()
    width = max(len(name) for name, _ in results)
    for name, err in results:
        verdict = "PASS" if err <= args.tolerance else "FAIL"
        print(f"{name:<{width}}  {err:12.3e}  {verdict}")
    ok = suite_passes(results, args.tolerance)
    print(f"{'all gradients verified' if ok else 'GRADIENT CHECK FAILED'} (tolerance {args.tolerance:g})")
    return 0 if ok else 1


def _cmd_params(args) -> int:
    report = params_report(parse_config(args.config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    return 0


def _cmd_synth(args) -> int:
    cfg = parse_config(args.config)
    manifest = generate(synth_spec_from(cfg.data), args.out)
    print(f"wrote {len(manifest.records)} tracklets under {args.out}")
    print(f"manifest: {manifest.path}")
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    summary = run_training(cfg, args.out, manifest=args.manifest)
    print(
        f"trained {summary['steps']} steps on {summary['classes']} identities; "
        f"final ce={summary['ce']:.4f} triplet={summary['triplet']:.4f} total={summary['total']:.4f}"
    )
    print(f"checkpoint: {summary['checkpoint']}")
    print(f"log: {summary['log']}")
    return 0


def _cmd_eval(args) -> int:
    cfg = parse_config(args.config)
    result = run_retrieval(cfg, args.checkpoint, args.out, manifest=args.manifest)
    ranks = " ".join(f"rank-{k}={result.rank_k(k):.4f}" for k in cfg.eval.ranks)
    print(f"mAP={result.mean_ap:.4f} {ranks} (counted {result.counted}, skipped {result.skipped})")
    print(f"reports in {args.out}")
    return 0


def _cmd_export_attn(args) -> int:
    cfg = parse_config(args.config)
    manifest_path = dataset_manifest(cfg, args.manifest)
    check_out_dir(args.out)
    records = load_manifest(manifest_path)
    matches = [r for r in records if args.tracklet in (r.directory, os.path.basename(r.directory))]
    if not matches:
        known = ", ".join(r.directory for r in records[:5])
        raise DataError(f"tracklet {args.tracklet!r} is not in the manifest (known: {known}, ...)")
    if len(matches) > 1:
        candidates = ", ".join(r.directory for r in matches)
        raise DataError(f"tracklet {args.tracklet!r} is ambiguous; it matches {candidates}")
    tracklet = load_tracklet(manifest_path, matches[0], cfg.data.norm_mean, cfg.data.norm_std)
    net = load_eval_network(cfg, args.checkpoint)
    clip = tracklet.frames.transpose(1, 0, 2, 3)
    maps = attention_export(net, clip, args.stage)
    os.makedirs(args.out, exist_ok=True)
    safe = tracklet.name.replace(os.sep, "_")
    for frame in range(maps.shape[0]):
        image = np.rint(maps[frame] * 255.0).astype(np.uint8)
        write_pgm(os.path.join(args.out, f"{safe}_{args.stage}_{frame:05d}.pgm"), image)
    print(f"wrote {maps.shape[0]} maps to {args.out}")
    return 0


_COMMANDS = {
    "gradcheck": _cmd_gradcheck,
    "params": _cmd_params,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "export-attn": _cmd_export_attn,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--tolerance" in argv[:-1]:
        # argparse takes a value such as "-inf" for an option; joined to its
        # flag, it reaches the tolerance check
        at = argv.index("--tolerance")
        argv[at:at + 2] = ["--tolerance=" + argv[at + 1]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # exit 2 when the --out given, or a directory above it, cannot be made
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        named, out = os.path.abspath(exc.filename), getattr(args, "out", None)
        at_out = out is not None and os.path.commonpath([os.path.abspath(out), named]) == named
        print(f"{'config error' if at_out else 'error'}: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2 if at_out else 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except StrfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
