"""Command-line interface.

Commands: gradcheck, params, synth, train, eval, export-attn. Process exit
codes: 0 success, 2 configuration errors, 3 data errors, 4 numeric failures,
1 anything else that the library flagged.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, NumericError, StrfError
from .backbone import attention_export
from .config import parse_config
from .gradsuite import TOLERANCE, run_suite, suite_passes
from .netpbm import write_pgm
from .synthdata import load_tracklets
from .train import load_eval_network, params_report, run_retrieval, run_training


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
    p.add_argument("--tracklet", required=True, help="tracklet name (manifest directory)")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)

    return parser


def _cmd_gradcheck(args) -> int:
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
    from .config import synth_spec_from
    from .synthdata import generate

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
    manifest_path = args.manifest or cfg.data.manifest
    if not manifest_path:
        raise ConfigError("no dataset manifest configured; set [data] manifest or pass --manifest")
    pool = []
    for split in ("train", "query", "gallery"):
        pool.extend(load_tracklets(manifest_path, split, cfg.data.norm_mean, cfg.data.norm_std))
    matches = [t for t in pool if t.name == args.tracklet or os.path.basename(t.name) == args.tracklet]
    if not matches:
        known = ", ".join(t.name for t in pool[:5])
        raise DataError(f"tracklet {args.tracklet!r} is not in the manifest (known: {known}, ...)")
    tracklet = matches[0]
    net = load_eval_network(cfg, args.checkpoint, manifest_path)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
