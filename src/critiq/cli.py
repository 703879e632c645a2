"""Command-line surface.

Subcommands: pretrain, adapt, zsl, caption, eval, synth, export-prompts.
Exit codes: 0 success, 1 usage error, 2 runtime failure. Every output path
is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import TrainConfig
from .synth import SynthSpec, generate_synthetic_corpus
from .util import write_atomic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="critiq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=512)
    p.add_argument("--image-size", type=int, default=40)
    p.add_argument("--comments-min", type=int, default=2)
    p.add_argument("--comments-max", type=int, default=4)
    p.add_argument("--mos-noise", type=float, default=0.25)

    p = sub.add_parser("pretrain", help="contrastive + generative pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--log", default=None, help="run log output path (JSON lines)")

    p = sub.add_parser("adapt", help="rank-adapter finetuning on a frozen backbone")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True, help="frozen backbone checkpoint")
    p.add_argument("--out", required=True, help="adapter output path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None)

    p = sub.add_parser("zsl", help="zero-shot scores, one line per image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", default="iaa", choices=("iaa", "style"))
    p.add_argument("--mode", default="ensemble", choices=("single", "ensemble"))
    p.add_argument("--prompt-cache", default=None)

    p = sub.add_parser("caption", help="greedy captions, one line per image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, default=16)

    p = sub.add_parser("eval", help="run evaluation tasks and write a report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", required=True,
                   help="comma-separated subset of iaa,zsl-iaa,zsl-style,caption")
    p.add_argument("--adapter", default=None)
    p.add_argument("--mode", default="ensemble", choices=("single", "ensemble"))
    p.add_argument("--prompt-cache", default=None)

    p = sub.add_parser("export-prompts", help="cache prompt-bank embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    return parser


def _run(args) -> int:
    if args.command == "synth":
        spec = SynthSpec(count=args.count, image_size=args.image_size,
                         comments_min=args.comments_min, comments_max=args.comments_max,
                         mos_noise=args.mos_noise)
        manifest = generate_synthetic_corpus(spec, args.out, args.seed)
        print(f"wrote {spec.count} images and {manifest}")
        return 0

    if args.command == "pretrain":
        from .train import pretrain
        cfg = TrainConfig.load(args.config)
        if cfg.stage != "pretrain":
            raise ValueError(f"config stage is {cfg.stage!r}, expected 'pretrain'")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        _, log, _ = pretrain(cfg, args.manifest, args.out, resume_from=args.resume)
        if args.log:
            log.save(args.log)
        print(f"pretrained {cfg.steps} steps -> {args.out}")
        return 0

    if args.command == "adapt":
        from .train import adapter_finetune
        cfg = TrainConfig.load(args.config)
        if cfg.stage != "adapt":
            raise ValueError(f"config stage is {cfg.stage!r}, expected 'adapt'")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        _, log, info = adapter_finetune(cfg, args.manifest, args.checkpoint, args.out)
        if args.log:
            log.save(args.log)
        print(f"adapter trained -> {args.out}")
        print(f"tunable parameters: {info['tunable_params']} of "
              f"{info['backbone_params']} ({info['tunable_fraction']:.4%})")
        return 0

    if args.command == "zsl":
        from .train import zsl_score_lines
        body = zsl_score_lines(args.checkpoint, args.manifest, task=args.task,
                               mode=args.mode, prompt_cache=args.prompt_cache)
        write_atomic(args.out, body.encode("utf-8"))
        print(f"wrote scores -> {args.out}")
        return 0

    if args.command == "caption":
        from .train import caption_images, load_backbone, load_records
        params, vocab = load_backbone(args.checkpoint)[:2]
        records = load_records(args.manifest)
        captions = caption_images(params, vocab, records, args.manifest, args.max_len)
        lines = [f"{rec.id}\t{caption}" for rec, caption in zip(records, captions)]
        write_atomic(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
        print(f"wrote captions -> {args.out}")
        return 0

    if args.command == "eval":
        from .train import evaluate
        tasks = [t.strip() for t in args.task.split(",") if t.strip()]
        report, _ = evaluate(args.checkpoint, args.manifest, tasks,
                             adapter_path=args.adapter, mode=args.mode,
                             prompt_cache=args.prompt_cache)
        write_atomic(args.out, report.encode("utf-8"))
        print(report, end="")
        return 0

    if args.command == "export-prompts":
        from .train import export_prompt_cache
        count = export_prompt_cache(args.checkpoint, args.out)
        print(f"cached {count} prompt embeddings -> {args.out}")
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
