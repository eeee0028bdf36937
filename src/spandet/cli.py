"""Command-line surface: dataset generation/conversion, embedding
precomputation, training, prediction, and evaluation.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
`predict` names each record it cannot read or fit on stderr, skips it, writes
every other record, and exits 2 if it skipped any.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as D
from . import metrics as M
from .geometry import cw_to_span
from .model import ModelConfig, load_detector
from .textproc import load_features, tokenize, write_embedding_file
from .training import LossWeights, NumericalError, TrainConfig, check_max_tokens, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _check_out_dir(path: Path, overwrite: bool) -> None:
    if path.exists() and any(path.iterdir()) and not overwrite:
        raise ValueError(f"{path} exists and is not empty; pass --overwrite to replace it")
    path.mkdir(parents=True, exist_ok=True)


def _check_out_file(path: Path, overwrite: bool) -> None:
    if path.exists() and not overwrite:
        raise ValueError(f"{path} exists; pass --overwrite to replace it")
    path.parent.mkdir(parents=True, exist_ok=True)


def _load_samples(dataset: str, split: str) -> list[D.AnnotatedText]:
    p = Path(dataset)
    if p.is_dir():
        return getattr(D.load_split(p), split)
    return D.load_annotations(p)


def _provider_for(dataset: str, embeddings: str | None):
    if embeddings is not None:
        emb_dir = Path(embeddings)

        def provide(sample):
            try:
                return load_features(emb_dir / f"{sample.id}.emb", sample.text)
            except (ValueError, OSError) as e:
                raise ValueError(f"record {sample.id}: {e}") from e

        return provide
    p = Path(dataset)
    meta_path = p / "meta.json" if p.is_dir() else None
    if meta_path is None or not meta_path.exists():
        raise ValueError("no --embeddings given and the dataset has no meta.json "
                         "describing a toy provider")
    return D.synthetic_provider(json.loads(meta_path.read_text()))


# -- commands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = D.SynthSpec(n_texts=args.n, style=args.style,
                       n_sentences=args.sentences, signal=args.signal,
                       embed_dim=args.dim, embed_seed=args.embed_seed)
    out = Path(args.out)
    _check_out_dir(out, args.overwrite)
    split = D.synth_generate(spec, seed=args.seed)
    D.save_split(out, split)
    print(f"wrote {len(split.train)}/{len(split.val)}/{len(split.test)} "
          f"train/val/test texts to {out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    out = Path(args.out)
    _check_out_file(out, args.overwrite)
    items = []
    skipped = 0
    with open(args.input, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                text_id = str(rec.get("id", f"{args.format}-{lineno:06d}"))
                if args.format == "roft":
                    item = D.roft_to_intervals(rec["sentences"], int(rec["boundary"]),
                                               text_id, rec.get("domain"))
                elif args.format == "tribert":
                    item = D.tribert_to_intervals(rec["sentences"],
                                                  [int(b) for b in rec["boundaries"]],
                                                  rec.get("first_author", "human"),
                                                  text_id, rec.get("domain"))
                else:
                    item = D.coauthor_to_intervals(rec["text"], rec["machine_spans"],
                                                   text_id, rec.get("domain"))
                items.append(item)
            except (KeyError, TypeError, ValueError) as e:
                if args.strict:
                    raise ValueError(f"{args.input}:{lineno}: {e}") from e
                skipped += 1
                print(f"warning: {args.input}:{lineno}: skipped ({e})", file=sys.stderr)
    D.save_annotations(out, items)
    hist: dict[int, int] = {}
    for it in items:
        hist[len(it.intervals)] = hist.get(len(it.intervals), 0) + 1
    print(f"converted {len(items)} texts ({skipped} skipped) to {out}")
    for count in sorted(hist):
        print(f"  {count} interval(s): {hist[count]} texts")
    return EXIT_OK


def cmd_embed(args) -> int:
    out = Path(args.out)
    _check_out_dir(out, args.overwrite)
    provider = _provider_for(args.dataset, None)
    total = 0
    for split in ("train", "val", "test"):
        for sample in _load_samples(args.dataset, split):
            vectors, _ = provider(sample)
            tk = tokenize(sample.text)
            write_embedding_file(out / f"{sample.id}.emb", vectors, tk.offsets,
                                 provenance="toy", text=sample.text)
            total += 1
    print(f"wrote {total} embedding files to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run_dir = Path(args.out)
    _check_out_dir(run_dir, args.overwrite)
    invocation = {k: v for k, v in vars(args).items() if k != "func"}
    (run_dir / "invocation.json").write_text(
        json.dumps(invocation, indent=2, sort_keys=True) + "\n")
    split = D.load_split(args.dataset)
    provider = _provider_for(args.dataset, args.embeddings)
    if not split.train:
        raise ValueError("dataset has no training split")
    d_model = provider(split.train[0])[0].shape[1]
    model_cfg = ModelConfig(d_model=d_model, hidden=args.hidden,
                            enc_layers=args.enc_layers, dec_layers=args.dec_layers,
                            heads=args.heads, num_queries=args.queries,
                            max_tokens=args.max_tokens, dn_groups=args.dn_groups)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                            lr=args.lr, seed=args.seed)
    result = train(split, provider, model_cfg, train_cfg, LossWeights(), run_dir)
    last = result.log[-1]
    print(f"trained {args.epochs} epochs; best val loss "
          f"{result.best_val:.4f} at epoch {result.best_epoch}; "
          f"final train total {last['train'].get('total', float('nan')):.4f}")
    print(f"checkpoints and logs in {run_dir}")
    return EXIT_OK


def cmd_predict(args) -> int:
    out = Path(args.out)
    _check_out_file(out, args.overwrite)
    model = load_detector(args.checkpoint)
    samples = _load_samples(args.dataset, args.split)
    provider = _provider_for(args.dataset, args.embeddings)
    records = []
    skipped = 0
    for sample in samples:
        try:
            vectors, positions = provider(sample)
            check_max_tokens(sample.id, len(vectors), model.cfg.max_tokens)
        except ValueError as e:  # one bad record must not abort the run
            print(f"error: {e} (skipped)", file=sys.stderr)
            skipped += 1
            continue
        pred = model.predict(vectors, positions)
        spans = [cw_to_span(iv, len(sample.text)) for iv in pred.intervals]
        records.append({"id": sample.id,
                        "intervals": [[sp.x1, sp.x2] for sp in spans],
                        "scores": [round(s, 6) for s in pred.scores]})
    D.save_predictions(out, records)
    print(f"wrote {len(records)} prediction records to {out}; {skipped} skipped")
    return EXIT_USAGE if skipped else EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _check_out_file(out, args.overwrite)
    samples = _load_samples(args.dataset, args.split)
    preds = D.load_predictions(args.predictions)
    report = M.evaluate_detection(samples, preds, k=args.k,
                                  score_threshold=args.threshold,
                                  overlap_threshold=args.overlap_threshold)
    config = {"dataset": args.dataset, "split": args.split,
              "predictions": args.predictions, "k": args.k,
              "score_threshold": args.threshold,
              "overlap_threshold": args.overlap_threshold}
    if out is not None:
        M.write_metric_report(out, report, config)
        print(f"wrote metric report to {out}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spandet",
        description="Detect machine-generated intervals in mixed-authorship text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--style", choices=["roft", "binary", "multi"], default="roft")
    p.add_argument("--sentences", type=int, default=10)
    p.add_argument("--signal", type=float, default=5.0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embed-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("convert", help="convert third-party annotations")
    p.add_argument("--format", choices=["roft", "coauthor", "tribert"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on the first malformed row instead of skipping")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("embed", help="precompute embedding files for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train the interval detector")
    p.add_argument("--dataset", required=True)
    p.add_argument("--embeddings", help="directory of precomputed .emb files")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--queries", type=int, default=1)
    p.add_argument("--epochs", type=int, default=75)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--enc-layers", type=int, default=3)
    p.add_argument("--dec-layers", type=int, default=3)
    p.add_argument("--dn-groups", type=int, default=5)
    p.add_argument("--max-tokens", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit per-text intervals from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against annotations")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--overlap-threshold", type=float, default=0.94)
    p.add_argument("--out")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError, KeyError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
