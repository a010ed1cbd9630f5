"""Command-line experiment runner.

Subcommands: ``run`` (one experiment from a JSON config; flags replace
file values before the config is parsed), ``explain`` (top stems of a
term-space tree model), ``compare`` (several configs, one table), ``stem``
(debug single-string preprocessing), ``svd-check`` (truncated SVD vs a
dense oracle on a MatrixMarket file). Exit codes: 0 success, 1 pipeline
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import pipeline
from .exceptions import ConfigError, CtfidfError
from .irlba import irlba
from .preprocess import preprocess_corpus, tokenize

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctfidf",
        description="Spam-text classification experiments with clement "
                    "TF-IDF weighting and Lanczos truncated SVD.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--weighting", choices=["tfidf", "ctfidf"])
    run.add_argument("--reduce", choices=["none", "irlba"])
    run.add_argument("--k", help="number of singular vectors")
    run.add_argument("--model", choices=["dtree", "svm"])
    run.add_argument("--seed", help="master seed: sets split.seed, reduce.seed "
                                    "and model.hyperparameters.seed")
    run.add_argument("--train-frac")
    run.add_argument("--folds")
    run.add_argument("--positive-label")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=_cmd_run)

    explain = sub.add_parser("explain",
                             help="rank influential stems of a tree model")
    explain.add_argument("model", help="path to a model.json")
    explain.add_argument("--top", type=int, default=10)
    explain.add_argument("--json", dest="json_out",
                         help="also write the ranking to this file")
    explain.set_defaults(func=_cmd_explain)

    comp = sub.add_parser("compare", help="run several configs, one table")
    comp.add_argument("configs", nargs="+", help="config JSON paths")
    comp.add_argument("--json", dest="json_out")
    comp.set_defaults(func=_cmd_compare)

    stem = sub.add_parser("stem", help="show preprocessing of one string")
    stem.add_argument("text")
    stem.set_defaults(func=_cmd_stem)

    svd = sub.add_parser("svd-check",
                         help="truncated SVD self-check on a MatrixMarket file")
    svd.add_argument("matrix", help="MatrixMarket file")
    svd.add_argument("--k", type=int, default=10)
    svd.add_argument("--tol", type=float, default=1e-8)
    svd.add_argument("--seed", type=int, default=0)
    svd.add_argument("--oracle-limit", type=int, default=1500,
                     help="max min(m,n) for the dense SVD cross-check")
    svd.set_defaults(func=_cmd_svd_check)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The run flags given, by the dotted JSON config key each replaces."""
    flags = {"weighting": args.weighting,
             "reduce.enabled": (None if args.reduce is None
                                else args.reduce == "irlba"),
             "reduce.k": args.k, "model.kind": args.model,
             "split.trainFraction": args.train_frac,
             "split.seed": args.seed, "reduce.seed": args.seed,
             "model.hyperparameters.seed": args.seed,
             "cvFolds": args.folds, "positiveLabel": args.positive_label,
             "outputDir": args.out}
    return {key: value for key, value in flags.items() if value is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = pipeline.load_config(args.config, _overrides(args))
    report = pipeline.run_experiment(cfg)
    m = report.metric
    print(f"precision={m.precision:.4f} recall={m.recall:.4f} "
          f"f1={m.f1:.4f} balanced_accuracy={m.balanced_accuracy:.4f}")
    reduce_part = (f"reduce_time={report.reduce_time_ms}ms "
                   if report.reduce_time_ms is not None else "")
    print(f"train_time={report.train_time_ms}ms {reduce_part}"
          f"report={Path(cfg.output_dir) / 'report.json'}")
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    ranking = pipeline.explain(args.model, args.top)
    for name, imp in ranking:
        print(f"{imp:8.4f}  {name}")
    if args.json_out:
        doc = {"ranking": [{"featureName": name, "importance": imp}
                           for name, imp in ranking]}
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n",
                                       encoding="utf-8")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = pipeline.compare(args.configs)
    print(pipeline.comparison_table(rows))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(rows, indent=2) + "\n",
                                       encoding="utf-8")
    return EXIT_PIPELINE if any(r.get("error") for r in rows) else EXIT_OK


def _cmd_stem(args: argparse.Namespace) -> int:
    payload = {"text": args.text, "tokens": tokenize(args.text),
               "stems": list(preprocess_corpus([args.text])[0].stems)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_svd_check(args: argparse.Namespace) -> int:
    from scipy.io import mmread

    try:
        A = sp.csr_matrix(mmread(args.matrix))
        if np.iscomplexobj(A):
            raise ValueError("complex entries; svd-check reads a real matrix")
    except ValueError as exc:
        raise CtfidfError(f"{args.matrix}: {exc}") from exc
    m, n = A.shape
    k = min(args.k, min(m, n) - 1)
    factors = irlba(A, k, tol=args.tol, seed=args.seed)
    orth_u = float(np.abs(factors.U.T @ factors.U - np.eye(k)).max())
    orth_v = float(np.abs(factors.V.T @ factors.V - np.eye(k)).max())
    res = float(np.linalg.norm(A.T @ factors.U - factors.V * factors.s,
                               axis=0).max())
    print(f"matrix {m}x{n}, k={k}, restarts={factors.restarts}")
    print(f"orthonormality: U {orth_u:.2e}, V {orth_v:.2e}")
    print(f"worst residual: {res:.2e} (tol*s1 = {args.tol * factors.s[0]:.2e})")
    ok = (orth_u <= 1e-8 and orth_v <= 1e-8
          and res <= args.tol * factors.s[0] + 1e-30)
    if min(m, n) <= args.oracle_limit:
        sv = np.linalg.svd(np.asarray(A.todense()), compute_uv=False)[:k]
        rel = float((np.abs(factors.s - sv)
                     / np.maximum(sv, np.finfo(float).tiny)).max())
        print(f"dense oracle: max relative singular-value error {rel:.2e}")
        ok = ok and rel <= 1e-6
    else:
        print("dense oracle skipped (matrix too large)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_PIPELINE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CtfidfError, OSError) as exc:
        stage = getattr(exc, "stage", None)
        where = f" [stage {stage}]" if stage else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
