"""Command-line entry point.

Subcommands: train, attack, evaluate, smooth-eval, verify.
Exit codes: 0 success, 1 usage/config error, 2 runtime failure,
3 verification-suite failure.

``experiment`` writes every file of a run's output directory; ``attack``
and ``evaluate`` print the ``report.csv`` they wrote, byte for byte, and
``smooth-eval`` prints a summary of its ``smooth.json``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import CheckpointError, atomic_write_text
from .config import ConfigError, parse_config
from .data import IdxFormatError
from .reporting import report_to_csv
from .tensor import TensorError
from .verify import SUITES, run_suites, scalar_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _add_common(p: argparse.ArgumentParser, checkpoint_required=False) -> None:
    p.add_argument("config", help="experiment config (JSON)")
    p.add_argument("--output-dir", default=None,
                   help="output directory (default: the config's output_dir, else runs/<name>)")
    p.add_argument("--data-dir", default=None,
                   help="IDX data directory (default: the config's data.data_dir, "
                        "else $ATENT_DATA_DIR, else the working directory)")
    if checkpoint_required:
        p.add_argument("--checkpoint", required=True, help="model checkpoint to load")


def _epoch_number(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an epoch of at least 1, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atent",
        description="Entropy-regularized adversarial training at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per config, checkpointing each epoch")
    _add_common(p)
    p.add_argument("--resume", action="store_true", help="continue a saved run")
    p.add_argument("--stop-after", type=_epoch_number, default=None, metavar="N",
                   help="stop once epoch N is committed (resumable)")

    p = sub.add_parser("attack", help="evaluate configured attacks on a checkpoint")
    _add_common(p, checkpoint_required=True)

    p = sub.add_parser("evaluate", help="full pipeline: train (or resume) then attack-evaluate")
    _add_common(p)
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("smooth-eval", help="randomized-smoothing accuracy of a checkpoint")
    _add_common(p, checkpoint_required=True)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--output-dir", default=None,
                   help="also write verify_report.json and sampler_hist.svg here")
    return parser


def _config(args):
    """The parsed config, with ``--output-dir`` and ``--data-dir`` written into it."""
    cfg = parse_config(args.config)
    cfg.output_dir = args.output_dir or cfg.output_dir
    cfg.data.data_dir = args.data_dir or cfg.data.data_dir
    return cfg


def _cmd_train(args) -> int:
    from .experiment import run_training

    state = run_training(_config(args), resume=args.resume, stop_after=args.stop_after)
    last = state.history[-1] if state.history else None
    if last is not None:
        rob = "-" if last.rob_acc is None else f"{last.rob_acc:.4f}"
        nat = "-" if last.nat_acc is None else f"{last.nat_acc:.4f}"
        print(f"epoch {state.epoch}: loss {last.train_loss:.4f} nat {nat} rob {rob}")
    if state.best_params is not None:
        print(f"best epoch {state.best_epoch}: metric {state.best_metric:.4f}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    from .experiment import evaluate_checkpoint

    rows = evaluate_checkpoint(_config(args), args.checkpoint)
    print(report_to_csv(rows), end="")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .experiment import run_experiment

    rows = run_experiment(_config(args), resume=args.resume)
    print(report_to_csv(rows), end="")
    return EXIT_OK


def _cmd_smooth_eval(args) -> int:
    from .experiment import smooth_evaluate

    result = smooth_evaluate(_config(args), args.checkpoint)
    print(f"smooth accuracy (sigma={result['sigma']:g}, "
          f"n={result['n_samples']}): {result['smooth_accuracy']:.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suites(args.suite)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        tree = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        atomic_write_text(out / "verify_report.json",
                          json.dumps(tree, indent=2, sort_keys=True))
        if args.suite in ("sampler", "all"):
            _write_sampler_diagnostic(out)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _write_sampler_diagnostic(out: Path) -> None:
    from .oracle import grid_gibbs_density
    from .reporting import render_histogram_svg

    gamma, anchor, a = 4.0, 0.4, 1.0
    mean_t = gamma * anchor / (gamma - 2 * a)
    grid = grid_gibbs_density(lambda pts: a * pts[:, 0] ** 2, anchor, gamma,
                              [(mean_t - 5.0, mean_t + 5.0)], 1001)
    samples = scalar_chain(gamma, lambda v: 2 * a * v, 7, anchor=anchor, steps=40_000)
    atomic_write_text(out / "sampler_hist.svg", render_histogram_svg(samples[8_000:], grid))


_HANDLERS = {
    "train": _cmd_train,
    "attack": _cmd_attack,
    "evaluate": _cmd_evaluate,
    "smooth-eval": _cmd_smooth_eval,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, IdxFormatError, TensorError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
