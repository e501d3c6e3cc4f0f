"""Command-line front end.

Subcommands: analyze, power {yu|mao}, samplesize {yu|mao|precision}, ranksim,
simulate, calibrate {weibull|exponential}. All numeric output uses 6
significant digits; all stochastic commands take --seed and default to a
fixed constant, so bare invocations are reproducible.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import design, engine, io, ranksim
from .core import compare_arms, win_odds, win_ratio
from .datagen import exponential_scale_from_dropout, weibull_scale_from_survival
from .errors import DatasetFormatError, InvalidInputError, WrlabError, _is_count, _is_real
from .inference import (bootstrap_verdicts, infer_phi, phi_win, score_test_verdicts,
                        wald_test_log_wr, yu_wald_test)

DEFAULT_SEED = 123456789


def _fmt(x: float) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_floats(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InvalidInputError(f"cannot parse float list {raw!r}") from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    hierarchy = io.read_hierarchy(args.hierarchy)
    cmp = compare_arms(*io.read_dataset(args.data, hierarchy), hierarchy)
    stats = cmp.stats
    lines = [f"patients: T={stats.n_treatment} C={stats.n_control}",
             f"pairs (unmatched): {stats.n_pairs}",
             f"wins: {stats.n_win}  losses: {stats.n_loss}  ties: {stats.n_tie}",
             "decided at level:"]
    informative = max(stats.n_informative, 1)
    for k, spec in enumerate(hierarchy.levels):
        count = stats.decided_at_level.get(k, 0)
        lines.append(f"  {k + 1} {spec.name}: {count} ({_fmt(count / informative)} of decided)")
    lines.append(f"win ratio: {_fmt(win_ratio(stats))}")
    lines.append(f"win odds: {_fmt(win_odds(stats))}")
    lines.append(f"phi_win: {_fmt(phi_win(stats))}")
    lines.append(f"inference (alpha={_fmt(args.alpha)}):")
    header = f"  {'method':<24} {'estimate':>10} {'ci_low':>10} {'ci_high':>10} {'z':>10} {'p':>10}"
    lines.append(header)
    results = [infer_phi(stats, args.alpha, "wald"), infer_phi(stats, args.alpha, "wilson")]
    try:
        results.append(wald_test_log_wr(stats, alpha=args.alpha))
        results.append(yu_wald_test(stats, alpha=args.alpha))
    except WrlabError as exc:
        lines.append(f"  (log-scale Wald inference unavailable: {exc})")
    if args.bootstrap:
        results.append(bootstrap_verdicts(cmp, args.bootstrap, args.alpha, args.seed))
    for r in results:
        lines.append(f"  {r.method:<24} {_fmt(r.estimate):>10} {_fmt(r.ci[0]):>10} "
                     f"{_fmt(r.ci[1]):>10} {_fmt(r.z):>10} {_fmt(r.p_value):>10}")
    try:
        score = score_test_verdicts(cmp)
        lines.append(f"score test: z={_fmt(score.statistic)} p={_fmt(score.p_value)}")
    except WrlabError as exc:
        lines.append(f"score test unavailable: {exc}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    if args.method == "yu":
        if args.n_grid or args.wr_grid or args.p_tie_grid:
            if not (args.n_grid and args.wr_grid and args.p_tie_grid):
                raise InvalidInputError("tie-sensitivity mode needs --n-grid, --wr-grid "
                                        "and --p-tie-grid together")
            rows = design.tie_sensitivity_table(_parse_floats(args.n_grid),
                                                _parse_floats(args.wr_grid),
                                                _parse_floats(args.p_tie_grid), args.alpha)
            lines = ["n_total,wr,p_tie,power"]
            lines += [f"{_fmt(r['n_total'])},{_fmt(r['wr'])},{_fmt(r['p_tie'])},{_fmt(r['power'])}"
                      for r in rows]
            _emit("\n".join(lines) + "\n", args.out)
            return 0
        power = design.yu_power(args.wr, args.n_total, args.p_t, args.p_tie, args.alpha,
                                "one-sided" if args.one_sided else "two-sided",
                                "symmetric" if args.symmetric else "as-written")
    else:
        power = design.mao_power(args.n_total, args.wr, args.xi0_sq, args.w0,
                                 args.p_c, args.alpha)
    _emit(f"power: {_fmt(power)}\n", args.out)
    return 0


def _cmd_samplesize(args: argparse.Namespace) -> int:
    if args.method == "yu":
        size = design.yu_sample_size(args.wr, args.power, args.p_t, args.p_tie, args.alpha,
                                     "one-sided" if args.one_sided else "two-sided")
    elif args.method == "mao":
        size = design.mao_sample_size(args.wr, args.power, args.xi0_sq, args.w0,
                                      args.p_c, args.alpha)
    else:
        size = design.precision_sample_size(args.width, args.p_t, args.p_tie, args.alpha)
    lines = [f"n_total_unrounded: {_fmt(size.unrounded)}",
             f"n_treatment: {size.n_treatment}",
             f"n_control: {size.n_control}",
             f"n_total: {size.total}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_ranksim(args: argparse.Namespace) -> int:
    phis = tuple(_parse_floats(args.phi))
    cfg = ranksim.RankSimConfig(n_t=args.n_t, n_c=args.n_c, phi_win_per_level=phis,
                                tie_prob_level1=args.tie_prob, n_bootstrap=args.bootstrap,
                                n_iterations=args.iterations, alpha=args.alpha,
                                seed=args.seed)
    result = ranksim.ranksim_power(cfg)
    if args.format == "json":
        _emit(engine.results_to_json([result]), args.out)
    else:
        _emit(engine.results_to_csv([result]), args.out)
    return 0


# What each grid-config key must hold; the engine's grid builders hold the defaults.
_NUMBERS = (lambda v: isinstance(v, list) and bool(v) and all(map(_is_real, v)),
            "a non-empty list of finite numbers")
_GRID_KEYS = {"iterations": (_is_count, "an integer >= 1"),
              "n_per_arm": (lambda v: _is_count(v, 2), "an integer >= 2"),
              "alpha": (_is_real, "a finite number"), "p_control": (_is_real, "a finite number"),
              "deltas": _NUMBERS, "p_treatments": _NUMBERS, "hazard_ratios": _NUMBERS,
              "orders": (lambda v: isinstance(v, list) and bool(v), "a non-empty list")}
# Each dgm's grid builder and the keys it reads.
_GRIDS = {
    "binary-continuous": (engine.binary_continuous_grid, ("deltas", "p_treatments", "orders",
                                                          "n_per_arm", "p_control", "alpha")),
    "tte-composite": (engine.tte_grid, ("hazard_ratios", "n_per_arm", "alpha")),
    "iphak": (lambda **kw: (engine.iphak_scenario(**kw),), ("alpha",)),
}


def _grid_from_config(path: str) -> tuple[list[engine.Scenario], int]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != "wrlab/grid-v1":
        raise DatasetFormatError(f"{path}: expected schema 'wrlab/grid-v1', "
                                 f"got {payload.get('schema')!r}")
    dgm = payload.get("dgm")
    if "preset" in payload:
        takes = {"schema", "iterations", "preset"}
    elif dgm in _GRIDS:
        takes = {"schema", "iterations", "dgm", *_GRIDS[dgm][1]}
    else:
        raise DatasetFormatError(f"{path}: unknown dgm {dgm!r}")
    unread = sorted(payload.keys() - takes)
    if unread:
        raise DatasetFormatError(f"{path}: unknown key {unread[0]!r}; this config takes "
                                 + ", ".join(sorted(takes)))
    for key, (valid, what) in _GRID_KEYS.items():
        if key in payload and not valid(payload[key]):
            raise DatasetFormatError(f"{path}: {key!r} must be {what}, got {payload[key]!r}")
    if "preset" in payload:
        scenarios, iterations = _preset(payload["preset"])
    else:
        build, keys = _GRIDS[dgm]
        scenarios, iterations = list(build(**{k: payload[k] for k in keys if k in payload})), 2500
    return scenarios, payload.get("iterations", iterations)


def _preset(name: object) -> tuple[list[engine.Scenario], int]:
    presets = engine.study_presets()
    if not isinstance(name, str) or name not in presets:
        raise InvalidInputError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return list(presets[name].scenarios), presets[name].default_iterations


def _cmd_simulate(args: argparse.Namespace) -> int:
    if bool(args.preset) == bool(args.config):
        raise InvalidInputError("simulate needs exactly one of --preset or --config")
    scenarios, iterations = (_preset(args.preset) if args.preset
                             else _grid_from_config(args.config))
    if args.iterations is not None:
        iterations = args.iterations
    results = engine.run_grid(scenarios, iterations, args.seed, threads=args.threads)
    text = engine.results_to_json(results) if args.format == "json" \
        else engine.results_to_csv(results)
    _emit(text, args.out)
    n_degenerate = sum(r.n_degenerate for r in results)
    n_failures = sum(r.n_failures for r in results)
    if n_failures:
        sys.stderr.write(f"warning: {n_failures} per-iteration analysis failures\n")
    if n_degenerate:
        sys.stderr.write(f"note: {n_degenerate} degenerate win-ratio iterations\n")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.distribution == "weibull":
        scale = weibull_scale_from_survival(args.time, args.survival, args.shape)
    else:
        scale = exponential_scale_from_dropout(args.time, args.dropout)
    _emit(f"scale: {_fmt(scale)}\n", args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, seed: bool = False,
                out: bool = True, fmt: bool = False) -> None:
    parser.add_argument("--alpha", type=float, default=0.05, help="significance level")
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"RNG seed (default {DEFAULT_SEED})")
    if out:
        parser.add_argument("--out", help="write output to this path instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wrlab",
                                     description="Win-ratio trial design workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="win-ratio analysis of a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--hierarchy", required=True, help="hierarchy JSON path")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="add bootstrap inference with this many replicates")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("power", help="closed-form power calculators")
    p.add_argument("method", choices=("yu", "mao"))
    p.add_argument("--wr", type=float, help="anticipated win ratio")
    p.add_argument("--n-total", type=float, help="total sample size")
    p.add_argument("--p-t", type=float, default=0.5, help="treatment allocation probability")
    p.add_argument("--p-tie", type=float, default=0.0, help="anticipated tie probability")
    p.add_argument("--one-sided", action="store_true")
    p.add_argument("--symmetric", action="store_true",
                   help="evaluate the power formula at |log WR|")
    p.add_argument("--xi0-sq", type=float, help="standard rank variance (mao)")
    p.add_argument("--w0", type=float, help="null win proportion (mao)")
    p.add_argument("--p-c", type=float, default=0.5, help="control allocation (mao)")
    p.add_argument("--n-grid", help="comma list of N for the tie-sensitivity table")
    p.add_argument("--wr-grid", help="comma list of WR for the tie-sensitivity table")
    p.add_argument("--p-tie-grid", help="comma list of tie probabilities for the table")
    _add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("samplesize", help="closed-form sample-size calculators")
    p.add_argument("method", choices=("yu", "mao", "precision"))
    p.add_argument("--wr", type=float, help="anticipated win ratio")
    p.add_argument("--power", type=float, default=0.8, help="target power")
    p.add_argument("--width", type=float, help="target total CI width for log WR (precision)")
    p.add_argument("--p-t", type=float, default=0.5)
    p.add_argument("--p-tie", type=float, default=0.0)
    p.add_argument("--one-sided", action="store_true")
    p.add_argument("--xi0-sq", type=float)
    p.add_argument("--w0", type=float)
    p.add_argument("--p-c", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=_cmd_samplesize)

    p = sub.add_parser("ranksim", help="rank-based win-ratio power simulation")
    p.add_argument("--n-t", type=int, required=True)
    p.add_argument("--n-c", type=int, required=True)
    p.add_argument("--phi", required=True,
                   help="comma list of per-level win proportions (one or two)")
    p.add_argument("--tie-prob", type=float, default=0.0,
                   help="level-1 tie probability")
    p.add_argument("--bootstrap", type=int, default=500)
    p.add_argument("--iterations", type=int, default=1000)
    _add_common(p, seed=True, fmt=True)
    p.set_defaults(func=_cmd_ranksim)

    p = sub.add_parser("simulate", help="Monte Carlo power studies")
    p.add_argument("--preset", help="iphak | binary-continuous | ttfe-weibull")
    p.add_argument("--config", help="grid config JSON (schema wrlab/grid-v1)")
    p.add_argument("--iterations", type=int, help="override iteration count")
    p.add_argument("--threads", type=int, default=os.environ.get("WRLAB_THREADS") or "1",
                   help="worker processes (never changes numerical output); "
                        "env WRLAB_THREADS is the fallback")
    _add_common(p, seed=True, fmt=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="distribution calibration helpers")
    p.add_argument("distribution", choices=("weibull", "exponential"))
    p.add_argument("--time", type=float, required=True, help="anchor time")
    p.add_argument("--survival", type=float, help="target survival at the anchor (weibull)")
    p.add_argument("--shape", type=float, help="Weibull shape")
    p.add_argument("--dropout", type=float, help="dropout probability by the anchor (exponential)")
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    return parser


# Flags each (command, method) needs that argparse cannot require on its own.
_REQUIRED_FLAGS = {
    ("power", "yu"): ("wr", "n_total"),
    ("power", "mao"): ("wr", "n_total", "xi0_sq", "w0"),
    ("samplesize", "yu"): ("wr",),
    ("samplesize", "mao"): ("wr", "xi0_sq", "w0"),
    ("samplesize", "precision"): ("width",),
    ("calibrate", "weibull"): ("survival", "shape"),
    ("calibrate", "exponential"): ("dropout",),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mode = getattr(args, "method", None) or getattr(args, "distribution", None)
        missing = [flag for flag in _REQUIRED_FLAGS.get((args.command, mode), ())
                   if getattr(args, flag) is None]
        # `power yu` with any grid flag prints the tie-sensitivity table instead.
        if missing and not ((args.command, mode) == ("power", "yu")
                            and (args.n_grid or args.wr_grid or args.p_tie_grid)):
            raise InvalidInputError(f"{args.command} {mode} needs "
                                    + ", ".join("--" + f.replace("_", "-") for f in missing))
        return args.func(args)
    except (InvalidInputError, DatasetFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WrlabError as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
