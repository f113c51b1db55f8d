"""Command-line front end: one subcommand per pipeline stage.

Each stage reads the previous stage's artifact and writes its own, so
stages are independently runnable and the whole chain is a pure function
of (input files, configuration, seed). The argparse parser is the one
declaration of every setting; config-file values are turned into flag
tokens and parsed by it too, so precedence is flag > config file >
built-in default. Errors exit with code 2 (config), 3 (data), 4
(numerical) or 5 (out of memory) and a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .calendars import BusinessCalendar, IsoWeek
from .classify import classify_trades
from .errors import BondTcaError, ConfigError, DataError, ResourceError
from .features import DESIGN_FEATURES, build_feature_matrix, design_matrix
from .impact import (
    SignSeries, average_kernels, empirical_signature, estimate_pair_moments, estimate_tim1,
    fit_d_const, model_signature_tim1, model_signature_tim2, solve_tim2,
)
from .ingest import cap_volumes, group_by_cusip, ingest_reports, parse_trace_csv
from .microstructure import (
    MID_CONVENTIONS, aggregate_weekly, estimate_spreads, log_degenerate_mids,
    one_sided_spreads_by_day, used_trades,
)
from .regress import (
    DEFAULT_EN_ALPHAS, DEFAULT_LASSO_GRID, MODEL_FAMILIES, Dataset, GridPoint, fit_ols,
    k_fold_cv, relative_error, select_by_ci, _fit_for,
)
from .stats import welch_t
from .synthgen import (
    KernelSpec, SignProcess, SynthConfig, generate_trace_fixture, market_context_rows,
    reference_rows,
)


class BondTcaParser(argparse.ArgumentParser):
    """Argument parser whose errors raise ConfigError (exit 2, JSON on stderr)."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _number(kind: str, cast=float, ok=lambda value: True):
    """argparse type: a finite number read with ``cast`` for which ``ok`` holds."""

    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(text)
        return value

    parse.__name__ = f"{kind} {cast.__name__}"  # argparse: "invalid positive int value"
    return parse


_FINITE = _number("finite")
_NON_NEGATIVE = _number("non-negative", float, lambda v: v >= 0)
_POSITIVE_FLOAT = _number("positive", float, lambda v: v > 0)
_POSITIVE_INT = _number("positive", int, lambda v: v > 0)
_FOLD_COUNT = _number("at-least-2", int, lambda v: v >= 2)
_SEED = _number("non-negative", int, lambda v: v >= 0)
MAX_L_MAX = 1_000  # impact --l-max: the signature costs l_max^3 in time, l_max^2 in memory
_L_MAX = _number(f"1-{MAX_L_MAX}", int, lambda v: 0 < v <= MAX_L_MAX)


def _mixing_list(text: str) -> list[float]:
    try:
        values = [float(a) for a in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError(f"mixing values must lie in [0, 1], got {text!r}")
    return values


def _load_config_file(path: Path) -> dict:
    try:
        obj = json.loads(_require(path, "config").read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _file_tokens(file_cfg: dict, command: str, commands: dict) -> list[str]:
    """The config file's values for ``command`` as flag tokens.

    A JSON object is a section named after a subcommand; any other value is
    a flat key, which applies to every subcommand that declares it. Flat
    keys come first, so a section value wins over a flat one.
    """
    declared = {  # subcommand -> setting name -> option; --help and --config are not settings
        name: {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")}
        for name, p in commands.items()
    }
    sections = {k: v for k, v in file_cfg.items() if isinstance(v, dict)}
    flat = {k: v for k, v in file_cfg.items() if k not in sections}
    unknown = [k for k in flat if not any(k in settings for settings in declared.values())]
    unknown += [k for k in sections if k not in declared]
    unknown += [
        f"{name}.{key}"
        for name, section in sections.items() if name in declared
        for key in section if key not in declared[name]
    ]
    if unknown:
        raise ConfigError(f"config file: unknown sections or keys {unknown}")
    ours = declared[command]
    tokens = []
    for key, value in [*flat.items(), *sections.get(command, {}).items()]:
        if key not in ours:
            continue  # a flat key for another subcommand
        flag = ours[key].option_strings[0]
        if ours[key].nargs == 0 and isinstance(value, bool):  # a switch
            tokens += [flag] if value else []
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _require(path: Path | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"missing required input: {what}")
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _check_outputs(args) -> None:
    """Reject an output path that cannot be written before any output is written."""
    for name, path in vars(args).items():
        if not (name.startswith("out_") and path is not None):
            continue
        if path.is_dir():
            raise ConfigError(f"output path is a directory: {path}")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")


def _calendar(args) -> BusinessCalendar:
    if args.calendar is None:
        return BusinessCalendar()
    return BusinessCalendar.from_file(_require(args.calendar, "calendar"))


def _meta(args) -> dict:
    """Provenance: a hash of the subcommand and of every setting in effect.

    File locations (options declared with ``type=Path``) stay out of the
    hash, so moving an input or an output does not change artifact bytes.
    """
    settings = {
        k: v
        for k, v in vars(args).items()
        if k != "func" and v is not None and not isinstance(v, Path)
    }
    meta = {"config_hash": artifacts.config_hash(settings)}
    if "seed" in settings:
        meta["seed"] = settings["seed"]
    return meta


# -- subcommands --------------------------------------------------------------


def cmd_generate(args) -> None:
    kernel_buy = KernelSpec(args.kernel_family, args.kernel_g0, args.kernel_beta, args.kernel_gamma)
    kernel_sell = None
    if args.kernel_sell_g0 is not None:
        beta = args.kernel_beta if args.kernel_sell_beta is None else args.kernel_sell_beta
        kernel_sell = KernelSpec(args.kernel_family, args.kernel_sell_g0, beta, args.kernel_gamma)
    config = SynthConfig(
        seed=args.seed,
        n_events=args.events,
        n_bonds=args.bonds,
        kernel_buy=kernel_buy,
        kernel_sell=kernel_sell,
        sign=SignProcess(kind=args.sign_process, p_buy=args.p_buy, flip_prob=args.flip_prob),
        noise_sd_bp=args.noise_sd_bp,
        alpha=args.alpha,
        half_spread_bp=args.half_spread_bp,
        rpt_fraction=args.rpt_fraction,
        cancel_rate=args.cancel_rate,
        correction_rate=args.correction_rate,
    )
    tape, manifest = generate_trace_fixture(config, _calendar(args))
    args.out_tape.write_bytes(tape)
    artifacts.write_json(args.out_manifest, manifest.to_json_obj(), _meta(args))
    artifacts.write_bond_references(args.out_reference, reference_rows(config), _meta(args))
    artifacts.write_market_context(args.out_context, market_context_rows(config), _meta(args))
    print(f"wrote {args.out_tape} ({config.n_bonds} bonds, {config.n_events} events each)")


def cmd_ingest(args) -> None:
    tape = parse_trace_csv(_require(args.tape, "trade tape"))
    n_reports = len(tape)
    clean, report = ingest_reports(tape, _calendar(args))
    del tape  # the parsed tape is the stage's largest object; drop it before writing
    if args.cap_volumes:
        refs = artifacts.read_bond_references(_require(args.reference, "bond reference"))
        clean = cap_volumes(clean, {c: r.grade for c, r in refs.items()})
    artifacts.write_clean_trades(args.out_clean, clean, _meta(args))
    artifacts.write_json(args.out_filter_report, asdict(report), _meta(args))
    print(f"ingested {n_reports} reports -> {len(clean)} clean trades")


def cmd_classify(args) -> None:
    trades = artifacts.read_clean_trades(_require(args.clean, "clean trades"))
    signed = classify_trades(trades)
    artifacts.write_signed_trades(args.out_signed, signed, _meta(args))
    n_rpt = int(np.count_nonzero(signed.is_rpt))
    print(f"classified {len(signed)} trades, {n_rpt} RPT legs")


def cmd_spread(args) -> None:
    signed = artifacts.read_signed_trades(_require(args.signed, "signed trades"))
    grouped = group_by_cusip(signed)
    obs = []
    used = 0
    dropped = Counter()
    for cusip in sorted(grouped):
        bond_obs = estimate_spreads(grouped[cusip], args.delta_t, args.mid_convention, dropped)
        used += used_trades(bond_obs)
        obs.extend(bond_obs)
    log_degenerate_mids(dropped)
    weekly = aggregate_weekly(obs)
    artifacts.write_spread_observations(args.out_observations, obs, _meta(args))
    artifacts.write_weekly_spreads(args.out_weekly, weekly, _meta(args))
    fraction = used / len(signed) if signed else 0.0
    print(
        f"{len(obs)} spread observations -> {len(weekly)} bond-weeks "
        f"({fraction:.1%} of trades used)"
    )


def cmd_features(args) -> None:
    signed = artifacts.read_signed_trades(_require(args.signed, "signed trades"))
    weekly = artifacts.read_weekly_spreads(_require(args.weekly, "weekly spreads"))
    refs = artifacts.read_bond_references(_require(args.reference, "bond reference"))
    context = artifacts.read_market_context(_require(args.context, "market context"))
    rows = build_feature_matrix(weekly, signed, refs, context, _calendar(args))
    artifacts.write_feature_rows(args.out_features, rows, _meta(args))
    print(f"built {len(rows)} feature rows")


def _week_range(text: str) -> tuple[IsoWeek, IsoWeek]:
    try:
        a, b = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 2015-W01:2015-W26, got {text!r}") from None
    lo, hi = IsoWeek.parse(a), IsoWeek.parse(b)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"week range {text!r} is reversed")
    return lo, hi


MAX_GRID_POINTS = 1_000  # --lambda-grid's num: each point is k_folds fits per mixing value


def _lambda_grid(text: str) -> tuple[float, ...]:
    try:
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:num, got {text!r}") from None
    if not (0 < lo <= hi < math.inf and 1 <= num <= MAX_GRID_POINTS):
        raise argparse.ArgumentTypeError(
            f"need finite 0 < lo <= hi and 1 <= num <= {MAX_GRID_POINTS}, got {text!r}"
        )
    return tuple(np.logspace(np.log10(lo), np.log10(hi), num))


def _grid_for(args) -> list[GridPoint]:
    lams = DEFAULT_LASSO_GRID if args.lambda_grid is None else args.lambda_grid
    if args.model == "en":
        return [GridPoint(float(l), a) for a in args.alpha for l in lams]
    return [GridPoint(float(l)) for l in lams]


def cmd_fit(args) -> None:
    rows = artifacts.read_feature_rows(_require(args.features, "feature rows"))

    train_rows, test_rows = rows, []
    if args.train_range or args.test_range:
        if not (args.train_range and args.test_range):
            raise ConfigError("provide both --train-range and --test-range or neither")
        (tr_lo, tr_hi), (te_lo, te_hi) = args.train_range, args.test_range
        if not tr_hi < te_lo:
            raise ConfigError("training weeks must precede test weeks")
        train_rows = [r for r in rows if tr_lo <= r.week <= tr_hi]
        test_rows = [r for r in rows if te_lo <= r.week <= te_hi]
    if not train_rows:
        raise DataError("no training rows in range")

    y, x, names = design_matrix(train_rows, args.features_list)
    data = Dataset.from_covariates(y, x, names)

    result = {"model": args.model}
    if args.model == "ols":
        fit = fit_ols(data)
        cv_obj = None
    else:
        report = k_fold_cv(data, args.model, _grid_for(args), k=args.k_folds, seed=args.seed)
        chosen = select_by_ci(report)
        point = GridPoint(chosen.lam, chosen.alpha)
        fit = _fit_for(args.model, data, point)
        cv_obj = report.to_json_obj()
        result["chosen"] = {"lambda": chosen.lam, "alpha": chosen.alpha}
    result["fit"] = fit.to_json_obj()

    if test_rows:
        ty, tx, _ = design_matrix(test_rows, names)
        test_data = Dataset.from_covariates(ty, tx, names)
        pred = fit.predict_matrix(test_data.x)
        sse = float(np.sum((ty - pred) ** 2))
        sst = float(np.sum((ty - y.mean()) ** 2))
        result["out_of_sample"] = {
            "n": len(test_rows),
            "r2": 1.0 - sse / sst if sst > 0 else 0.0,
            "relative_error": relative_error(ty, pred) if np.all(ty != 0) else None,
        }

    artifacts.write_json(args.out_fit, result, _meta(args))
    if cv_obj is not None:
        artifacts.write_json(args.out_cv, cv_obj, _meta(args))
    print(f"fit {args.model} on {len(train_rows)} rows; R^2={fit.r_squared:.4f}")


def _spread_mids_for_bond(trades, mid_by_k):
    """Forward-fill sparse mid estimates onto the bond's signed events.

    Returns None when the bond has no mid observations at all (the caller
    falls back to trade prices).
    """
    if not mid_by_k:
        return None
    event_k = trades.k[trades.epsilon != 0].tolist()
    ordered = sorted(mid_by_k)
    mids = []
    last = mid_by_k[ordered[0]]  # events before the first estimate backfill it
    pos = 0
    for k in event_k:
        while pos < len(ordered) and ordered[pos] <= k:
            last = mid_by_k[ordered[pos]]
            pos += 1
        mids.append(last)
    return mids


def _impact_for_bond(trades, alpha, n_lags, l_lags, model, mid_by_k=None):
    mids = _spread_mids_for_bond(trades, mid_by_k) if mid_by_k is not None else None
    series = SignSeries.from_signed_trades(trades, alpha=alpha, mids=mids)
    if mids is not None:
        series.mid_source = "spread_mids"
    out = {"series": series}
    if model in ("tim1", "both"):
        out["tim1"] = estimate_tim1(series, n_lags, l_lags)
    if model in ("tim2", "both"):
        out["tim2"] = solve_tim2(series, n_lags, l_lags)
    return out


def cmd_impact(args) -> None:
    signed = artifacts.read_signed_trades(_require(args.signed, "signed trades"))
    grouped = group_by_cusip(signed)
    ranked = sorted(grouped, key=lambda c: (-len(grouped[c]), c))
    if args.top_k is not None:
        ranked = ranked[: args.top_k]
    usable = [c for c in ranked if np.count_nonzero(grouped[c].epsilon) >= args.min_events]
    if not usable:
        raise DataError(
            f"no bond has {args.min_events} signed events; lower --min-events or generate more data"
        )

    spread_mids: dict[str, dict[int, float]] | None = None
    if args.spreads:
        spread_mids = {}
        # an observation's mid describes the state at the EARLIER trade of
        # its pair; o.k indexes the later one
        for o in artifacts.read_spread_observations(_require(args.spreads, "spread observations")):
            spread_mids.setdefault(o.cusip, {})[o.k - 1] = o.mid

    def work(cusip):
        mid_by_k = spread_mids.get(cusip, {}) if spread_mids is not None else None
        return cusip, _impact_for_bond(
            grouped[cusip], args.alpha, args.n_lags, args.l_lags, args.model, mid_by_k
        )

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = dict(pool.map(work, usable))
    else:
        results = dict(work(c) for c in usable)

    out_obj: dict = {"bonds": {}, "mid_source": results[usable[0]]["series"].mid_source}
    tim1_kernels = []
    tim2_kernels: dict[int, list] = {1: [], -1: []}
    for cusip in usable:  # deterministic merge order
        res = results[cusip]
        entry = {"mid_source": res["series"].mid_source}
        if "tim1" in res:
            entry["tim1"] = artifacts.kernel_json_obj({None: res["tim1"]}, "tim1", args.alpha)
            tim1_kernels.append(res["tim1"])
        if "tim2" in res:
            entry["tim2"] = artifacts.kernel_json_obj(res["tim2"], "tim2", args.alpha)
            for pi in (1, -1):
                tim2_kernels[pi].append(res["tim2"][pi])
        out_obj["bonds"][cusip] = entry
    if tim1_kernels:
        out_obj["aggregate_tim1"] = artifacts.kernel_json_obj(
            {None: average_kernels(tim1_kernels)}, "tim1", args.alpha
        )
    if tim2_kernels[1]:
        out_obj["aggregate_tim2"] = artifacts.kernel_json_obj(
            {pi: average_kernels(tim2_kernels[pi]) for pi in (1, -1)}, "tim2", args.alpha
        )
    artifacts.write_json(args.out_kernel, out_obj, _meta(args))

    # Aggregate signature plot: equal-weight average of per-bond curves.
    d_emps, d_models = [], []
    for cusip in usable:
        res = results[cusip]
        series = res["series"]
        emp = empirical_signature(series.mid, args.l_max)
        moments = estimate_pair_moments(series, args.l_max + args.n_lags)
        if "tim1" in res:
            partial = model_signature_tim1(
                res["tim1"], moments.merged_series(), args.l_max, mean_flow=moments.mean_flow
            )
        else:
            partial = model_signature_tim2(res["tim2"], moments, args.l_max)
        d_emps.append(emp.d)
        d_models.append(partial + fit_d_const(partial, emp.d))
    lags = np.arange(1, args.l_max + 1)
    artifacts.write_signature(
        args.out_signature, lags, np.mean(d_emps, axis=0), np.mean(d_models, axis=0), _meta(args)
    )
    print(f"impact kernels for {len(usable)} bonds ({args.model})")


def cmd_report(args) -> None:
    signed = artifacts.read_signed_trades(_require(args.signed, "signed trades"))
    sided = one_sided_spreads_by_day(signed)
    buys = [s.spread_buy for s in sided if s.spread_buy is not None]
    sells = [s.spread_sell for s in sided if s.spread_sell is not None]
    obj: dict = {
        "n_trades": len(signed),
        "n_rpt_legs": int(np.count_nonzero(signed.is_rpt)),
        "n_bond_days_with_reference": len(sided),
        "asymmetry": None,
    }
    if len(buys) >= 2 and len(sells) >= 2:
        test = welch_t(buys, sells)
        obj["asymmetry"] = {
            "mean_spread_buy_bp": float(np.mean(buys) * 1e4),
            "mean_spread_sell_bp": float(np.mean(sells) * 1e4),
            # +-inf when both samples are constant with different means
            "welch_t": test.statistic if math.isfinite(test.statistic) else None,
            "p_value": test.p_value,
            "df": test.df[0] if test.df else None,
        }
    if args.out_one_sided:
        artifacts.write_one_sided(args.out_one_sided, sided, _meta(args))
    artifacts.write_json(args.out_report, obj, _meta(args))
    print(f"report over {len(signed)} trades; {len(sided)} bond-days with reference")


# -- parser -------------------------------------------------------------------


def build_parser() -> BondTcaParser:
    """The one declaration of every setting: name, type, choices, bound, default.

    Options declared with ``type=Path`` are file locations; every other
    option is a setting that enters the config hash.
    """
    parser = BondTcaParser(
        prog="bondtca",
        description="Transaction-cost analysis pipeline for corporate bond trade tapes.",
    )
    parser.add_argument("--version", action="version", version=f"bondtca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file; flags override file values")
        p.add_argument("--calendar", type=Path, help="business-day calendar file (holiday list)")
        p.set_defaults(func=func)
        return p

    g = add("generate", cmd_generate, "write a synthetic trade tape with known ground truth")
    g.add_argument("--seed", type=_SEED, default=0)
    g.add_argument("--events", type=int, default=10_000, help="events per bond")
    g.add_argument("--bonds", type=int, default=1)
    g.add_argument(
        "--kernel-family", choices=("exponential", "power_law", "constant"), default="exponential"
    )
    g.add_argument("--kernel-g0", type=_FINITE, default=25.0)
    g.add_argument("--kernel-beta", type=_FINITE, default=0.4)
    g.add_argument("--kernel-gamma", type=_FINITE, default=1.0)
    g.add_argument("--kernel-sell-g0", type=_FINITE, help="default: the buy kernel")
    g.add_argument("--kernel-sell-beta", type=_FINITE, help="default: --kernel-beta")
    g.add_argument("--sign-process", choices=("iid", "markov"), default="iid")
    g.add_argument("--p-buy", type=_FINITE, default=0.5)
    g.add_argument("--flip-prob", type=_FINITE, default=0.5)
    g.add_argument("--noise-sd-bp", type=_FINITE, default=5.0)
    g.add_argument("--alpha", type=_FINITE, default=0.0)
    g.add_argument("--half-spread-bp", type=_FINITE, default=30.0)
    g.add_argument("--rpt-fraction", type=_FINITE, default=0.0)
    g.add_argument("--cancel-rate", type=_FINITE, default=0.0)
    g.add_argument("--correction-rate", type=_FINITE, default=0.0)
    g.add_argument("--out-tape", type=Path, default="tape.csv")
    g.add_argument("--out-manifest", type=Path, default="manifest.json")
    g.add_argument("--out-reference", type=Path, default="reference.csv")
    g.add_argument("--out-context", type=Path, default="context.csv")

    i = add("ingest", cmd_ingest, "parse, reconcile and filter a trade tape")
    i.add_argument("--tape", type=Path, required=True)
    i.add_argument("--cap-volumes", action="store_true")
    i.add_argument("--reference", type=Path, help="bond reference CSV (grades for volume caps)")
    i.add_argument("--out-clean", type=Path, default="clean.csv")
    i.add_argument("--out-filter-report", type=Path, default="filter_report.json")

    c = add("classify", cmd_classify, "assign trade signs and flag RPTs")
    c.add_argument("--clean", type=Path, required=True)
    c.add_argument("--out-signed", type=Path, default="signed.csv")

    s = add("spread", cmd_spread, "estimate spreads and weekly responses")
    s.add_argument("--signed", type=Path, required=True)
    s.add_argument("--delta-t", type=_POSITIVE_FLOAT, default=300.0, help="pair window, seconds")
    s.add_argument("--mid-convention", choices=MID_CONVENTIONS, default="paper")
    s.add_argument("--out-observations", type=Path, default="spreads.csv")
    s.add_argument("--out-weekly", type=Path, default="weekly.csv")

    f = add("features", cmd_features, "build the weekly regression design")
    f.add_argument("--signed", type=Path, required=True)
    f.add_argument("--weekly", type=Path, required=True)
    f.add_argument("--reference", type=Path, required=True)
    f.add_argument("--context", type=Path, required=True)
    f.add_argument("--out-features", type=Path, default="features.csv")

    t = add("fit", cmd_fit, "fit a cost benchmark with cross-validated penalties")
    t.add_argument("--features", type=Path, required=True)
    t.add_argument("--model", choices=MODEL_FAMILIES, default="lslasso")
    t.add_argument("--lambda-grid", type=_lambda_grid, help="lo:hi:num, log-spaced")
    t.add_argument(
        "--alpha", type=_mixing_list, default=DEFAULT_EN_ALPHAS,
        help="elastic-net mixing values, comma separated",
    )
    t.add_argument("--k-folds", type=_FOLD_COUNT, default=10)
    t.add_argument("--seed", type=_SEED, default=0)
    t.add_argument("--train-range", type=_week_range, help="ISO weeks lo:hi")
    t.add_argument("--test-range", type=_week_range, help="ISO weeks lo:hi")
    t.add_argument(
        "--features-list", type=lambda text: tuple(text.split(",")), default=DESIGN_FEATURES,
        help="comma-separated design columns",
    )
    t.add_argument("--out-fit", type=Path, default="fit.json")
    t.add_argument("--out-cv", type=Path, default="cv.json")

    m = add("impact", cmd_impact, "estimate transient impact kernels and signatures")
    m.add_argument("--signed", type=Path, required=True)
    m.add_argument("--spreads", type=Path, help="spread observations; mids forward-fill onto events")
    m.add_argument("--model", choices=("tim1", "tim2", "both"), default="tim1")
    m.add_argument("--alpha", type=_NON_NEGATIVE, default=0.0)
    m.add_argument("--n-lags", type=_POSITIVE_INT, default=10)
    m.add_argument("--l-lags", type=_POSITIVE_INT, default=10)
    m.add_argument("--l-max", type=_L_MAX, default=10)
    m.add_argument("--top-k", type=_POSITIVE_INT, help="only the k most traded bonds")
    m.add_argument("--min-events", type=int, default=1000)
    m.add_argument("--threads", type=int, default=1)
    m.add_argument("--out-kernel", type=Path, default="kernels.json")
    m.add_argument("--out-signature", type=Path, default="signature.csv")

    r = add("report", cmd_report, "summary report with buy/sell asymmetry tests")
    r.add_argument("--signed", type=Path, required=True)
    r.add_argument("--out-report", type=Path, default="report.json")
    r.add_argument("--out-one-sided", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values go right after the subcommand name, before the
            # user's flags: argparse keeps the last value it sees
            at = argv.index(args.command) + 1
            tokens = _file_tokens(_load_config_file(args.config), args.command, parser.commands)
            args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        _check_outputs(args)
        args.func(args)
    except OSError as exc:  # a path that cannot be read or written
        return _report_error(ConfigError(f"cannot access {exc.filename}: {exc.strerror}"))
    except BondTcaError as exc:
        return _report_error(exc)
    except MemoryError as exc:  # last resort: a size no setting's bound caught
        return _report_error(ResourceError(f"out of memory: {exc}"))
    return 0


def _report_error(exc: BondTcaError) -> int:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
