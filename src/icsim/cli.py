"""Command line front end.

Subcommands: ``analyze`` (spectra and moments), ``simulate`` (run trials),
``bound`` (converse and achievability evaluators), ``eval`` (view distance),
``example`` (the built-in showcase constructions).  All reports are JSON
with sorted keys and embed the resolved configuration and seed, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import (
    SpectraBundle,
    beta_eps,
    beta_eps_upper,
    direct_product_thresholds,
    lower_bound,
    protocol3_tv_budget,
    protocol4_tv_budget,
    protocol5_tv_budget,
    round_budget_inputs,
    second_order_predict,
    upper_bound_budget,
)
from .errors import IcsimError
from .evaluate import comm_stats, measure_sim_error
from .probcore import (
    DENSITY_KINDS,
    FiniteDistribution,
    JointSource,
    SliceConfig,
    auto_slice_config,
    dsbs_source,
    product_source,
    spectrum,
)
from .protocol import (
    LAW_SELECTORS,
    MixedProtocol,
    TranscriptLaw,
    appendix_threshold_example,
    constant_protocol,
    data_exchange_protocol,
    exchange_bits_protocol,
    noisy_send_protocol,
    send_value_protocol,
    xor_reply_protocol,
)
from .simulate import (
    ImprovedRoundSimulator,
    InteractiveSWCoder,
    ProtocolSimulator,
    RoundPlan,
    RoundSimulator,
    SlepianWolfCoder,
    auto_round_plans,
    # not called here; the benchmark's trial span patches it in this module
    batch_round_trials,  # noqa: F401
    round_density_spectrum,
    run_trials,
)

SCHEMA = 1


def _fail(msg: str, code: int = 1):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(code)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: str | None):
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _atoms(spec) -> list:
    """A spectrum's atoms as [value, probability] pairs."""
    return [[float(v), float(p)] for v, p in zip(spec.values, spec.probs)]


def _require(doc: dict, key: str):
    """``doc[key]``; a missing key is a usage error."""
    if key not in doc:
        _fail(f"config lacks required key {key!r}", 2)
    return doc[key]


def _typed(value, key: str, types, what: str):
    """``value``, the value of config key ``key``; one that is not of
    ``types`` is a usage error saying it must be ``what``."""
    if not isinstance(value, types):
        _fail(f"config key {key!r} must be {what}, got {value!r}", 2)
    return value


def _number(doc: dict, key: str, default: float | None = None) -> float:
    """``doc[key]`` as a float, ``default`` when the key is absent; a
    missing key without a default, or a value that is not a number, is a
    usage error.  JSON's true and false are not numbers here, although
    Python's ``float`` takes them."""
    value = _require(doc, key) if default is None else doc.get(key, default)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    _fail(f"config key {key!r} must be a number, got {value!r}", 2)


def _is_symbol(value) -> bool:
    """A JSON value with no object at any depth, hashable as a tuple."""
    return not isinstance(value, dict) and (
        not isinstance(value, list) or all(map(_is_symbol, value)))


def _is_table(rows: list) -> bool:
    """Equal-length lists of JSON numbers; true and false are not numbers."""
    return all(isinstance(row, list) and len(row) == len(rows[0]) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)
        for row in rows)


def parse_source(token) -> JointSource:
    """"dsbs:q", "dsbs^m:q" or an inline JSON document, whose missing key,
    or value of the wrong JSON type, is a usage error."""
    if isinstance(token, dict):
        symbols = "a list of symbols, none an object"
        for key, what, ok in (
                ("x_alphabet", symbols, _is_symbol),
                ("y_alphabet", symbols, _is_symbol),
                ("mass", "a list of equal-length number lists", _is_table)):
            if key not in token:
                _fail(f"source document lacks required key {key!r}", 2)
            if not (isinstance(token[key], list) and ok(token[key])):
                _fail(f"source document key {key!r} must be {what}, got "
                      f"{token[key]!r}", 2)
        return JointSource.from_json(token)
    if token.startswith("dsbs"):
        head, _, q = token.partition(":")
        try:
            q = float(q)
            power = None if head == "dsbs" else int(head.removeprefix("dsbs^"))
        except ValueError:
            _fail(f"malformed source spec {token!r}: expected dsbs:q or "
                  "dsbs^m:q", 2)
        if power is None:
            return dsbs_source(q)
        return product_source(dsbs_source(q), power)
    _fail(f"unknown source spec {token!r}", 2)


def parse_target(token: str, source: JointSource) -> TranscriptLaw:
    """Named target protocols for simulation."""
    if token == "send-x":
        return send_value_protocol(source)
    if token == "constant":
        return constant_protocol(source)
    if token == "data-exchange":
        return data_exchange_protocol(source)
    if token == "xor-reply":
        return xor_reply_protocol(source)
    if token == "exchange-bits":
        return exchange_bits_protocol(source)
    if token.startswith("noisy-send:"):
        try:
            crossover = float(token.removeprefix("noisy-send:"))
        except ValueError:
            _fail(f"malformed target {token!r}: expected noisy-send:p", 2)
        return noisy_send_protocol(source, crossover)
    _fail(f"unknown target protocol {token!r}", 2)


def _slice_from_cfg(doc, key: str, spec, gamma_default=3.0) -> SliceConfig:
    """The slicing that config key ``key`` gives: fitted to the spectrum
    ``spec()`` when the key is absent or "auto", else read from its object,
    and then no spectrum is built."""
    if doc is None or doc == "auto":
        return auto_slice_config(spec(), gamma=gamma_default)
    _typed(doc, key, dict, 'an object or "auto"')
    return SliceConfig(lambda_min=_number(doc, "lambda_min"),
                       lambda_max=_number(doc, "lambda_max"),
                       delta=_number(doc, "delta"),
                       gamma=_number(doc, "gamma", gamma_default))


def build_engine(cfg: dict):
    """Build a simulation engine from a config document."""
    source = parse_source(_typed(_require(cfg, "source"), "source",
                                 (str, dict), "a string or an object"))
    proto = _require(cfg, "protocol")
    gamma = _number(cfg, "gamma", 3.0)
    if proto == "p1":
        return SlepianWolfCoder(source, _number(cfg, "l"), gamma)
    if proto == "p2":
        s = _slice_from_cfg(cfg.get("slice"), "slice",
                            lambda: spectrum(source, "cond_x_given_y"), gamma)
        return InteractiveSWCoder(
            source, s, None if cfg.get("l") is None else _number(cfg, "l"))
    if proto not in ("p3", "p4", "p5"):
        _fail(f"unknown protocol {proto!r}", 2)
    target = parse_target(_typed(_require(cfg, "target"), "target", str,
                                 "a string"), source)
    def spec(t, side):
        return lambda: round_density_spectrum(target, t, side)

    if proto in ("p3", "p4"):
        if target.n_rounds > 1:
            _fail(f"{proto} simulates one round; target {cfg['target']!r} has "
                  f"{target.n_rounds} rounds: use p5", 2)
        view = target.round_view(1, ())
        cfg_rx = _slice_from_cfg(cfg.get("slice_rx"), "slice_rx",
                                 spec(1, "rx"), gamma)
        if proto == "p3":
            return RoundSimulator(source, view, cfg_rx, cfg.get("k", 0))
        cfg_tx = _slice_from_cfg(cfg.get("slice_tx"), "slice_tx",
                                 spec(1, "tx"), gamma)
        return ImprovedRoundSimulator(source, view, cfg_rx, cfg_tx,
                                      cfg.get("k_override"))
    if "plans" in cfg:
        docs = cfg["plans"]
        if not (isinstance(docs, list) and len(docs) == target.n_rounds
                and all(isinstance(doc, dict) for doc in docs)):
            _fail(f"config key 'plans' must be a list of objects, one per "
                  f"round of the target ({target.n_rounds}), got {docs!r}", 2)
        plans = [RoundPlan(*(_slice_from_cfg(
            doc.get(side), f"plans[{t}].{side}", spec(t + 1, side), gamma)
            for side in ("rx", "tx"))) for t, doc in enumerate(docs)]
    else:
        plans = auto_round_plans(target, gamma=gamma)
    return ProtocolSimulator(target, plans,
                             l_max=_number(cfg, "l_max", math.inf),
                             k_override=cfg.get("k_override"))


def _load_cfg(path: str) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(f"config {path} is not JSON: {exc}", 2)
    if not isinstance(cfg, dict):
        _fail(f"config {path} must be a JSON object, got {cfg!r}", 2)
    return cfg


def _check_run(args, trials: bool = True):
    """Usage errors of ``--trials`` (when the command runs trials) and
    ``--seed``: trials below 1 or a negative seed."""
    if trials and args.trials < 1:
        _fail(f"--trials must be at least 1, got {args.trials}", 2)
    if args.seed < 0:
        _fail(f"--seed must be nonnegative, got {args.seed}", 2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    # a protocol's spectra are the law selectors, a source's the density
    # kinds; the default is the ic density, which is h(X | Y) for send-x
    kinds = LAW_SELECTORS if args.protocol else DENSITY_KINDS
    kind = args.spectrum or ("ic" if args.protocol else "cond_x_given_y")
    if kind not in kinds:
        _fail(f"unknown spectrum {kind!r}: expected one of "
              f"{', '.join(kinds)}", 2)
    source = parse_source(args.source)
    config = {"source": args.source}
    if args.protocol:
        spec = parse_target(args.protocol, source).spectrum(kind)
        config["protocol"] = args.protocol
    else:
        spec = spectrum(source, kind)
    ms = spec.moments()
    doc = {"schema": SCHEMA, "config": config, "spectrum": kind,
           "atoms": _atoms(spec), "mean": ms.mean, "variance": ms.variance,
           "third_central": ms.third_central}
    if args.csv:
        spec.to_csv(args.csv)
        doc["csv"] = args.csv
    _emit(doc, args.out)


def cmd_simulate(args):
    _check_run(args)
    cfg = _load_cfg(args.config)
    engine = build_engine(cfg)
    agg = run_trials(engine, args.trials, args.seed)
    stats = comm_stats(agg)
    if args.format == "csv":
        _write("bits,count\n" + "".join(
            f"{k},{v}\n" for k, v in stats.histogram.items()), args.out)
        return
    _emit({
        "schema": SCHEMA, "config": cfg, "seed": args.seed,
        "trials": args.trials, "mismatch_rate": agg.mismatch_rate,
        "error_rate": agg.error_rate,
        "errors": dict(sorted(agg.errors.items())),
        "bits": {"mean": stats.mean, "max": stats.max,
                 "histogram": {str(k): v for k, v in stats.histogram.items()}},
    }, args.out)


def cmd_eval(args):
    _check_run(args, trials=args.mode == "plugin")
    cfg = _load_cfg(args.config)
    engine = build_engine(cfg)
    if args.mode == "plugin":
        agg = run_trials(engine, args.trials, args.seed)
        est = measure_sim_error(engine, "plugin", master_seed=args.seed,
                                agg=agg)
    else:
        est = measure_sim_error(engine, "exact")
    # engines 2 and 4 are engine 3 subclasses, so they come before it
    budget = None
    if isinstance(engine, (SlepianWolfCoder, InteractiveSWCoder)):
        budget = engine.analytic_error_bound()
    elif isinstance(engine, ImprovedRoundSimulator):
        budget = protocol4_tv_budget(engine)
    elif isinstance(engine, RoundSimulator):
        budget = protocol3_tv_budget(engine)
    elif isinstance(engine, ProtocolSimulator):
        budget = protocol5_tv_budget(engine)
    _emit({
        "schema": SCHEMA, "config": cfg, "seed": args.seed,
        "mode": est.method, "tv": est.value,
        "ci_halfwidth": est.ci_halfwidth, "samples": est.samples,
        "budget": budget,
    }, args.out)


def _numeric_eps(args) -> float:
    """``--eps`` as a number; ``auto`` or a non-number is a usage error.
    ``bound lower`` and ``example appendix-a`` resolve ``auto`` first, so
    only the bound kinds, which carry ``args.kind``, reach its message."""
    if args.eps == "auto":
        _fail(f"--eps auto applies only to bound lower; bound {args.kind} "
              "needs a number", 2)
    try:
        return float(args.eps)
    except ValueError:
        _fail(f"--eps must be a number, got {args.eps!r}", 2)


def _named_law(args) -> tuple[dict, TranscriptLaw]:
    """--source and --target (defaults dsbs:0.25, send-x) and their law."""
    source = args.source or "dsbs:0.25"
    target = args.target or "send-x"
    return ({"source": source, "target": target},
            parse_target(target, parse_source(source)))


def _lower(args, law, eps: float):
    """``--eta`` (default ``eps``) and the converse on ``law``'s spectra."""
    eta = args.eta if args.eta is not None else eps
    return eta, lower_bound(SpectraBundle.from_protocol(law), eps, eta)


def _appendix_a(args):
    """The appendix-a example at ``--n``, its ``--eps`` (``auto``: the
    example's own), ``--eta`` and its converse."""
    ex = appendix_threshold_example(args.n)
    eps = ex.eps_auto if args.eps == "auto" else _numeric_eps(args)
    return (ex, eps, *_lower(args, ex, eps))


def _bound_lower(args):
    if args.source or args.target:
        if args.eps == "auto":
            _fail("--eps auto applies only to bound lower's appendix-a "
                  "example; with --source or --target it needs a number", 2)
        eps = _numeric_eps(args)
        config, law = _named_law(args)
        eta, rep = _lower(args, law, eps)
    else:
        _, eps, eta, rep = _appendix_a(args)
        config = {"example": "appendix-a", "n": args.n}
    return ({"kind": "lower", **config, "eps": eps, "eta": eta},
            {"bound": rep.bound, "lambda_eps": rep.lambda_eps,
             "lambda_prime": rep.lambda_prime, "eps_prime": rep.eps_prime,
             "lengths": list(rep.lengths), "vacuous": rep.vacuous})


def _bound_second_order(args):
    eps = _numeric_eps(args)
    config, law = _named_law(args)
    ms = law.spectrum("ic").moments()
    return ({"kind": "second-order", **config, "n": args.n, "eps": eps},
            {"prediction": second_order_predict(ms, args.n, eps),
             "mean": ms.mean, "variance": ms.variance})


def _bound_direct_product(args):
    config, law = _named_law(args)
    rep = direct_product_thresholds(law.spectrum("ic"), args.n, args.delta)
    return ({"kind": "direct-product", **config, "n": args.n,
             "delta": args.delta},
            {"sim_threshold": rep.sim_threshold, "exponent": rep.exponent,
             "tail_lower_bound": rep.tail_lower_bound,
             "vacuous": rep.vacuous})


def _bound_beta(args):
    eps = _numeric_eps(args)
    if args.p is None or args.q is None:
        _fail("bound beta needs --p and --q", 2)
    try:
        p, q = ([float(v) for v in arg.split(",")] for arg in (args.p, args.q))
    except ValueError:
        _fail(f"--p and --q must be comma-separated numbers, got "
              f"{args.p!r} and {args.q!r}", 2)
    syms = tuple(range(len(p)))
    pd, qd = (FiniteDistribution(syms, np.array(v)) for v in (p, q))
    config = {"kind": "beta", "p": p, "q": q, "eps": eps}
    fields = {"beta": beta_eps(pd, qd, eps)}
    if args.lam is not None:
        config["lam"] = args.lam
        fields["upper"] = beta_eps_upper(pd, qd, eps, args.lam)
    return config, fields


def _bound_upper(args):
    eps = _numeric_eps(args)
    config, law = _named_law(args)
    rounds = round_budget_inputs(law, auto_round_plans(law, gamma=args.gamma))
    budget = upper_bound_budget(rounds, args.gamma, eps, law.spectrum("ic"))
    return ({"kind": "upper", **config, "eps": eps, "gamma": args.gamma},
            {"l_max": budget.l_max, "lambda_prime": budget.lambda_prime,
             "eps_prime": budget.eps_prime})


def _example_appendix_a(args):
    ex, eps, eta, rep = _appendix_a(args)
    return ({"example": "appendix-a", "n": args.n, "eps": eps, "eta": eta},
            {"ic_atoms": _atoms(ex.spectrum("ic")), "ic_mean": ex.ic_mean,
             "lambda_eps": ex.lambda_eps(eps), "lower_bound": rep.bound,
             "lambda_prime": rep.lambda_prime})


def _example_mixed(args):
    source = dsbs_source(args.q)
    head, tail = send_value_protocol(source), constant_protocol(source)
    _check_run(args)
    mix = MixedProtocol(head, tail, args.p, args.n)
    rng = np.random.default_rng([args.seed, 0])
    draws = mix.sample_ic(rng, args.trials) / args.n
    return ({"example": "mixed", "p": args.p, "n": args.n, "q": args.q,
             "trials": args.trials, "seed": args.seed},
            {"ic_mean": mix.ic_mean, "head_rate": head.ic_mean,
             "ic_identity": args.n * (args.p * head.ic_mean
                                      + (1 - args.p) * tail.ic_mean),
             "above_head_plus": float((draws > head.ic_mean + 0.05).mean()),
             "above_head_minus": float((draws > head.ic_mean - 0.05).mean())})


def _example_dsbs(args):
    law = send_value_protocol(dsbs_source(args.q))
    return ({"example": "dsbs", "q": args.q},
            {"ic_atoms": _atoms(law.spectrum("ic")), "ic_mean": law.ic_mean,
             "hsum_atoms": _atoms(spectrum(law.source, "sum"))})


# each bound kind and each example gives its report's (config, fields)
_BOUNDS = {"lower": _bound_lower, "second-order": _bound_second_order,
           "direct-product": _bound_direct_product, "beta": _bound_beta,
           "upper": _bound_upper}
_EXAMPLES = {"appendix-a": _example_appendix_a, "mixed": _example_mixed,
             "dsbs": _example_dsbs}


def cmd_report(args):
    """``bound`` and ``example``: the report of one bound kind or example."""
    config, fields = (_BOUNDS[args.kind] if args.command == "bound"
                      else _EXAMPLES[args.name])(args)
    _emit({"schema": SCHEMA, "config": config, **fields}, args.out)


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icsim")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectra and moments")
    p.add_argument("--source", required=True)
    p.add_argument("--protocol")
    p.add_argument("--spectrum", help="a law selector with --protocol "
                   "(default ic), else a density kind (default "
                   "cond_x_given_y)")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run simulation trials")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="view distance of a simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("exact", "plugin"), default="plugin")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bound", help="converse and achievability bounds")
    p.add_argument("kind", choices=("lower", "upper", "second-order",
                                    "direct-product", "beta"))
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--eps", default="auto")
    p.add_argument("--eta", type=float)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=4.0)
    # None: bound lower reports its appendix-a example, the other kinds
    # read dsbs:0.25 and send-x
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--p")
    p.add_argument("--q")
    p.add_argument("--lam", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("example", help="built-in showcase constructions")
    p.add_argument("name", choices=("appendix-a", "mixed", "dsbs"))
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--eps", default="auto")
    p.add_argument("--eta", type=float)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.45)
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (IcsimError, FileNotFoundError) as exc:
        _fail(str(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
