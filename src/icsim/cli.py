"""Command line front end.

Subcommands: ``analyze`` (spectra and moments), ``simulate`` (run trials),
``bound`` (converse and achievability evaluators), ``eval`` (view distance),
``example`` (the built-in showcase constructions).  All reports are JSON
with sorted keys and embed the resolved configuration and seed, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
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
    FiniteDistribution,
    JointSource,
    SliceConfig,
    auto_slice_config,
    dsbs_source,
    product_source,
    spectrum,
)
from .protocol import (
    TranscriptLaw,
    appendix_threshold_example,
    constant_protocol,
    data_exchange_protocol,
    mixed_protocol,
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


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(doc: dict, key: str):
    """``doc[key]``; a missing key is a usage error."""
    if key not in doc:
        _fail(f"config lacks required key {key!r}", 2)
    return doc[key]


def parse_source(token) -> JointSource:
    """"dsbs:q", "dsbs^m:q" or an inline JSON document."""
    if isinstance(token, dict):
        try:
            return JointSource.from_json(token)
        except KeyError as exc:
            _fail(f"source document lacks required key {exc.args[0]!r}", 2)
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
    if token.startswith("noisy-send:"):
        try:
            crossover = float(token.removeprefix("noisy-send:"))
        except ValueError:
            _fail(f"malformed target {token!r}: expected noisy-send:p", 2)
        return noisy_send_protocol(source, crossover)
    _fail(f"unknown target protocol {token!r}", 2)


def _slice_from_cfg(doc, spec, gamma_default=3.0) -> SliceConfig:
    if doc is None or doc == "auto":
        return auto_slice_config(spec, gamma=gamma_default)
    return SliceConfig(lambda_min=float(_require(doc, "lambda_min")),
                       lambda_max=float(_require(doc, "lambda_max")),
                       delta=float(_require(doc, "delta")),
                       gamma=float(doc.get("gamma", gamma_default)))


def build_engine(cfg: dict):
    """Build a simulation engine from a config document."""
    source = parse_source(_require(cfg, "source"))
    proto = _require(cfg, "protocol")
    gamma = float(cfg.get("gamma", 3.0))
    if proto == "p1":
        return SlepianWolfCoder(source, int(_require(cfg, "l")), gamma)
    if proto == "p2":
        spec = spectrum(source, "cond_x_given_y")
        s = _slice_from_cfg(cfg.get("slice"), spec, gamma)
        return InteractiveSWCoder(source, s, cfg.get("l"))
    target = parse_target(_require(cfg, "target"), source)
    if proto in ("p3", "p4"):
        view = target.round_view(1, ())
        p_m_x = view.p_m_given_x
        rx_spec = round_density_spectrum(target, 1, "rx")
        cfg_rx = _slice_from_cfg(cfg.get("slice_rx"), rx_spec, gamma)
        if proto == "p3":
            return RoundSimulator(source, p_m_x, view.messages, cfg_rx,
                                  int(cfg.get("k", 0)))
        tx_spec = round_density_spectrum(target, 1, "tx")
        cfg_tx = _slice_from_cfg(cfg.get("slice_tx"), tx_spec, gamma)
        return ImprovedRoundSimulator(source, p_m_x, view.messages,
                                      cfg_rx, cfg_tx,
                                      k_override=cfg.get("k_override"))
    if proto == "p5":
        if "plans" in cfg:
            plans = []
            for t, doc in enumerate(cfg["plans"], start=1):
                rx_spec = round_density_spectrum(target, t, "rx")
                tx_spec = round_density_spectrum(target, t, "tx")
                plans.append(RoundPlan(
                    _slice_from_cfg(doc.get("rx"), rx_spec, gamma),
                    _slice_from_cfg(doc.get("tx"), tx_spec, gamma)))
        else:
            plans = auto_round_plans(target, gamma=gamma)
        return ProtocolSimulator(target, plans,
                                 l_max=float(cfg.get("l_max", math.inf)),
                                 k_override=cfg.get("k_override"))
    _fail(f"unknown protocol {proto!r}", 2)


def _load_cfg(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    source = parse_source(args.source)
    doc = {"schema": SCHEMA, "config": {"source": args.source}}
    if args.protocol:
        law = parse_target(args.protocol, source)
        spec = law.spectrum(args.spectrum)
        doc["config"]["protocol"] = args.protocol
    else:
        spec = spectrum(source, args.spectrum)
    ms = spec.moments()
    doc.update({
        "spectrum": args.spectrum,
        "atoms": [[float(v), float(p)] for v, p in zip(spec.values, spec.probs)],
        "mean": ms.mean, "variance": ms.variance,
        "third_central": ms.third_central,
    })
    if args.csv:
        spec.to_csv(args.csv)
        doc["csv"] = args.csv
    _emit(doc, args.out)


def cmd_simulate(args):
    cfg = _load_cfg(args.config)
    engine = build_engine(cfg)
    agg = run_trials(engine, args.trials, args.seed)
    stats = comm_stats(agg)
    doc = {
        "schema": SCHEMA,
        "config": cfg,
        "seed": args.seed,
        "trials": args.trials,
        "mismatch_rate": agg.mismatch_rate,
        "error_rate": agg.error_rate,
        "errors": dict(sorted(agg.errors.items())),
        "bits": {"mean": stats.mean, "max": stats.max,
                 "histogram": {str(k): v for k, v in stats.histogram.items()}},
    }
    if args.format == "csv":
        rows = ["bits,count"]
        rows += [f"{k},{v}" for k, v in stats.histogram.items()]
        text = "\n".join(rows) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    _emit(doc, args.out)


def cmd_eval(args):
    cfg = _load_cfg(args.config)
    engine = build_engine(cfg)
    if args.mode == "plugin":
        agg = run_trials(engine, args.trials, args.seed)
        est = measure_sim_error(engine, "plugin", master_seed=args.seed,
                                agg=agg)
    else:
        est = measure_sim_error(engine, "exact")
    budget = None
    if isinstance(engine, ImprovedRoundSimulator):
        budget = protocol4_tv_budget(engine)
    elif isinstance(engine, RoundSimulator):
        budget = protocol3_tv_budget(engine)
    elif isinstance(engine, ProtocolSimulator):
        budget = protocol5_tv_budget(engine)
    elif isinstance(engine, (SlepianWolfCoder, InteractiveSWCoder)):
        budget = engine.analytic_error_bound()
    _emit({
        "schema": SCHEMA, "config": cfg, "seed": args.seed,
        "mode": est.method, "tv": est.value,
        "ci_halfwidth": est.ci_halfwidth, "samples": est.samples,
        "budget": budget,
    }, args.out)


def _numeric_eps(args) -> float:
    """``--eps`` as a number; a usage error when it is ``auto`` or not a
    number.  Commands that resolve ``auto`` themselves (``bound lower``,
    ``example appendix-a``) do so before calling this, so only the bound
    kinds, which carry ``args.kind``, reach the ``auto`` message."""
    if args.eps == "auto":
        _fail(f"--eps auto applies only to bound lower; bound {args.kind} "
              "needs a number", 2)
    try:
        return float(args.eps)
    except ValueError:
        _fail(f"--eps must be a number, got {args.eps!r}", 2)


def cmd_bound(args):
    if args.kind == "lower":
        ex = appendix_threshold_example(args.n)
        eps = ex.eps_auto if args.eps == "auto" else _numeric_eps(args)
        eta = args.eta if args.eta is not None else eps
        rep = lower_bound(SpectraBundle.from_protocol(ex), eps, eta)
        _emit({
            "schema": SCHEMA,
            "config": {"kind": "lower", "example": "appendix-a",
                       "n": args.n, "eps": eps, "eta": eta},
            "bound": rep.bound, "lambda_eps": rep.lambda_eps,
            "lambda_prime": rep.lambda_prime, "eps_prime": rep.eps_prime,
            "lengths": list(rep.lengths), "vacuous": rep.vacuous,
        }, args.out)
        return
    if args.kind == "second-order":
        eps = _numeric_eps(args)
        source = parse_source(args.source)
        law = parse_target(args.target, source)
        ms = law.spectrum("ic").moments()
        val = second_order_predict(ms, args.n, eps)
        _emit({
            "schema": SCHEMA,
            "config": {"kind": "second-order", "source": args.source,
                       "target": args.target, "n": args.n, "eps": eps},
            "prediction": val, "mean": ms.mean, "variance": ms.variance,
        }, args.out)
        return
    if args.kind == "direct-product":
        source = parse_source(args.source)
        law = parse_target(args.target, source)
        rep = direct_product_thresholds(law.spectrum("ic"), args.n,
                                        args.delta)
        _emit({
            "schema": SCHEMA,
            "config": {"kind": "direct-product", "source": args.source,
                       "target": args.target, "n": args.n,
                       "delta": args.delta},
            "sim_threshold": rep.sim_threshold, "exponent": rep.exponent,
            "tail_lower_bound": rep.tail_lower_bound,
            "vacuous": rep.vacuous,
        }, args.out)
        return
    if args.kind == "beta":
        eps = _numeric_eps(args)
        if args.p is None or args.q is None:
            _fail("bound beta needs --p and --q", 2)
        p = [float(v) for v in args.p.split(",")]
        q = [float(v) for v in args.q.split(",")]
        syms = tuple(range(len(p)))
        pd = FiniteDistribution(syms, np.array(p))
        qd = FiniteDistribution(syms, np.array(q))
        doc = {
            "schema": SCHEMA,
            "config": {"kind": "beta", "p": p, "q": q, "eps": eps},
            "beta": beta_eps(pd, qd, eps),
        }
        if args.lam is not None:
            doc["upper"] = beta_eps_upper(pd, qd, eps, args.lam)
            doc["config"]["lam"] = args.lam
        _emit(doc, args.out)
        return
    if args.kind == "upper":
        eps = _numeric_eps(args)
        source = parse_source(args.source)
        law = parse_target(args.target, source)
        rounds = round_budget_inputs(
            law, auto_round_plans(law, gamma=args.gamma))
        budget = upper_bound_budget(rounds, args.gamma, eps,
                                    law.spectrum("ic"))
        _emit({
            "schema": SCHEMA,
            "config": {"kind": "upper", "source": args.source,
                       "target": args.target, "eps": eps,
                       "gamma": args.gamma},
            "l_max": budget.l_max, "lambda_prime": budget.lambda_prime,
            "eps_prime": budget.eps_prime,
        }, args.out)
        return
    _fail(f"unknown bound kind {args.kind!r}", 2)


def cmd_example(args):
    if args.name == "appendix-a":
        ex = appendix_threshold_example(args.n)
        eps = ex.eps_auto if args.eps == "auto" else _numeric_eps(args)
        eta = args.eta if args.eta is not None else eps
        spec = ex.spectrum("ic")
        rep = lower_bound(SpectraBundle.from_protocol(ex), eps, eta)
        _emit({
            "schema": SCHEMA,
            "config": {"example": "appendix-a", "n": args.n, "eps": eps,
                       "eta": eta},
            "ic_atoms": [[float(v), float(p)]
                         for v, p in zip(spec.values, spec.probs)],
            "ic_mean": ex.ic_mean,
            "lambda_eps": ex.lambda_eps(eps),
            "lower_bound": rep.bound,
            "lambda_prime": rep.lambda_prime,
        }, args.out)
        return
    if args.name == "mixed":
        source = dsbs_source(args.q)
        head = send_value_protocol(source)
        tail = constant_protocol(source)
        mix = mixed_protocol(head, tail, args.p, args.n)
        rng = np.random.default_rng([args.seed, 0])
        draws = mix.sample_ic(rng, args.trials) / args.n
        ic_h = head.ic_mean
        _emit({
            "schema": SCHEMA,
            "config": {"example": "mixed", "p": args.p, "n": args.n,
                       "q": args.q, "trials": args.trials,
                       "seed": args.seed},
            "ic_mean": mix.ic_mean,
            "ic_identity": args.n * (args.p * head.ic_mean
                                     + (1 - args.p) * tail.ic_mean),
            "head_rate": ic_h,
            "above_head_plus": float((draws > ic_h + 0.05).mean()),
            "above_head_minus": float((draws > ic_h - 0.05).mean()),
        }, args.out)
        return
    if args.name == "dsbs":
        source = dsbs_source(args.q)
        law = send_value_protocol(source)
        spec = law.spectrum("ic")
        _emit({
            "schema": SCHEMA,
            "config": {"example": "dsbs", "q": args.q},
            "ic_atoms": [[float(v), float(p)]
                         for v, p in zip(spec.values, spec.probs)],
            "ic_mean": law.ic_mean,
            "hsum_atoms": [[float(v), float(p)] for v, p in
                           zip(*(lambda s: (s.values, s.probs))(
                               spectrum(source, "sum")))],
        }, args.out)
        return
    _fail(f"unknown example {args.name!r}", 2)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icsim")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectra and moments")
    p.add_argument("--source", required=True)
    p.add_argument("--protocol")
    p.add_argument("--spectrum", default="ic")
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
    p.add_argument("--source", default="dsbs:0.25")
    p.add_argument("--target", default="send-x")
    p.add_argument("--p")
    p.add_argument("--q")
    p.add_argument("--lam", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

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
    p.set_defaults(func=cmd_example)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except IcsimError as exc:
        _fail(str(exc), 1)
    except FileNotFoundError as exc:
        _fail(str(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
