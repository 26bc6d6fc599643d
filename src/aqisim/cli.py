"""Command-line driver: generate instances, run algorithms against oracles,
verify guarantees on single instances and run seeded campaigns."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .adapters import aoi_multisource, remote_sampling_family, speed_scaling
from .harness import (
    ALL_CHECKS,
    CSV_COLUMNS,
    CampaignConfig,
    GENERATOR_MODES,
    check_instance,
    csv_row,
    generate,
    run_bundle,
    run_campaign,
    summary_to_text,
)
from .model import (
    AqiError,
    CostFamily,
    ParseError,
    linear,
    load_instance,
    parse_rational,
    shown,
    store_instance,
    validate_instance,
)
from .oracle import DEFAULT_BUDGET, offline_optimal


def _parse(convert, text: str, what: str):
    """`convert(text)`, with a malformed value reported as an AqiError."""
    try:
        return convert(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        raise AqiError(f"bad {what} {shown(text)}: {exc}") from None


def _budget(args) -> int:
    if args.budget is None:
        return DEFAULT_BUDGET
    return _checked(args.budget, "--budget", args.budget >= 1, "a node count >= 1")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_instance(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AqiError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    inst = load_instance(text)
    report = validate_instance(inst)
    if not report.ok:
        raise AqiError(f"{path}: invalid instance: " + "; ".join(report.problems))
    return inst


def _checked(value, what: str, ok: bool, expected: str):
    """`value`, reported as an AqiError unless `ok`."""
    if not ok:
        raise AqiError(f"bad {what} {shown(value)}: expected {expected}")
    return value


def _parse_seed_range(text: str) -> list[int]:
    bounds = [_parse(int, part, "--seeds bound") for part in text.split(":", 1)]
    seeds = list(range(*bounds)) if len(bounds) == 2 else bounds
    _checked(text, "--seeds", bool(seeds), "a non-empty range lo:hi with lo < hi")
    return seeds


def _deadline_prob(args) -> float:
    return _checked(args.deadline_prob, "--deadline-prob", 0 <= args.deadline_prob <= 1,
                    "a probability in [0, 1]")


def _samples(args) -> int:
    return _checked(args.samples, "--samples", args.samples >= 0, "a count >= 0")


def cmd_gen(args) -> int:
    inst = generate(args.packets, args.max_k, args.horizon, args.seed,
                    mode=args.mode, servers=args.servers,
                    deadline_prob=_deadline_prob(args))
    _emit(store_instance(inst), args.out)
    return 0


def cmd_run(args) -> int:
    inst = _read_instance(args.instance)
    report, traces = run_bundle(inst, args.algorithm, budget=_budget(args),
                                require_opt=args.require_opt)
    if args.trace_out:
        for name, run in traces.items():
            text = run.trace_jsonl() if name == "matching" else run.step_log_jsonl()
            Path(f"{args.trace_out}.{name}.jsonl").write_text(text)
            report.setdefault("trace_paths", []).append(f"{args.trace_out}.{name}.jsonl")
    if args.format == "csv":
        _emit(",".join(CSV_COLUMNS) + "\n" + csv_row(args.seed, report) + "\n", args.out)
    else:
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_opt(args) -> int:
    inst = _read_instance(args.instance)
    res = offline_optimal(inst, budget=_budget(args))
    doc = {
        "opt_value": res.valuation.to_json(),
        "allocation": res.allocation.to_json(),
        "nodes": res.nodes,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    config = CampaignConfig(seeds=[0], checks=tuple(args.checks), budget=_budget(args),
                            samples=_samples(args))
    results = check_instance(inst, config, seed=args.seed)
    ok = all(r["ok"] for r in results.values())
    _emit(json.dumps({"checks": results, "ok": ok}, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_campaign(args) -> int:
    config = CampaignConfig(
        seeds=_parse_seed_range(args.seeds),
        packets=args.packets, max_k=args.max_k, horizon=args.horizon,
        servers=args.servers, checks=tuple(args.checks),
        modes=tuple(args.modes), budget=_budget(args),
        deadline_prob=_deadline_prob(args), samples=_samples(args),
        mutate=args.mutate,
    )
    summary = run_campaign(config, out_dir=args.repro_dir)
    if args.format == "csv":
        lines = ["check,instances,pass,fail,skipped"]
        for name, slot in summary["checks"].items():
            lines.append(f"{name},{slot['instances']},{slot['pass']},{slot['fail']},{slot['skipped']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.out)
    sys.stderr.write(summary_to_text(summary))
    return 0 if summary["ok"] else 1


def _json_arg(text: str, what: str, shape: str, fits) -> object:
    """Decode a JSON argument and require `fits(doc)`; malformed JSON or a
    document of the wrong shape is reported as an AqiError."""
    doc = _parse(json.loads, text, what)
    if not fits(doc):
        raise AqiError(f"bad {what} {shown(text)}: expected {shape}")
    return doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def cmd_adapt_aoi(args) -> int:
    events = _json_arg(args.events, "--events", "an object of integer lists",
                       lambda d: isinstance(d, dict) and all(
                           isinstance(v, list) and all(map(_is_int, v)) for v in d.values()))
    raw = _json_arg(args.values, "--values", "an object", lambda d: isinstance(d, dict))
    try:
        values = {s: parse_rational(v, shown(s)) for s, v in raw.items()}
    except ParseError as exc:
        raise AqiError(f"bad --values {shown(args.values)}: {exc}") from None
    _, inst = aoi_multisource(events, values, args.horizon, capacity=args.capacity)
    _emit(store_instance(inst), args.out)
    return 0


def cmd_adapt_speedscale(args) -> int:
    jobs = _json_arg(args.jobs, "--jobs", "a list of [size, arrival] integer pairs",
                     lambda d: isinstance(d, list) and all(
                         isinstance(j, list) and len(j) == 2 and all(map(_is_int, j)) for j in d))
    powers = [
        linear(1) if kind == "linear"
        else CostFamily("power", params=(Fraction(1), Fraction(_parse(int, kind, "--powers entry"))))
        for kind in args.powers
    ]
    inst = speed_scaling(jobs, args.servers, powers, args.horizon,
                         unit_value=args.unit_value)
    _emit(store_instance(inst), args.out)
    return 0


def cmd_adapt_sampling(args) -> int:
    inst = remote_sampling_family(args.sources, args.samples_per_source,
                                  args.horizon, args.seed,
                                  max_fragments=args.max_fragments,
                                  fidelity=args.fidelity)
    _emit(store_instance(inst), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aqisim",
                                     description="online slotted-scheduling simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--packets", type=int, default=4)
    p.add_argument("--max-k", type=int, default=1, dest="max_k")
    p.add_argument("--horizon", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=GENERATOR_MODES, default="random")
    p.add_argument("--servers", type=int, default=1)
    p.add_argument("--deadline-prob", type=float, default=0.0, dest="deadline_prob")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run an algorithm on an instance, with oracle comparison")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=["matching", "greedy"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)
    p.add_argument("--require-opt", action="store_true", dest="require_opt")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--trace-out", dest="trace_out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("opt", help="exact offline optimum of an instance")
    p.add_argument("instance")
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("verify", help="run verification checks on one instance")
    p.add_argument("instance")
    p.add_argument("--checks", nargs="+", choices=list(ALL_CHECKS), default=list(ALL_CHECKS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=CampaignConfig.samples)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("campaign", help="seeded verification campaign")
    # every default is CampaignConfig's: a repro command names only the fields that differ
    p.add_argument("--seeds", default="0:50", help="range lo:hi or a single seed")
    p.add_argument("--packets", type=int, default=CampaignConfig.packets)
    p.add_argument("--max-k", type=int, default=CampaignConfig.max_k, dest="max_k")
    p.add_argument("--horizon", type=int, default=CampaignConfig.horizon)
    p.add_argument("--servers", type=int, default=CampaignConfig.servers)
    p.add_argument("--modes", nargs="+", default=list(CampaignConfig.modes), choices=GENERATOR_MODES)
    p.add_argument("--checks", nargs="+", choices=list(ALL_CHECKS), default=list(CampaignConfig.checks))
    p.add_argument("--deadline-prob", type=float, default=CampaignConfig.deadline_prob, dest="deadline_prob")
    p.add_argument("--samples", type=int, default=CampaignConfig.samples)
    p.add_argument("--budget", type=int)
    p.add_argument("--mutate", choices=["frozen-gain-bias"])
    p.add_argument("--repro-dir", dest="repro_dir")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("adapt-aoi", help="emit a multi-source freshness instance")
    p.add_argument("--events", required=True, help='JSON: {"s1": [1, 3, 4], ...}')
    p.add_argument("--values", required=True, help='JSON: {"s1": 10, ...}')
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--capacity", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_adapt_aoi)

    p = sub.add_parser("adapt-speedscale", help="emit a speed-scaling instance")
    p.add_argument("--jobs", required=True, help='JSON: [[size, arrival], ...]')
    p.add_argument("--servers", type=int, default=1)
    p.add_argument("--powers", nargs="+", default=["2"],
                   help='per-server power curve: "linear" or an integer exponent')
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--unit-value", type=int, default=None, dest="unit_value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_adapt_speedscale)

    p = sub.add_parser("adapt-sampling", help="emit a seeded multi-source sampling instance")
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--samples-per-source", type=int, default=2, dest="samples_per_source")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-fragments", type=int, default=3, dest="max_fragments")
    p.add_argument("--fidelity", choices=["saturating", "table"], default="saturating")
    p.add_argument("--out")
    p.set_defaults(func=cmd_adapt_sampling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AqiError, OSError) as exc:  # OSError: an unreadable input or unwritable --out path
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
