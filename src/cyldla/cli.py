"""Command-line surface for graph generation, spectra, sweeps, and rendering.

Every run echoes its fully resolved configuration to stderr as a single
``# config: {...}`` line.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 sampling abort (step cap or sampler range).  The
environment variable ``CYLDLA_SEED`` supplies the default seed.  All numeric
output uses '.' as the decimal separator regardless of locale.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import dla, render, verify
from .cylinder import (
    DEFAULT_EXCURSION_CAP,
    SamplingRangeError,
    long_excursion_frequency,
)
from .dla import CapExceededError
from .experiment import (
    ExperimentConfig,
    csv_lines,
    density_csv_rows,
    estimate_density,
    fit_growth_exponent,
    growth_csv_rows,
    run_replicas,
    run_sweep,
)
from .graphs import add_self_loops, edge_list_lines, parse_graph_spec, validate
from .spectral import check_fast_mixing, eigen_profile, mixing_time
from .stats import BOUND_SIGMAS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


def _seed(flag: str | None) -> int:
    """The run's seed: ``--seed`` if given, else ``CYLDLA_SEED``, else 0; never negative."""
    source, text = "--seed", flag
    if flag is None:
        source, text = "CYLDLA_SEED", os.environ.get("CYLDLA_SEED", "0")
    if not text.strip().isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(text)


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"# config: {json.dumps(resolved, sort_keys=True, default=str)}", file=sys.stderr)


def _emit(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")


def cmd_gen_graph(args) -> int:
    g = parse_graph_spec(args.spec)
    if args.add_loops:
        g = add_self_loops(g)
    diag = validate(g)
    print(
        f"# validate {g.label}: size_ok={diag.size_ok} regular={diag.regular} "
        f"symmetric={diag.symmetric} connected={diag.connected}",
        file=sys.stderr,
    )
    _emit(edge_list_lines(g), args.out)
    return EXIT_OK if diag.passed else EXIT_CHECK_FAILED


def _print_check(check, prefix: str = "") -> None:
    """One ``# name: estimate ... -> verdict`` line on stderr, with any caveat."""
    caveat = f" ({check.applicability})" if check.applicability else ""
    print(
        f"# {prefix}{check.name}: estimate {check.estimate!r} {check.direction} "
        f"{check.bound_value!r} -> {check.verdict}{caveat}",
        file=sys.stderr,
    )


def _profile_csv(g, mixing) -> list[str]:
    prof = eigen_profile(g)
    mix = "" if mixing is None else str(mixing)
    return [
        "n,d,lambda,gap,mixing_time",
        f"{g.n},{g.d},{prof.lam!r},{prof.gap!r},{mix}",
    ]


def cmd_spectra(args) -> int:
    g = parse_graph_spec(args.spec)
    _emit(_profile_csv(g, None), args.out)
    return EXIT_OK


def cmd_mixing(args) -> int:
    g = parse_graph_spec(args.spec)
    t = mixing_time(g, args.cap)
    _emit(_profile_csv(g, t if t is not None else "exceeded-cap"), args.out)
    if t is None:
        print(
            f"# fast-mixing-hypothesis: not decided, the mixing time exceeds the cap {args.cap}",
            file=sys.stderr,
        )
    else:
        _print_check(check_fast_mixing(g.n, t))
    return EXIT_OK


def cmd_excursions(args) -> int:
    g = parse_graph_spec(args.spec)
    study = long_excursion_frequency(g, args.alpha, args.trials, args.seed, cap=args.cap)
    lines = ["trial,sign,g_steps,total_steps,alpha_long"]
    longs = (study.signs == 1) & ~study.capped & (study.g_steps >= study.alpha)
    for i in range(study.trials):
        lines.append(
            f"{i},{study.signs[i]},{study.g_steps[i]},{study.lengths[i]},{int(longs[i])}"
        )
    _emit(lines, args.out)
    bc = study.bound_check
    print(
        f"# positive {args.alpha:g}-long frequency {bc.estimate!r} vs lower bound "
        f"{bc.bound_value!r}: {bc.verdict}; cap_hits={study.positive_long.cap_hits}",
        file=sys.stderr,
    )
    return EXIT_OK


def _layers(args) -> int:
    """``--layers``, refused before any drop where no sequence could hold that many layers."""
    if args.layers > sys.maxsize:
        raise ValueError(f"--layers must be at most {sys.maxsize}, got {args.layers}")
    return args.layers


def _sweep_config(args, phi=None, probes=0) -> ExperimentConfig:
    return ExperimentConfig(
        graph_spec=args.spec,
        target_layers=tuple(range(1, _layers(args) + 1)),
        replicas=args.replicas,
        base_seed=args.seed,
        step_cap=args.cap,
        density_overshoot=phi,
        probe_trials=probes,
        output_dir=args.out,
    )


def cmd_simulate(args) -> int:
    if args.out is not None:
        outputs = run_sweep(_sweep_config(args, phi=args.phi, probes=args.probes))
        print(f"wrote {outputs.growth_csv}")
        print(f"wrote {outputs.density_csv}")
        if outputs.probes_csv:
            print(f"wrote {outputs.probes_csv}")
        return EXIT_OK
    if args.probes:
        raise ValueError("--probes needs --out")
    # T_m reads only the stream prefix up to layer m, so no overshoot is grown
    # and its warning does not apply; config_hash still carries it, so these
    # bytes equal the growth.csv that --out writes
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"overshoot \d+ exceeds half")
        config = _sweep_config(args, phi=args.phi, probes=args.probes)
    graph = parse_graph_spec(args.spec)
    clusters = run_replicas(graph, args.layers, args.replicas, args.seed, args.cap)
    rows = growth_csv_rows(clusters, config.target_layers)
    _emit(csv_lines(config.config_hash(), "replica,m,T_m", rows), None)
    return EXIT_OK


def cmd_density(args) -> int:
    config = _sweep_config(args, phi=args.phi)
    if args.replicas < 2:
        raise ValueError(f"density needs --replicas >= 2 for its 3-sigma checks, got {args.replicas}")
    result = estimate_density(config)
    lines = csv_lines(config.config_hash(), "replica,m,phi,D_m", density_csv_rows(result))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _emit(lines, os.path.join(args.out, "density.csv"))
    else:
        _emit(lines, None)
    top = result.per_layer[-1]
    print(f"# {top.leak_note}", file=sys.stderr)
    for check in top.bound_checks:
        _print_check(check)
    for cons in (top.consistency, top.first_touch_consistency):
        print(
            f"# {cons.name}: {cons.left!r} vs {cons.right!r} "
            f"(3*sigma={BOUND_SIGMAS * cons.combined_sigma!r}) -> {'ok' if cons.ok else 'apart'}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    failed = 0
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, "-", r.detail)
        failed += 0 if r.passed else 1
    print(f"# {len(results) - failed}/{len(results)} checks passed (suite={args.suite}, seed={args.seed})")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_render(args) -> int:
    snap = dla.load_snapshot(args.snapshot)
    try:
        graph = parse_graph_spec(snap.graph)
    except ValueError as exc:
        raise ValueError(f"snapshot graph {snap.graph!r} is not a graph spec: {exc}") from None
    dla.cluster_from_snapshot(snap, graph)
    result = render.render_snapshot(snap, style=args.style, fmt=args.format, scale=args.scale)
    for w in result.warnings:
        print(f"# warning: {w}", file=sys.stderr)
    with open(args.out, "wb") as fh:
        fh.write(result.data)
    print(f"wrote {args.out} ({result.width}x{result.height} {result.style} {result.fmt})")
    return EXIT_OK


def cmd_fit_gamma(args) -> int:
    family = fit_growth_exponent(args.specs, _layers(args), args.replicas, args.seed, cap=args.cap)
    for spec, base in zip(args.specs, family.bases):
        top = base.per_layer[-1]
        print(
            f"# {spec}: T_{top.m} estimate {top.summary.mean!r} "
            f"(ci95 {top.summary.ci95!r}), pathwise_monotone={base.pathwise_monotone}",
            file=sys.stderr,
        )
        for check in top.bound_checks:
            _print_check(check, prefix=f"{spec} ")
    fit = family.gamma_fit
    print(f"gamma={fit.gamma!r} intercept={fit.intercept!r} residual_norm={fit.residual_norm!r}")
    for n, y in zip(fit.ns, fit.t_over_m):
        print(f"point n={n} T_over_m={y!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyldla",
        description="Growth and random-walk experiments on graph cylinders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="build a base graph and export its edge list")
    p.add_argument("spec", help="graph spec, e.g. cycle:500 or random:100:4:seed=7")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--add-loops", action="store_true", help="add one self loop per vertex")
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("spectra", help="eigenvalue profile of the base walk")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("mixing", help="pointwise lazy mixing time")
    p.add_argument("spec")
    p.add_argument("--cap", type=int, default=10_000, help="iteration cap")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("excursions", help="sample excursions at a high start layer")
    p.add_argument("spec")
    p.add_argument("--alpha", type=float, required=True, help="required same-layer moves")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed")
    p.add_argument("--cap", type=int, default=DEFAULT_EXCURSION_CAP, help="steps per excursion")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_excursions)

    p = sub.add_parser("simulate", help="replicated growth sweep (schema-A CSV)")
    p.add_argument("spec")
    p.add_argument("--layers", type=int, required=True, help="largest target layer")
    p.add_argument("--replicas", type=int, default=30)
    p.add_argument("--seed")
    p.add_argument("--cap", type=int, default=dla.DEFAULT_STEP_CAP, help="literal step cap per drop")
    p.add_argument("--phi", type=int, default=None, help="density overshoot layers")
    p.add_argument("--probes", type=int, default=0, help="probe trials for schema-C output")
    p.add_argument("--out", default=None, help="output directory (default: CSV to stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density", help="density estimates with overshoot (schema-B CSV)")
    p.add_argument("spec")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--phi", type=int, default=None, help="overshoot (default ceil(sqrt(m))+10)")
    p.add_argument("--replicas", type=int, default=30)
    p.add_argument("--seed")
    p.add_argument("--cap", type=int, default=dla.DEFAULT_STEP_CAP)
    p.add_argument("--out", default=None, help="output directory (default stdout)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*verify.SUITES, "all"))
    p.add_argument("--seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a cluster snapshot")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True, help="image output path")
    p.add_argument("--style", choices=("auto", "pixels", "bars"), default="auto")
    p.add_argument("--format", choices=("ppm", "svg"), default="ppm")
    p.add_argument("--scale", type=int, default=4)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fit-gamma", help="fit the growth exponent across a family")
    p.add_argument("specs", nargs="+", help="at least three graph specs of increasing size")
    p.add_argument("--layers", type=int, required=True, help="target layer m")
    p.add_argument("--replicas", type=int, default=20)
    p.add_argument("--seed")
    p.add_argument("--cap", type=int, default=dla.DEFAULT_STEP_CAP)
    p.set_defaults(func=cmd_fit_gamma)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args):
            args.seed = _seed(args.seed)
        _echo_config(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for w in caught:
            print(f"# warning: {w.message}", file=sys.stderr)
        return code
    except CapExceededError as exc:
        print(f"error: step cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SamplingRangeError as exc:
        print(f"error: sampling range exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
