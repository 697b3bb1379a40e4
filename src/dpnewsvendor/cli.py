"""Command-line front end.

Subcommands::

    simulate   write a synthetic demand CSV
    fit        fit a (private or non-private) ordering policy from a CSV
    evaluate   out-of-sample cost of a saved fit on a test CSV
    privacy    print the privacy certificate for given hyperparameters
    bench      run a replication benchmark from a config file

Exit codes: 0 success, 2 usage/validation error, 3 I/O error,
4 privacy certificate requested but unattainable.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import sys
from dataclasses import dataclass

from . import data as datamod
from . import evaluation, optimizer
from .kernels import KERNEL_NAMES
from .model import Problem, coefficients
from .optimizer import HyperParams
from .privacy import PrivacyCertificate, calibrate_sigma

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PRIVACY = 4


class PrivacyUnattainable(RuntimeError):
    """A certificate was requested but the noise scale cannot provide it."""


# ---------------------------------------------------------------------------
# experiment config files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed benchmark configuration.

    ``cells`` holds one ``ReplicationConfig`` per grid point, in dist,
    then problem, then n order; each runs ``reps`` replications, the
    cells of one dist and problem as one sweep, in as many lanes as its
    rows call for, up to the usable CPUs (``evaluation.sweep``).
    """

    cells: tuple[evaluation.ReplicationConfig, ...]
    reps: int = 300


def _float_or_auto(raw: str) -> float | None:
    raw = raw.strip()
    if raw == "auto":
        return None
    return float(raw)


def _list_of(cast, key: str):
    def parse(raw: str) -> tuple:
        items = [item.strip() for item in raw.split(",") if item.strip()]
        values = tuple(cast(item) for item in items)
        if not values:
            raise ValueError(f"config key {key} lists no values")
        for i, value in enumerate(values):
            if value in values[:i]:
                # the rows of a repeated value would merge into one aggregate
                raise ValueError(f"config key {key} names the value {items[i]} twice")
        return values

    return parse


def _mu(item: str) -> float | None:
    return None if item == "nonprivate" else float(item)


# (section, key, field, parse), in file order.  taus, b, h, dists and ns
# span the grid, reps sets the run, and any other field names
# the ReplicationConfig setting of every cell.  Only the syntax is read
# here: ErrorDist.from_name, Problem and each cell's ReplicationConfig
# check the values when parse_config builds the cells.
_CONFIG_KEYS = (
    ("problem", "tau", "taus", _list_of(float, "problem.tau")),
    ("problem", "b", "b", float),
    ("problem", "h", "h", float),
    ("data", "dist", "dists", _list_of(str, "data.dist")),
    ("data", "n", "ns", _list_of(int, "data.n")),
    ("hyper", "T", "n_steps", int),
    ("hyper", "B", "clip_radius", float),
    ("hyper", "kernel", "kernel", str),
    ("hyper", "bandwidth", "bandwidth", _float_or_auto),
    ("hyper", "eta0", "step_size", _float_or_auto),
    ("hyper", "max_step", "max_step_size", float),
    ("hyper", "mode", "mode", str),
    ("privacy", "mu", "mu_grid", _list_of(_mu, "privacy.mu")),
    ("replication", "reps", "reps", int),
    ("replication", "base_seed", "base_seed", int),
    ("replication", "eval_n", "eval_n", int),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI-style benchmark config into its cells; unknown keys are rejected."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc

    sections = {section for section, *_ in _CONFIG_KEYS}
    keys = {(section, key): (name, parse) for section, key, name, parse in _CONFIG_KEYS}
    cell: dict = {"base_seed": 1}  # the bench's own seed; ReplicationConfig sets the rest
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in keys:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            name, parse = keys[section, key]
            cell[name] = parse(raw)

    taus, b, h = (cell.pop(name, None) for name in ("taus", "b", "h"))
    if b is None and h is None:
        problems = tuple(Problem.from_quantile(t) for t in taus or (0.5,))
    elif taus is not None:
        raise ValueError("config must set either problem.tau or problem.b/h, not both")
    elif b is None or h is None:
        raise ValueError("problem.b and problem.h must be given together")
    else:
        problems = (Problem(b=b, h=h),)
    run = {"reps": cell.pop("reps")} if "reps" in cell else {}
    dists, ns = cell.pop("dists", ("normal",)), cell.pop("ns", (400,))
    covariance = datamod.ar1_covariance(len(datamod.DEFAULT_THETA_STAR) - 1, 0.5)
    cells = tuple(
        evaluation.ReplicationConfig(
            problem=problem,
            error_dist=datamod.ErrorDist.from_name(dist),
            n=n,
            theta_star=datamod.DEFAULT_THETA_STAR,
            covariance=covariance,
            **cell,
        )
        for dist in dists
        for problem in problems
        for n in ns
    )
    return ExperimentConfig(cells=cells, **run)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec = datamod.default_spec(args.n, args.dist, args.seed)
    dataset = datamod.generate_synthetic(spec)
    header = ["demand"] + [f"z{j}" for j in range(1, dataset.p)]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for d, x in zip(dataset.demands, dataset.features):
            fh.write(",".join([repr(float(d))] + [repr(float(v)) for v in x[1:]]) + "\n")
    print(
        f"wrote {args.out}: n={dataset.n} feature_columns={dataset.p - 1} "
        f"dist={args.dist} seed={args.seed}"
    )
    return EXIT_OK


def _problem_from_args(args) -> Problem:
    if args.tau is not None:
        if args.b is not None or args.h is not None:
            raise ValueError("give either --tau or --b/--h, not both")
        return Problem.from_quantile(args.tau)
    if args.b is None or args.h is None:
        raise ValueError("either --tau or both --b and --h are required")
    return Problem(b=args.b, h=args.h)


def _certificate(mu, sigma, n_steps, clip_radius, tau_bar) -> PrivacyCertificate:
    """The certificate of a fit at these settings, checked before any CSV is read.

    ``sigma=None`` calibrates it, rounded up to an integer.  Invalid
    settings raise ValueError; a ``sigma`` below the bound raises PrivacyUnattainable.
    """
    required = calibrate_sigma(mu, clip_radius, n_steps, tau_bar, round_up=True)
    try:
        return PrivacyCertificate(
            mu=mu,
            sigma=required if sigma is None else sigma,
            n_steps=n_steps,
            clip_radius=clip_radius,
            tau_bar=tau_bar,
        )
    except ValueError as exc:
        raise PrivacyUnattainable(str(exc)) from exc


def cmd_fit(args) -> int:
    problem = _problem_from_args(args)
    if args.nonprivate:
        if args.mu is not None or args.sigma is not None:
            raise ValueError("give either --nonprivate or --mu/--sigma, not both")
        sigma = 0.0
    elif args.mu is None:
        raise ValueError("either --mu or --nonprivate is required")
    else:
        # calibrates sigma and refuses it before the CSV is read; the
        # certificate written is the one the fit returns
        sigma = _certificate(args.mu, args.sigma, args.T, args.B, problem.tau_bar).sigma
    dataset = datamod.load_csv(args.input, args.demand_column)
    # the settings of both fits, checked before either runs; raw
    # covariates: whitening would read the private rows' X'X/n, which
    # the certificate does not cover
    hp = HyperParams(
        bandwidth=(
            optimizer.default_bandwidth(problem.tau, dataset.n, dataset.p)
            if args.bandwidth is None
            else args.bandwidth
        ),
        n_steps=args.T,
        clip_radius=args.B,
        step_size=args.eta0,
        mu=args.mu,
        sigma=sigma,
        seed=args.seed,
        kernel=args.kernel,
        mode="raw_covariates",
        max_step_size=args.max_step,
    )

    resolved = {
        "input": args.input,
        "n": dataset.n,
        "p": dataset.p,
        "b": problem.b,
        "h": problem.h,
        "tau": problem.tau,
        "kernel": hp.kernel,
        "bandwidth": hp.bandwidth,
        "eta0": hp.step_size,
        "max_step": hp.max_step_size,
        "seed": hp.seed,
    }

    if args.nonprivate:
        cert = None
        beta = optimizer.smoothed_erm(dataset, problem, hp.kernel, hp.bandwidth)
        ignored = ("eta0", "max_step", "seed", "T", "B", "sigma", "mu")  # the ERM reads none
        resolved |= {"mode": "nonprivate"} | dict.fromkeys(ignored)
        print("non-private smoothed ERM fit (no privacy certificate)")
    else:
        result = optimizer.fit(dataset, problem, hp)
        beta, cert = result.beta_final, result.certificate
        resolved |= {
            "mode": hp.mode, "T": hp.n_steps, "B": hp.clip_radius, "sigma": hp.sigma, "mu": cert.mu
        }
        ed = cert.eps_delta
        print(
            f"fit is {cert.mu}-GDP (sigma={cert.sigma}); equivalently "
            f"({ed.epsilon:g}, {ed.delta:.6g})-DP"
        )
        if hp.step_size is None:
            print(
                "note: step sizes came from a data-driven line search, which is "
                "outside the certificate's accounting; pass --eta0 to fix them"
            )
    payload = {
        "beta": [float(v) for v in beta],
        "certificate": None if cert is None else cert.as_dict(),
        "resolved": resolved,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    problem = _problem_from_args(args)  # before either file is read
    with open(args.fit, "r", encoding="utf-8") as fh:
        try:
            beta = coefficients(json.load(fh)["beta"])
            if not (abs(beta) < float("inf")).all():
                raise ValueError(f"non-finite coefficients {beta.tolist()}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{args.fit}: not a fit file with a finite 1-d 'beta' list ({exc})"
            ) from exc
    dataset = datamod.load_csv(args.test, args.demand_column)
    cost = evaluation.out_of_sample_cost(problem, beta, dataset)
    out = {"n_test": dataset.n, "oos_cost": cost}
    print(json.dumps(out, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_privacy(args) -> int:
    cert = _certificate(args.mu, args.sigma, args.T, args.B, _problem_from_args(args).tau_bar)
    print(json.dumps(cert.as_dict(), indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:  # a missing file exits 3 in main
        config = parse_config(fh.read())
    # an output that cannot be written exits 3 in main before any replication runs
    for path in (args.rows, args.aggregates):
        open(path, "w", encoding="utf-8").close()
    rows = []
    # the cells of one (dist, problem) differ only in n: one sweep draws
    # their evaluation set and replication streams once
    for _, group in itertools.groupby(config.cells, lambda c: (c.error_dist, c.problem)):
        cells = list(group)
        report = evaluation.sweep(cells[0], [c.n for c in cells], config.reps)
        rows.extend(report.rows)
        per_cell = len(report.rows) // len(cells)
        for cell in cells:
            eta_desc = "auto" if cell.step_size is None else repr(cell.step_size)
            print(
                f"cell dist={cell.error_dist.label} tau={cell.problem.tau:g} n={cell.n}: "
                f"{per_cell} rows (bandwidth={cell.resolved_bandwidth():.6g}, "
                f"eta0={eta_desc}, T={cell.n_steps}, B={cell.clip_radius:g})"
            )
    combined = evaluation.ReplicationReport(rows=tuple(rows))
    evaluation.write_rows_csv(combined, args.rows)
    evaluation.write_aggregates_csv(combined, args.aggregates)
    print(f"wrote {args.rows} and {args.aggregates}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnv",
        description="Privacy-preserving feature-based newsvendor policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic demand CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--dist", choices=datamod.DIST_NAMES, default="normal")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    # flags shared by several commands, each defined once
    column = argparse.ArgumentParser(add_help=False)
    column.add_argument("--demand-column", default="demand")
    costs = argparse.ArgumentParser(add_help=False)
    for flag in ("--b", "--h", "--tau"):
        costs.add_argument(flag, type=float)
    steps = argparse.ArgumentParser(add_help=False)
    steps.add_argument("--T", type=int, default=10)
    steps.add_argument("--B", type=float, default=2.0)
    steps.add_argument("--sigma", type=float)

    p_fit = sub.add_parser(
        "fit", parents=[column, costs, steps], help="fit an ordering policy from a CSV"
    )
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--mu", type=float)
    p_fit.add_argument("--nonprivate", action="store_true")
    p_fit.add_argument("--kernel", choices=KERNEL_NAMES, default="gaussian")
    p_fit.add_argument("--bandwidth", type=_float_or_auto, default=None,
                       help="positive float or 'auto' (default)")
    p_fit.add_argument("--eta0", type=_float_or_auto, default=None,
                       help="positive float or 'auto' (default: per-step line search)")
    p_fit.add_argument("--max-step", type=float, default=4.0)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser(
        "evaluate", parents=[column, costs], help="out-of-sample cost of a saved fit"
    )
    p_eval.add_argument("--fit", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_evaluate)

    p_priv = sub.add_parser(
        "privacy", parents=[costs, steps], help="print a privacy certificate as JSON"
    )
    p_priv.add_argument("--mu", type=float, required=True)
    p_priv.set_defaults(func=cmd_privacy)

    p_bench = sub.add_parser("bench", help="run a replication benchmark")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--rows", default="rows.csv")
    p_bench.add_argument("--aggregates", default="aggregates.csv")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivacyUnattainable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRIVACY
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
