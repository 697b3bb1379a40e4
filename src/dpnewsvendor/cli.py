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
import io
import json
import sys
from dataclasses import dataclass

from . import data as datamod
from . import evaluation, optimizer
from .errors import NonPositiveMu
from .kernels import KERNEL_NAMES, check_kernel
from .model import Problem, coefficients
from .optimizer import MODES, HyperParams
from .privacy import PrivacyCertificate, calibrate_sigma

DIST_NAMES = ("normal", "t3", "mixture")

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

    ``taus`` is used when the problem is given at quantile levels;
    otherwise ``b`` and ``h`` fix a single cost pair.  ``bandwidth`` and
    ``eta0`` are None when marked ``auto`` in the file.  ``mu_grid``
    entries are floats, with None for the ``nonprivate`` baseline.
    """

    taus: tuple[float, ...] | None = (0.5,)
    b: float | None = None
    h: float | None = None
    dists: tuple[str, ...] = ("normal",)
    ns: tuple[int, ...] = (400,)
    n_steps: int = 10
    clip_radius: float = 2.0
    kernel: str = "gaussian"
    bandwidth: float | None = None
    eta0: float | None = None
    max_step: float = 4.0
    mode: str = "known_sigma_matrix"
    mu_grid: tuple[float | None, ...] = (None, 0.9, 0.5, 0.3)
    round_up: bool = True
    reps: int = 300
    base_seed: int = 1
    eval_n: int = 1_000_000
    jobs: int = 1
    rows_path: str = "rows.csv"
    aggregates_path: str = "aggregates.csv"

    def __post_init__(self):
        if (self.b is None) != (self.h is None):
            raise ValueError("problem.b and problem.h must be given together")
        if (self.taus is None) == (self.b is None):
            raise ValueError("config must set either problem.tau or problem.b/problem.h")
        for d in self.dists:
            if d not in DIST_NAMES:
                raise ValueError(f"unknown dist {d!r}; valid: {', '.join(DIST_NAMES)}")
        check_kernel(self.kernel)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; valid: {', '.join(MODES)}")
        for mu in self.mu_grid:
            if mu is not None and not mu > 0:
                raise NonPositiveMu(f"privacy levels must be > 0, got {mu}")

    def problems(self) -> tuple[Problem, ...]:
        if self.taus is not None:
            return tuple(Problem.from_quantile(t) for t in self.taus)
        return (Problem(b=self.b, h=self.h),)


def _float_or_auto(raw: str) -> float | None:
    raw = raw.strip()
    if raw == "auto":
        return None
    return float(raw)


def _auto(value: float | None) -> str:
    return "auto" if value is None else repr(value)


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _list_of(cast):
    return lambda raw: tuple(cast(item.strip()) for item in raw.split(",") if item.strip())


def _joined(fmt):
    return lambda values: ", ".join(fmt(v) for v in values)


def _mu(item: str) -> float | None:
    return None if item == "nonprivate" else float(item)


def _mu_text(mu: float | None) -> str:
    return "nonprivate" if mu is None else repr(mu)


# (section, key, ExperimentConfig field, parse, format), in file order.
# serialize_config leaves out a field that is None unless its format is
# ``_auto``.
_CONFIG_KEYS = (
    ("problem", "tau", "taus", _list_of(float), _joined(repr)),
    ("problem", "b", "b", float, repr),
    ("problem", "h", "h", float, repr),
    ("data", "dist", "dists", _list_of(str), _joined(str)),
    ("data", "n", "ns", _list_of(int), _joined(str)),
    ("hyper", "T", "n_steps", int, str),
    ("hyper", "B", "clip_radius", float, repr),
    ("hyper", "kernel", "kernel", str.strip, str),
    ("hyper", "bandwidth", "bandwidth", _float_or_auto, _auto),
    ("hyper", "eta0", "eta0", _float_or_auto, _auto),
    ("hyper", "max_step", "max_step", float, repr),
    ("hyper", "mode", "mode", str.strip, str),
    ("privacy", "mu", "mu_grid", _list_of(_mu), _joined(_mu_text)),
    ("privacy", "round_up", "round_up", _parse_bool, lambda v: str(v).lower()),
    ("replication", "reps", "reps", int, str),
    ("replication", "base_seed", "base_seed", int, str),
    ("replication", "eval_n", "eval_n", int, str),
    ("replication", "jobs", "jobs", int, str),
    ("output", "rows", "rows_path", str.strip, str),
    ("output", "aggregates", "aggregates_path", str.strip, str),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI-style benchmark config; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc

    sections = {section for section, *_ in _CONFIG_KEYS}
    keys = {(section, key): (field, parse) for section, key, field, parse, _ in _CONFIG_KEYS}
    kwargs: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in keys:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            field, parse = keys[section, key]
            kwargs[field] = parse(raw)
    if "b" in kwargs or "h" in kwargs:
        if "taus" in kwargs:
            raise ValueError("config must set either problem.tau or problem.b/h, not both")
        kwargs["taus"] = None
    return ExperimentConfig(**kwargs)


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, field, _, fmt in _CONFIG_KEYS:
        value = getattr(config, field)
        if value is not None or fmt is _auto:
            sections.setdefault(section, {})[key] = fmt(value)
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


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


def _certificate(mu, sigma, n_steps, clip_radius, tau_bar, round_up) -> PrivacyCertificate:
    """The certificate of a fit at these settings, the CLI's only certification.

    ``sigma=None`` calibrates it.  Invalid settings raise ValueError; a
    given ``sigma`` below the calibration bound raises PrivacyUnattainable.
    """
    required = calibrate_sigma(mu, clip_radius, n_steps, tau_bar, round_up=round_up)
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
        cert = None
    elif args.mu is None:
        raise ValueError("either --mu or --nonprivate is required")
    else:
        cert = _certificate(args.mu, args.sigma, args.T, args.B, problem.tau_bar, round_up=True)
    dataset = datamod.load_csv(args.input, args.demand_column)
    bandwidth = (
        optimizer.default_bandwidth(problem.tau, dataset.n, dataset.p)
        if args.bandwidth is None
        else args.bandwidth
    )

    resolved = {
        "input": args.input,
        "n": dataset.n,
        "p": dataset.p,
        "b": problem.b,
        "h": problem.h,
        "tau": problem.tau,
        "kernel": args.kernel,
        "bandwidth": bandwidth,
        "eta0": args.eta0,
        "max_step": args.max_step,
        "seed": args.seed,
    }

    if cert is None:
        beta = optimizer.smoothed_erm(dataset, problem, args.kernel, bandwidth)
        resolved |= {"mode": "nonprivate", "T": None, "B": None, "sigma": None, "mu": None}
        print("non-private smoothed ERM fit (no privacy certificate)")
    else:
        # raw covariates: whitening would read the private rows' X'X/n,
        # which the certificate does not cover
        hp = HyperParams(
            bandwidth=bandwidth,
            n_steps=args.T,
            clip_radius=args.B,
            step_size=args.eta0,
            sigma=cert.sigma,
            seed=args.seed,
            kernel=args.kernel,
            mode="raw_covariates",
            max_step_size=args.max_step,
        )
        beta = optimizer.fit(dataset, problem, hp).beta_final
        resolved |= {"mode": hp.mode, "T": args.T, "B": args.B, "sigma": cert.sigma, "mu": args.mu}
        ed = cert.eps_delta
        print(
            f"fit is {cert.mu}-GDP (sigma={cert.sigma}); equivalently "
            f"({ed.epsilon:g}, {ed.delta:.6g})-DP"
        )
        if args.eta0 is None:
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
    with open(args.fit, "r", encoding="utf-8") as fh:
        try:
            beta = coefficients(json.load(fh)["beta"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{args.fit}: not a fit file with a 1-d 'beta' list ({exc})") from exc
    dataset = datamod.load_csv(args.test, args.demand_column)
    problem = _problem_from_args(args)
    cost = evaluation.out_of_sample_cost(problem, beta, dataset)
    out = {"n_test": dataset.n, "oos_cost": cost}
    print(json.dumps(out, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_privacy(args) -> int:
    if args.tau_bar is not None:
        if any(v is not None for v in (args.tau, args.b, args.h)):
            raise ValueError("give either --tau-bar or --tau/--b/--h, not both")
        tau_bar = args.tau_bar
    else:
        tau_bar = _problem_from_args(args).tau_bar
    cert = _certificate(args.mu, args.sigma, args.T, args.B, tau_bar, args.round_up)
    print(json.dumps(cert.as_dict(), indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_IO
    config = parse_config(text)
    reps = args.reps if args.reps is not None else config.reps
    jobs = args.jobs if args.jobs is not None else config.jobs
    rows_path = args.rows if args.rows is not None else config.rows_path
    aggregates_path = (
        args.aggregates if args.aggregates is not None else config.aggregates_path
    )

    all_rows = []
    for dist in config.dists:
        for problem in config.problems():
            for n in config.ns:
                cell = evaluation.ReplicationConfig(
                    problem=problem,
                    error_dist=datamod.ErrorDist.from_name(dist),
                    n=n,
                    theta_star=datamod.DEFAULT_THETA_STAR,
                    covariance=datamod.ar1_covariance(
                        len(datamod.DEFAULT_THETA_STAR) - 1, 0.5
                    ),
                    mu_grid=config.mu_grid,
                    n_steps=config.n_steps,
                    clip_radius=config.clip_radius,
                    kernel=config.kernel,
                    bandwidth=config.bandwidth,
                    step_size=config.eta0,
                    max_step_size=config.max_step,
                    mode=config.mode,
                    round_up_sigma=config.round_up,
                    eval_n=config.eval_n,
                    base_seed=config.base_seed,
                )
                report = evaluation.run_replications(cell, reps, jobs=jobs)
                all_rows.extend(report.rows)
                eta_desc = "auto" if config.eta0 is None else repr(config.eta0)
                print(
                    f"cell dist={dist} tau={problem.tau:g} n={n}: {len(report.rows)} rows "
                    f"(bandwidth={cell.resolved_bandwidth():.6g}, eta0={eta_desc}, "
                    f"T={config.n_steps}, B={config.clip_radius:g})"
                )
    combined = evaluation.ReplicationReport(
        rows=tuple(all_rows), aggregates=evaluation.aggregate_rows(all_rows)
    )
    evaluation.write_rows_csv(combined, rows_path)
    evaluation.write_aggregates_csv(combined, aggregates_path)
    print(f"wrote {rows_path} and {aggregates_path}")
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
    p_sim.add_argument("--dist", choices=DIST_NAMES, default="normal")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit an ordering policy from a CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--demand-column", default="demand")
    p_fit.add_argument("--b", type=float)
    p_fit.add_argument("--h", type=float)
    p_fit.add_argument("--tau", type=float)
    p_fit.add_argument("--mu", type=float)
    p_fit.add_argument("--nonprivate", action="store_true")
    p_fit.add_argument("--T", type=int, default=10)
    p_fit.add_argument("--B", type=float, default=2.0)
    p_fit.add_argument("--sigma", type=float)
    p_fit.add_argument("--kernel", choices=KERNEL_NAMES, default="gaussian")
    p_fit.add_argument("--bandwidth", type=_float_or_auto, default=None,
                       help="positive float or 'auto' (default)")
    p_fit.add_argument("--eta0", type=_float_or_auto, default=None,
                       help="positive float or 'auto' (default: per-step line search)")
    p_fit.add_argument("--max-step", type=float, default=4.0)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="out-of-sample cost of a saved fit")
    p_eval.add_argument("--fit", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--demand-column", default="demand")
    p_eval.add_argument("--b", type=float)
    p_eval.add_argument("--h", type=float)
    p_eval.add_argument("--tau", type=float)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_evaluate)

    p_priv = sub.add_parser("privacy", help="print a privacy certificate as JSON")
    p_priv.add_argument("--mu", type=float, required=True)
    p_priv.add_argument("--T", type=int, default=10)
    p_priv.add_argument("--B", type=float, default=2.0)
    p_priv.add_argument("--tau-bar", type=float)
    p_priv.add_argument("--b", type=float)
    p_priv.add_argument("--h", type=float)
    p_priv.add_argument("--tau", type=float)
    p_priv.add_argument("--sigma", type=float)
    p_priv.add_argument("--no-round-up", dest="round_up", action="store_false")
    p_priv.set_defaults(func=cmd_privacy)

    p_bench = sub.add_parser("bench", help="run a replication benchmark")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--rows")
    p_bench.add_argument("--aggregates")
    p_bench.add_argument("--reps", type=int)
    p_bench.add_argument("--jobs", type=int)
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
