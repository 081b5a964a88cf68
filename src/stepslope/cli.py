"""Command line entry points: lambda, solve, stepdown, simulate.

Exit codes: 0 success, 2 invalid input or usage, 1 numerical failure.
A NaN or inf numeric option or config field is invalid input (exit 2).
Design and response files are plain comma-separated numbers; schedules
travel as index,value CSV or as the JSON written by the lambda command.
"""
import functools
import hashlib
import json
import sys
import warnings
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import NumericalError, check_count
from .groups import WEIGHT_SCHEMES, GroupPartition, _scheme_weights, solve_group_slope, standardize
from .schedules import (
    _RULE_TABLE,
    build_schedule,
    schedule_csv_text,
    schedule_from_json,
    schedule_json_text,
    schedule_values_from_csv,
)
from .simlab import (
    CORRECTIONS,
    GROUP_SCALE_MODES,
    REQUIRED_FIELDS,
    ExperimentConfig,
    resolve_schedule,
    run_experiment,
    write_details_json,
    write_report_csv,
)
from .solver import DesignMatrix, solve_slope
from .stepdown import _STEPDOWN_RULES, stepdown_reject

_RULE_ROWS = {alias: row for row in _RULE_TABLE.values() for alias in row.aliases}
_RULE_CHOICES = ", ".join(_RULE_ROWS)


def _resolve_rule(token):
    row = _RULE_ROWS.get(token.strip().lower())
    if row is None:
        raise click.UsageError(f"unknown rule {token!r}; choose from: {_RULE_CHOICES}")
    return row


def _guarded(f):
    """Map exceptions to the exit-code contract, naming the bad input."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(1)
        except np.linalg.LinAlgError as exc:
            click.echo(f"numerical failure (linear algebra): {exc}", err=True)
            sys.exit(1)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _read_matrix(path, kind="matrix"):
    """A numeric CSV file as a non-empty 2-d array of finite numbers; kind
    names it in a refusal.  loadtxt's own warning on an empty file is
    silenced, so the refusal is the only message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except Exception as exc:
        raise ValueError(f"{path}: could not parse as a numeric CSV {kind} ({exc})")
    if X.size == 0:
        raise ValueError(f"{path}: empty {kind}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: {kind} contains non-finite entries")
    return X


def _read_vector(path):
    """One row or one column of finite numbers, as a 1-d array."""
    v = _read_matrix(path, "vector")
    if min(v.shape) > 1:
        raise ValueError(f"{path}: expected one row or one column, got {v.shape[0]}x{v.shape[1]}")
    return v.ravel()


def _sizes_option(ctx, param, text):
    """--group-sizes as a tuple of positive integers, None when unset."""
    if text is None:
        return None
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--group-sizes expects comma-separated integers, got {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise click.UsageError("--group-sizes entries must be positive integers")
    return sizes


def _write_or_echo(text, out):
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


@click.group()
@click.version_option(version=__version__)
def main():
    """Sorted-L1 estimation with stepdown-derived schedules."""


@main.command("lambda")
@click.option("--rule", required=True, help=f"Schedule rule, one of: {_RULE_CHOICES}.")
@click.option("--m", type=int, default=None, help="Schedule length (number of features).")
@click.option("--n", type=int, default=None, help="Sample size, for corrected rules.")
@click.option("--k", type=int, default=None, help="Familywise order k.")
@click.option("--alpha", type=float, default=None, help="Error level for kFWER/FDP rules.")
@click.option("--gamma", type=float, default=None, help="FDP exceedance fraction.")
@click.option("--q", type=float, default=None, help="FDR-style level for bh/group-max.")
@click.option("--sigma", type=float, default=None, help="Noise scale multiplier (feature rules).")
@click.option("--group-sizes", default=None, callback=_sizes_option,
              help="Comma-separated group sizes, required for group rules.")
@click.option("--weight-scheme", type=click.Choice(WEIGHT_SCHEMES), default=None,
              help="Group weights from sizes; group rules only, sqrt when omitted.")
@click.option("--design", "design_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Design CSV, required for monte-carlo rules.")
@click.option("--replicates", type=int, default=None, help="Monte-carlo draws per entry.")
@click.option("--mc-seed", "seed", type=int, default=None, help="Monte-carlo seed.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output path (.json for JSON, else CSV); stdout CSV when omitted.")
@_guarded
def lambda_cmd(rule, group_sizes, weight_scheme, design_path, out, **fields):
    """Build a regularization schedule and print or save it.

    The other options set the same-named rule parameter (--mc-seed sets
    seed); --group-sizes and --weight-scheme set ranks and weights.
    """
    row = _resolve_rule(rule)
    weights = design = None
    if "ranks" in row.required:
        if group_sizes is None:
            raise click.UsageError(f"rule {rule} requires --group-sizes")
        weights = tuple(_scheme_weights(group_sizes, weight_scheme or "sqrt"))
    else:
        for option, value in (("--group-sizes", group_sizes), ("--weight-scheme", weight_scheme)):
            if value is not None:
                raise click.UsageError(f"{option} does not apply to rule {rule}")
    if "design" in row.required:
        if design_path is None:
            raise click.UsageError(f"rule {rule} requires --design")
        design = _read_matrix(design_path)
    elif design_path is not None:
        raise click.UsageError("--design only applies to monte-carlo rules")
    schedule = build_schedule(row.name, ranks=group_sizes, weights=weights, design=design,
                              **fields)
    if out is not None and out.endswith(".json"):
        _write_or_echo(schedule_json_text(schedule), out)
    else:
        _write_or_echo(schedule_csv_text(schedule), out)


def _load_schedule_file(path):
    if path.endswith(".json"):
        return schedule_from_json(path).values
    return schedule_values_from_csv(path)


@main.command()
@click.option("--design", "design_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Design matrix CSV, one sample per row.")
@click.option("--response", "response_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Response vector CSV, one value per line.")
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Schedule file (CSV or JSON) from the lambda command.")
@click.option("--rule", default=None,
              help=f"Build the schedule inline instead, by rule: {_RULE_CHOICES}.")
@click.option("--k", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--groups", "groups_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Partition CSV (feature_index,group_id[,weight]).")
@click.option("--sigma", type=float, default=1.0, show_default=True,
              help="Noise scale multiplying the penalty.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iter", type=int, default=20000, show_default=True)
@click.option("--allow-unnormalized", is_flag=True,
              help="Skip the unit-column check on the design.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Fit JSON path; stdout when omitted.")
@_guarded
def solve(design_path, response_path, schedule_path, rule, groups_path, sigma, tol,
          max_iter, allow_unnormalized, out, **fields):
    """Fit the sorted-L1 estimator (optionally with a group penalty).

    --k, --alpha, --gamma and --q set the same-named parameters of an
    inline --rule and are refused with --schedule; --allow-unnormalized
    is refused with --groups, whose fits never check column norms.
    """
    design = _read_matrix(design_path)
    n, m = design.shape
    y = _read_vector(response_path)
    if y.size != n:
        raise ValueError(f"response length {y.size} does not match design rows {n}")
    partition = GroupPartition.from_csv(groups_path) if groups_path else None
    if (schedule_path is None) == (rule is None):
        raise click.UsageError("pass exactly one of --schedule or --rule")
    if partition is not None and allow_unnormalized:
        raise click.UsageError(
            "--allow-unnormalized does not apply with --groups: group fits "
            "standardize each block and never check column norms"
        )
    if schedule_path is not None:
        for name, value in fields.items():
            if value is not None:
                raise click.UsageError(
                    f"--{name} does not apply with --schedule; "
                    "it sets a parameter of an inline --rule"
                )
        lam = _load_schedule_file(schedule_path)
    else:
        row = _resolve_rule(rule)
        if "ranks" in row.required:
            if partition is None:
                raise click.UsageError(f"rule {rule} requires --groups")
            # a group's chi tail counts the dimensions its block spans after
            # standardization (its rank, not its size), which replaces X
            design = standardize(design, partition)
            fields.update(ranks=design.ranks, weights=tuple(partition.weights))
        fields.update({name: value for name, value in (("m", m), ("n", n), ("design", design))
                       if name in row.required})
        lam = build_schedule(row.name, **fields).values

    grouped = partition is not None
    if grouped:
        fit = solve_group_slope(design, y, partition, lam, sigma=sigma, tol=tol,
                                max_iter=max_iter)
    else:
        fit = solve_slope(DesignMatrix(design, require_unit_columns=not allow_unnormalized), y,
                          lam, sigma=sigma, tol=tol, max_iter=max_iter)
    # group-only keys are None on a feature fit and left out
    doc = {
        "n": n,
        "m": m,
        "num_groups": len(partition.groups) if grouped else None,
        "beta": [float(b) for b in fit.beta],
        "group_norms": [float(g) for g in fit.group_norms] if grouped else None,
        "selected_groups": sorted(int(g) for g in fit.selected_groups) if grouped else None,
        "support": sorted(int(i) for i in np.flatnonzero(fit.beta)),
        "iterations": int(fit.iterations),
        "restarts": int(fit.restarts),
        "backoffs": int(fit.backoffs),
        "matvecs": int(fit.matvecs),
        "rounds": int(fit.rounds),
        "full_matvecs": int(fit.full_matvecs),
        "final_gap": float(fit.final_gap),
        "objective": float(fit.objective),
        "converged": bool(fit.converged),
    }
    doc = {key: value for key, value in doc.items() if value is not None}
    _write_or_echo(json.dumps(doc, indent=1) + "\n", out)


@main.command()
@click.option("--pvalues", "pvalues_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="P-value CSV, one value per line.")
@click.option("--rule", type=click.Choice(list(_STEPDOWN_RULES)), required=True)
@click.option("--k", type=int, default=None, help="Familywise order (kfwer rule).")
@click.option("--alpha", type=float, required=True)
@click.option("--gamma", type=float, default=None, help="Exceedance fraction (fdp rule).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Result JSON path; stdout when omitted.")
@_guarded
def stepdown(pvalues_path, rule, k, alpha, gamma, out):
    """Run a stepdown multiple test and report the rejected indices.

    The kfwer rule takes --k and the fdp rule --gamma, and each refuses the
    other's option.  The JSON records the rule, its parameters (m is the
    p-value count), the stepdown thresholds and the rejected 0-based indices.
    """
    p = _read_vector(pvalues_path)
    levels, names = _STEPDOWN_RULES[rule]
    options = {"k": k, "gamma": gamma}
    for name, value in options.items():
        if name in names and value is None:
            raise click.UsageError(f"rule {rule} requires --{name}")
    for name, value in options.items():
        if name not in names and value is not None:
            raise click.UsageError(f"--{name} does not apply to rule {rule}")
    values = dict(options, m=p.size, alpha=alpha)
    params = {name: values[name] for name in names}
    thresholds = levels(**params)
    rejected = sorted(stepdown_reject(p, thresholds))
    doc = {
        "rule": rule,
        "params": params,
        "thresholds": [float(t) for t in thresholds],
        "rejected": [int(i) for i in rejected],
        "num_rejected": len(rejected),
    }
    _write_or_echo(json.dumps(doc, indent=1) + "\n", out)


def _available_presets():
    base = resources.files("stepslope").joinpath("presets")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def _load_preset(name):
    base = resources.files("stepslope").joinpath("presets")
    candidate = base.joinpath(f"{name}.json")
    if not candidate.is_file():
        known = ", ".join(_available_presets())
        raise click.UsageError(f"unknown preset {name!r}; available presets: {known}")
    return json.loads(candidate.read_text())


def _signal_option(ctx, param, text):
    """A numeric --signal is an amplitude; any other text names a strength."""
    try:
        return float(text)
    except (TypeError, ValueError):  # TypeError: the option is unset (None)
        return text


@main.command()
@click.option("--preset", default=None, help="Name of a bundled experiment preset.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON experiment file (single config or a list).")
@click.option("--design", default=None)
@click.option("--method", default=None)
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--signal", default=None, callback=_signal_option,
              help="Named strength or a numeric amplitude.")
@click.option("--alpha", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--k", type=int, default=None)
@click.option("--q", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--reps", "replications", type=int, default=None,
              help="Replications per experiment.")
@click.option("--seed", type=int, default=None, help="Base seed for every experiment.")
@click.option("--rho", type=float, default=None)
@click.option("--num-groups", type=int, default=None)
@click.option("--group-sizes", default=None, callback=_sizes_option,
              help="Comma-separated size classes.")
@click.option("--weight-scheme", type=click.Choice(WEIGHT_SCHEMES), default=None)
@click.option("--group-scale-mode", type=click.Choice(GROUP_SCALE_MODES), default=None)
@click.option("--correction", type=click.Choice(CORRECTIONS), default=None)
@click.option("--mc-replicates", type=int, default=None)
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker processes; results do not depend on this.")
@click.option("--out", "out_root", type=click.Path(file_okay=False), default="runs",
              show_default=True, help="Directory that run directories go under.")
@_guarded
def simulate(preset, config_path, threads, out_root, **fields):
    """Run simulation experiments and write report files to a run directory.

    The other options set the same-named ExperimentConfig field (--reps
    sets replications) in every experiment of a preset or config file.
    """
    if preset is not None and config_path is not None:
        raise click.UsageError("pass --preset or --config, not both")
    threads = check_count("threads", threads)
    overrides = {name: value for name, value in fields.items() if value is not None}

    doc = None
    if preset is not None:
        doc = _load_preset(preset)
    elif config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}: invalid JSON ({exc})")
        if isinstance(doc, list):
            doc = {"experiments": doc}
        elif isinstance(doc, dict) and "experiments" not in doc and "configs" in doc:
            # a run manifest replays as the experiment list it recorded, and its grid
            if not isinstance(doc["configs"], list):
                raise ValueError("configs must be a list of experiment objects")
            doc = dict(doc, experiments=[
                {k: v for k, v in c.items() if k != "config_id"} if isinstance(c, dict) else c
                for c in doc["configs"]
            ])
        elif not isinstance(doc, dict) or "experiments" not in doc:
            doc = {"experiments": [doc]}

    if doc is not None:
        if not isinstance(doc["experiments"], list):
            raise ValueError("experiments must be a list of experiment objects")
        configs = [ExperimentConfig.from_dict(d, **overrides) for d in doc["experiments"]]
        grid = doc.get("kfwer_grid")
        if grid is not None:
            if not isinstance(grid, list):
                raise ValueError(f"kfwer_grid must be a list of positive integers, got {grid!r}")
            grid = [check_count("kfwer_grid entries", k) for k in grid]
    else:
        missing = [name for name in REQUIRED_FIELDS if name not in overrides]
        if missing:
            raise click.UsageError(
                "without --preset or --config these options are required: "
                + ", ".join(f"--{name}" for name in missing)
            )
        configs = [ExperimentConfig.from_dict(overrides)]
        grid = None

    resolved = [resolve_schedule(c) for c in configs]

    run_id = hashlib.sha256(
        json.dumps([c.to_dict() for c in configs], sort_keys=True).encode()
    ).hexdigest()[:12]
    run_dir = Path(out_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    outputs = {"report": "report.csv", "details": "details.json"}
    manifest = {
        "command": "simulate",
        "code_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "preset": None if preset is None else {
            "name": doc["name"], "version": doc["version"],
        },
        "threads": threads,
        "configs": [dict(c.to_dict(), config_id=c.config_id()) for c in configs],
        "schedules": [prov for _, _, prov in resolved],
        "outputs": outputs,
    }
    if grid:
        manifest["kfwer_grid"] = grid
        outputs["grid"] = "kfwer_grid.csv"
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )

    reports = []
    for config, triple in zip(configs, resolved):
        reports.append(run_experiment(config, threads=threads, resolved=triple))

    write_report_csv(reports, run_dir / outputs["report"])
    write_details_json(reports, run_dir / outputs["details"])
    if grid:
        _write_grid_csv(reports, grid, run_dir / outputs["grid"])
    click.echo(f"run {run_id}: " + ", ".join(
        str(run_dir / name) for name in outputs.values()
    ))


def _write_grid_csv(reports, grid_ks, path):
    """Probability of at least k false selections, tabulated over k and t.

    Methods whose schedule or thresholds take a k contribute one row at
    their own k; the rest are evaluated at every k in the grid.
    """
    lines = ["config_id,design,method,t,k,estimate,se"]
    for report in reports:
        c = report.config
        ks = [c.k] if "k" in report.extras["schedule"]["params"] else list(grid_ks)
        for k in ks:
            est, se = report.kfwer_at(k)
            lines.append(
                f"{c.config_id()},{c.design},{c.method},{c.t},{k},{est:.17g},{se:.17g}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
