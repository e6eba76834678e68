"""Command-line front end.

Subcommands: bounds, sample-slab, sample-eden, concentration, subadd,
search-cross, ui-tail, couple-check. Every command writes its result
atomically (temp file in the target directory, then rename), prints a
one-line summary to stdout, and exits 0 on success. Bad parameters exit 2,
runtime failures exit 1; both emit a machine-readable JSON error record on
stderr. Floats in CSV output are printed with 17 significant digits and a
'.' decimal separator, so files round-trip bit-exactly.

A JSON config file may supply any long-flag value (``--config path``);
values given as flags override the file. Output bytes are a pure function
of the parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path

from .bounds import bound_report
from .errors import ConfigError, DomainError, FppError, SamplerMismatch, UnsupportedModel
from .experiments import (
    SAMPLERS,
    ExperimentConfig,
    concentration_curve,
    replicate_seeds,
    run_slab_mc,
    sample_crossing_values,
    search_cross_probe,
    subadditivity_check,
    ui_tail,
)
from .slab import DEFAULT_SETTLED_CAP
from .weights import FAMILIES, CouplingMap, WeightModel, couple_check

_CONFIG_EXIT = (ConfigError, DomainError, UnsupportedModel, SamplerMismatch)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(command: str, params: dict, header: list[str], rows: list[list],
                 extra: dict) -> str:
    payload = {
        **extra,
        "command": command,
        "params": params,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, text: str) -> None:
    """Write, fsync, rename over ``path``, then fsync its directory.

    The file gets the mode a plain open() would give it (0o666 minus the
    umask), not mkstemp's 0o600.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(f.fileno(), 0o666 & ~_umask())
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(args, command: str, params: dict, header: list[str], rows: list[list], *,
          extra: dict | None = None, summary: str | None = None) -> None:
    """Write the result file and print its one-line summary; ``extra`` adds
    top-level keys to the JSON form."""
    if args.format == "json":
        text = _render_json(command, params, header, rows, extra or {})
    else:
        text = _render_csv(header, rows)
    _atomic_write(args.out, text)
    print(summary or f"{command}: wrote {len(rows)} row(s) to {args.out}")


def _model_from_args(args) -> WeightModel:
    points = None
    if getattr(args, "points", None):
        try:
            raw = json.loads(args.points) if isinstance(args.points, str) else args.points
            points = tuple((float(y), float(x)) for y, x in raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad table points: {exc}")
    # couple-check takes no --seed: its table draws no weights
    return WeightModel(family=args.family, a=args.a, points=points,
                       seed=getattr(args, "seed", 0))


def _experiment_config(args, model: WeightModel) -> ExperimentConfig:
    return ExperimentConfig(
        d_grid=tuple(args.d),
        model=model,
        replicates=args.reps,
        budget_cap=args.budget_cap,
    )


# -- handlers -----------------------------------------------------------------

_SUMMARY_HEADER = ["d", "n", "mean", "variance", "ci95_lo", "ci95_hi",
                   "normalized_mean", "normalized_var"]


def _summary_rows(stats_by_d: dict) -> list[list]:
    rows = []
    for d, s in stats_by_d.items():
        lo, hi = s.ci95 if s.ci95 is not None else (None, None)
        rows.append([d, s.n, s.mean, s.variance, lo, hi,
                     s.normalized_mean, s.normalized_var])
    return rows


def _cmd_bounds(args) -> None:
    header = ["d", "a", "N", "ub1", "ub1Tail", "ub2", "ub2Tail",
              "ratio1", "ratio2", "asymptote"]
    rows = []
    for d in args.d:
        r = bound_report(d, args.a, args.N)
        rows.append([r.d, r.a, r.truncation_n, r.ub1, r.ub1_tail, r.ub2,
                     r.ub2_tail, r.ratio1, r.ratio2, r.asymptote])
    _emit(args, "bounds", {"d": args.d, "a": args.a, "N": args.N}, header, rows)


def _cmd_sample(args, sampler: str) -> None:
    model = _model_from_args(args)
    cfg = _experiment_config(args, model)
    params = {"sampler": sampler, "d": args.d, "reps": args.reps,
              "seed": args.seed, "family": model.family, "a": model.a,
              "mode": args.mode}
    if args.mode == "summary":
        stats = run_slab_mc(cfg, sampler)
        _emit(args, f"sample-{sampler}", params, _SUMMARY_HEADER, _summary_rows(stats))
        return
    header = ["d", "replicate", "seed", "value"]
    rows = []
    for d in cfg.d_grid:
        seeds = replicate_seeds(model, d, cfg.replicates)
        values = sample_crossing_values(cfg, sampler, d, seeds=seeds)
        for rep, (seed, v) in enumerate(zip(seeds, values)):
            rows.append([d, rep, seed, float(v)])
    _emit(args, f"sample-{sampler}", params, header, rows)


def _cmd_concentration(args) -> None:
    model = _model_from_args(args)
    cfg = _experiment_config(args, model)
    curve = concentration_curve(cfg, args.eta, sampler=args.sampler)
    header = ["d", "eta", "n", "p_hat", "wilson_lo", "wilson_hi"]
    rows = [[d, args.eta, e.n, e.p_hat, e.wilson_lo, e.wilson_hi]
            for d, e in curve.items()]
    _emit(args, "concentration",
          {"d": args.d, "eta": args.eta, "reps": args.reps, "seed": args.seed},
          header, rows)


def _cmd_subadd(args) -> None:
    model = _model_from_args(args)
    cfg = _experiment_config(args, model)
    reports = subadditivity_check(cfg, args.n)
    header = ["d", "n", "replicates", "lhs_mean", "lhs_se", "rhs_mean",
              "rhs_se", "combined_se", "pathwise_violations"]
    rows = [[r.d, r.n, r.replicates, r.lhs_mean, r.lhs_se, r.rhs_mean,
             r.rhs_se, r.combined_se, r.pathwise_violations]
            for r in reports.values()]
    _emit(args, "subadd",
          {"d": args.d, "n": args.n, "reps": args.reps, "seed": args.seed},
          header, rows)


def _cmd_search_cross(args) -> None:
    model = _model_from_args(args)
    header = ["d", "subspace_dim", "path_steps", "x_threshold", "y_threshold",
              "replicates", "p_hat_fj", "p_hat_path", "p_hat_tau",
              "fj_wilson_lo", "fj_wilson_hi", "target_rate", "capped_replicates"]
    rows = []
    for d in args.d:
        r = search_cross_probe(d, model, args.reps, node_cap=args.budget_cap)
        rows.append([r.d, r.subspace_dim, r.path_steps, r.x_threshold,
                     r.y_threshold, r.replicates, r.p_hat_fj, r.p_hat_path,
                     r.p_hat_tau, r.fj_wilson[0], r.fj_wilson[1],
                     r.target_rate, r.capped_replicates])
    _emit(args, "search-cross",
          {"d": args.d, "reps": args.reps, "seed": args.seed}, header, rows)


def _cmd_ui_tail(args) -> None:
    model = _model_from_args(args)
    cfg = _experiment_config(args, model)
    tails = ui_tail(cfg, args.M, sampler=args.sampler)
    header = ["d", "M", "n", "tail_mean"]
    rows = [[d, args.M, cfg.replicates, t] for d, t in tails.items()]
    _emit(args, "ui-tail",
          {"d": args.d, "M": args.M, "reps": args.reps, "seed": args.seed},
          header, rows)


def _cmd_couple_check(args) -> None:
    model = _model_from_args(args)
    rate = args.rate if args.rate is not None else model.a
    report = couple_check(CouplingMap(target=model, rate=rate), args.grid)
    header = ["t", "h", "ratio"]
    _emit(args, "couple-check",
          {"family": model.family, "a": model.a, "rate": rate, "grid": args.grid},
          header, [list(r) for r in report.rows],
          extra={"sup_ratio_deviation": report.sup_ratio_deviation,
                 "monotonicity_violations": report.monotonicity_violations},
          summary=(f"couple-check: sup|h(t)/t - 1| = {report.sup_ratio_deviation:.6g}, "
                   f"monotonicity violations = {report.monotonicity_violations}, "
                   f"wrote {args.out}"))
    if report.monotonicity_violations:
        raise FppError("coupling map is not monotone")


# -- parser -------------------------------------------------------------------


@cache
def build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """Parser for all subcommands, each command's handler, and each
    command's option actions by destination name.

    It is built once per process and shared by every main() call: building
    the eight subparsers costs about 30 times a parse, and nothing changes
    the parser or its tables once built. A parse, a failed one included,
    leaves nothing in them: each fills a fresh namespace.

    Every option defaults to argparse.SUPPRESS, so a parse yields only what
    the user actually typed; the real default is the action's ``fallback``.
    main() merges the typed values over the config file over the fallbacks.
    An action's ``needed`` says the command must end up with a value for it
    from one of those layers.
    """
    parser = argparse.ArgumentParser(
        prog="fppslab",
        description="Slab-crossing passage times: sampling, bounds, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers: dict = {}
    actions: dict = {}

    def arg(sp, *names, default=None, needed=False, **kw):
        action = sp.add_argument(*names, default=argparse.SUPPRESS, **kw)
        action.fallback = default
        action.needed = needed
        actions.setdefault(sp, {})[action.dest] = action

    def add_common(sp, *, model=True, experiment=True) -> None:
        arg(sp, "--out", help="output file path", needed=True)
        arg(sp, "--format", choices=("csv", "json"), default="csv")
        arg(sp, "--config", help="JSON file supplying any of these values")
        if model:
            arg(sp, "--family", choices=FAMILIES, default="exp")
            arg(sp, "--a", type=float, default=1.0, help="density of F at 0+")
            arg(sp, "--points", help="table family quantile nodes as JSON [[y,x],...]")
        if experiment:
            arg(sp, "--seed", type=int, default=0)
            arg(sp, "--d", type=int, action="append", needed=True,
                help="dimension; repeat for a grid")
            arg(sp, "--reps", type=int, default=100)
            arg(sp, "--budget-cap", type=int, default=DEFAULT_SETTLED_CAP)

    sp = sub.add_parser("bounds", help="evaluate the moment-bound series")
    arg(sp, "--d", type=int, action="append", needed=True)
    arg(sp, "--a", type=float, default=1.0)
    arg(sp, "--N", type=int, help="series truncation (default 40d)")
    add_common(sp, model=False, experiment=False)
    handlers["bounds"] = _cmd_bounds

    for name in ("sample-slab", "sample-eden"):
        sp = sub.add_parser(name, help=f"Monte Carlo slab crossings ({name.split('-')[1]} sampler)")
        add_common(sp)
        arg(sp, "--mode", choices=("replicates", "summary"), default="replicates")
        handlers[name] = (lambda s: (lambda a: _cmd_sample(a, s)))(name.split("-")[1])

    sp = sub.add_parser("concentration", help="exceedance curve of the normalized statistic")
    add_common(sp)
    arg(sp, "--eta", type=float, needed=True)
    arg(sp, "--sampler", choices=SAMPLERS, default="eden")
    handlers["concentration"] = _cmd_concentration

    sp = sub.add_parser("subadd", help="direct vs concatenated hyperplane passage")
    add_common(sp)
    arg(sp, "--n", type=int, needed=True, help="target hyperplane index")
    handlers["subadd"] = _cmd_subadd

    sp = sub.add_parser("search-cross", help="cheap-detour probability probe")
    add_common(sp)
    handlers["search-cross"] = _cmd_search_cross

    sp = sub.add_parser("ui-tail", help="truncated mean of the normalized statistic")
    add_common(sp)
    arg(sp, "--M", type=float, needed=True)
    arg(sp, "--sampler", choices=SAMPLERS, default="eden")
    handlers["ui-tail"] = _cmd_ui_tail

    sp = sub.add_parser("couple-check", help="tabulate the coupling map near zero")
    add_common(sp, experiment=False)
    arg(sp, "--rate", type=float,
        help="exponential rate being coupled from (default: target a)")
    arg(sp, "--grid", type=int, default=200)
    handlers["couple-check"] = _cmd_couple_check

    return parser, handlers, {name: actions[sp] for name, sp in sub.choices.items()}


# JSON types a config value may have, by the option's argparse ``type``
_CONFIG_TYPES = {int: int, float: (int, float), None: str}


def _config_value_ok(action: argparse.Action, value) -> bool:
    if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[action.type]):
        return False
    return action.choices is None or value in action.choices


def _load_config_file(path: str, actions: dict) -> dict:
    """The config file's values, each checked against the type and choices
    of the option it stands for and converted by that type, as argparse
    checks and converts a flag's value."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise ConfigError(f"config file {path} cannot be read as JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - (set(actions) - {"config"})
    if unknown:
        raise ConfigError(f"config keys not accepted here: {sorted(unknown)}")
    if isinstance(cfg.get("d"), int):
        cfg["d"] = [cfg["d"]]
    for key, value in cfg.items():
        if key == "points":  # a JSON list here; _model_from_args checks it
            continue
        action = actions[key]
        values = value if key == "d" and isinstance(value, list) else [value]
        if not all(_config_value_ok(action, v) for v in values):
            raise ConfigError(f"config value {value!r} is not valid for {action.option_strings[0]}")
        if action.type is not None:
            try:
                typed = [action.type(v) for v in values]
            except OverflowError as exc:
                raise ConfigError(f"config value for {action.option_strings[0]} "
                                  f"is out of range: {exc}")
            cfg[key] = typed if key == "d" else typed[0]
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, handlers, actions = build_parser()
        explicit = vars(parser.parse_args(argv))
        command = explicit["command"]

        merged = {dest: action.fallback for dest, action in actions[command].items()}
        if "config" in explicit:
            merged.update(_load_config_file(explicit["config"], actions[command]))
        merged.update(explicit)

        missing = [k for k, action in actions[command].items()
                   if action.needed and merged.get(k) is None]
        if missing:
            raise ConfigError(f"{command} needs values for: {', '.join(missing)}")
        # an empty grid writes a header-only file; a repeated d is sampled twice
        dims = merged.get("d")
        if dims is not None and (not dims or len(set(dims)) < len(dims)):
            raise ConfigError(f"--d must list at least one dimension and none twice, got {dims}")

        args = argparse.Namespace(**merged)
        handlers[command](args)
        return 0
    except _CONFIG_EXIT as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except FppError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IoError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
