"""Command-line front end: norms, distances, constructions, certificates.

Each ``cmd_*`` handler returns its exit code and its result in exact values
(Fractions, labels, ints, bools, lists, dicts, certificate reports); ``main``
alone renders the result under ``--mode`` and writes it. ``lipnorm``,
``freenorm`` and ``dist`` print the bare value unless ``--out`` is given;
everything else is the JSON envelope ``{"mode", "seed", "result"}``, or a
CSV table for the dichotomy profile, on stdout or in the ``--out`` file.
Exit codes: 0 when everything requested verified, 1 when a certificate or
validation fails, 2 for unusable input. Output is byte-identical for
identical inputs, parameters and seed. The package binds its modules
lazily, so a command runs only the modules its handler calls into.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Optional

from . import diametral, free, functions, metric, reports, reproduce
from .scalars import parse_rat, rat

PASS, FAIL, ERROR = 0, 1, 2

# names the handlers call in other modules, also readable as attributes of
# this one; looked up in the home module on each access, so a name rebound
# there (by a test or the benchmark's tracer) shows through here too
_HOME = {
    name: module
    for module, names in {
        "free": "FreeElement free_dist free_norm molecules_in_slice",
        "functions": "LipFunction daugavet_recursive_construction delta_hat_family mcshane_extend "
        "nearest_point_function",
        "metric": "FiniteMetricSpace build_annuli_space build_hat_space build_recursion_space "
        "metric_violations validate",
        "reports": "render",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


class CliError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _metric(space: metric.FiniteMetricSpace) -> metric.FiniteMetricSpace:
    """The space, or a CliError naming its first violation of a metric axiom."""
    bad = next(metric.metric_violations(space), None)
    if bad is None:
        return space
    points = ", ".join(repr(space.labels[p]) for p in bad.indices)
    if bad.kind == "positivity":
        text = f"d({points}) = {-bad.slack} is not positive"
    else:
        text = f"the {bad.kind} check fails at ({points}) by {bad.slack}"
    raise CliError(f"the space is not a metric: {text}")


def _space_from_args(args) -> metric.FiniteMetricSpace:
    if getattr(args, "space", None) is None:
        raise CliError("--space is required for this command")
    return _metric(metric.FiniteMetricSpace.from_json(_load_json(args.space)))


def _function_from_args(args) -> functions.LipFunction:
    """The function file's values on its own space or on --space; a space given
    both ways must be the same space."""
    obj = _load_json(args.function)
    if "space" not in obj:
        return functions.LipFunction.from_json(obj, space=_space_from_args(args))
    f = functions.LipFunction.from_json(obj)
    _metric(f.space)
    if args.space is not None and _space_from_args(args) != f.space:
        raise CliError("the function file carries a space that differs from --space")
    return f


def _element_from_path(path: str, space: metric.FiniteMetricSpace) -> free.FreeElement:
    return free.FreeElement.from_json(_load_json(path), space)


def _scalar_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, result in exact values)


def cmd_validate(args) -> tuple:
    rep = metric.validate(metric.FiniteMetricSpace.from_json(_load_json(args.space)))
    return (PASS if rep.ok else FAIL), rep.to_json()


def cmd_lipnorm(args) -> tuple:
    return PASS, {"norm": _function_from_args(args).norm}


def cmd_freenorm(args) -> tuple:
    space = _space_from_args(args)
    res = free.free_norm(_element_from_path(args.element, space))
    if not args.out:  # the bare output is the norm alone: no witness or plan is built
        return PASS, {"norm": res.value}
    plan = [[space.labels[p], space.labels[q], m] for p, q, m in res.plan.flows]
    return PASS, {"norm": res.value, "witness": res.witness.values, "plan": plan}


def cmd_dist(args) -> tuple:
    space = _space_from_args(args)
    mu = _element_from_path(args.first, space)
    nu = _element_from_path(args.second, space)
    return PASS, {"dist": free.free_dist(mu, nu)}


def cmd_extend(args) -> tuple:
    space = _space_from_args(args)
    values = {
        space.index(lbl): parse_rat(v, "values") for lbl, v in _load_json(args.values).items()
    }
    f = functions.mcshane_extend(
        space,
        values.keys(),
        values,
        rat(args.lip),
        direction=args.direction,
        shift_base=args.shift_base,
    )
    return PASS, {"values": f.values, "norm": f.norm}


def cmd_slice(args) -> tuple:
    f = _function_from_args(args)
    labels = f.space.labels
    alpha = rat(args.alpha)
    molecules = [
        {"u": labels[m.u], "v": labels[m.v], "value": f.molecule_value(m.u, m.v)}
        for m in free.molecules_in_slice(f.space, f, alpha)
    ]
    return PASS, {"alpha": alpha, "molecules": molecules}


def cmd_construct(args) -> tuple:
    if args.construction == "daugavet":
        rs = metric.build_recursion_space(args.stages)
        f, log = functions.daugavet_recursive_construction(rs.space, rs.pairs, rs.annuli)
        return PASS, {
            "space": rs.space.to_json(),
            "function": f.values,
            "stages": [
                {
                    "stage": rec.stage,
                    "lip_constant": rec.lip_constant,
                    "molecule_value": rec.molecule_value,
                    "ok": rec.ok,
                }
                for rec in log
            ],
        }
    if args.construction == "delta-hat":
        hs = metric.build_hat_space(args.pairs, args.scale)
        fam = functions.delta_hat_family(hs.space, hs.pairs, hs.scale, hs.tolerance)
        g = {i: g.values for i, g in fam.g.items()}
        return PASS, {"space": hs.space.to_json(), "f": fam.f.values, "g": g}
    # nearest
    space = _space_from_args(args)
    sites = [space.index(lbl) for lbl in _scalar_list(args.sites)]
    f = functions.nearest_point_function(space, sites)
    return PASS, {"function": f.values, "norm": f.norm}


def _given(args, **params) -> dict:
    """Keyword arguments from the certify flags the user gave: param=flag name."""
    return {param: getattr(args, flag) for param, flag in params.items() if hasattr(args, flag)}


def cmd_certify(args) -> tuple:
    name = args.certificate
    if getattr(args, "samples", 0) < 0:
        raise CliError("--samples must be non-negative")
    seeded = {**_given(args, samples="samples"), "seed": args.seed}
    if name == "example1":
        report = reproduce.verify_example1(**_given(args, N="N", n="n"), **seeded)
    elif name == "example2":
        report = reproduce.verify_example2(
            **_given(args, N="N", n="n", alpha="alpha", eps="eps"), **seeded
        )
    elif name == "delta-exist":
        report = reproduce.verify_delta_existence(**_given(args, k="pairs"))
    elif name == "daug-rec":
        report = reproduce.verify_daugavet_recursion(**_given(args, stages="stages"), **seeded)
    elif name == "two-anchor":
        report = reproduce.verify_two_anchor_daugavet(**_given(args, N="N", delta_grid="deltas"))
    else:  # annuli: one eps for every annulus, 1/5 unless given
        eps = getattr(args, "eps", ["1/5"])
        if len(eps) != 1:
            raise CliError("certify annuli takes a single --eps value")
        asp = metric.build_annuli_space(**_given(args, k="pairs"), eps=eps[0])
        report = diametral.verify_separated_annuli(
            asp.space, asp.pairs, asp.annuli, asp.eps, **seeded
        )
    return (PASS if report.overall else FAIL), report


def cmd_scan_dichotomy(args) -> tuple:
    f = _function_from_args(args)
    report = reproduce.scan_theorem4_condition6(
        f.space, f, _scalar_list(args.eps_grid), args.radius
    )
    if args.format == "json":
        return PASS, report
    rows = [["eps", "molecules", "min_pair_distance", "max_support_radius",
             "small_pair_witness", "escaping_witness"]]
    for check, e in zip(report.checks, report.parameters["eps_grid"]):
        v = check.values
        rows.append([e, v["molecules"], v["min_pair_distance"], v["max_support_radius"],
                     int(v["small_pair_witness"]), int(v["escaping_witness"])])
    return PASS, rows


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write output to this path")

    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="Exact free-space norms, Lipschitz constructions and certificates "
        "on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the metric axioms")
    p.add_argument("space")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lipnorm", parents=[common], help="Lipschitz norm of a function")
    p.add_argument("function")
    p.add_argument("--space")
    p.set_defaults(func=cmd_lipnorm)

    p = sub.add_parser("freenorm", parents=[common], help="free-space norm of an element")
    p.add_argument("element")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_freenorm)

    p = sub.add_parser("dist", parents=[common], help="free-space distance of two elements")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("extend", parents=[common], help="McShane-Whitney extension")
    p.add_argument("--space", required=True)
    p.add_argument("--values", required=True, help="JSON file: label -> value")
    p.add_argument("--lip", default="1")
    p.add_argument("--direction", choices=("lower", "upper"), default="lower")
    p.add_argument("--shift-base", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("slice", parents=[common], help="molecules inside a slice")
    p.add_argument("--space", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("construct", parents=[common], help="run a named construction")
    p.add_argument("construction", choices=("daugavet", "delta-hat", "nearest"))
    p.add_argument("--stages", type=int, default=10)
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--scale", default="2")
    p.add_argument("--space")
    p.add_argument("--sites", default="", help="comma-separated labels, base first")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", parents=[common], help="run a certificate verifier")
    p.add_argument(
        "certificate",
        choices=("example1", "example2", "delta-exist", "daug-rec", "two-anchor", "annuli"),
    )
    # unset flags keep the verifier's own default
    unset = argparse.SUPPRESS
    p.add_argument("--N", type=int, default=unset)
    p.add_argument("--n", type=int, default=unset)
    p.add_argument("--samples", type=int, default=unset)
    p.add_argument("--alpha", type=_scalar_list, default=unset)
    p.add_argument("--eps", type=_scalar_list, default=unset)
    p.add_argument("--pairs", type=int, default=unset)
    p.add_argument("--stages", type=int, default=unset)
    p.add_argument("--deltas", type=_scalar_list, default=unset)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "scan-dichotomy", parents=[common], help="slice-profile table per eps"
    )
    p.add_argument("--space", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--eps-grid", default="1/2,1/4,1/8")
    p.add_argument("--radius", default="1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan_dichotomy)

    return parser


# the commands that print their bare value when there is no --out, and its key
BARE = {"lipnorm": "norm", "freenorm": "norm", "dist": "dist"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _text(args, result) -> str:
    """The result rendered under --mode: a bare value, the CSV table or the
    JSON envelope."""
    if args.command in BARE and not args.out:
        return reports.render(result[BARE[args.command]], args.mode) + "\n"
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(reports.render(result, args.mode))
        return buf.getvalue()
    envelope = {"mode": args.mode, "seed": args.seed, "result": reports.render(result, args.mode)}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up now, so a handler rebound after the parser was built runs
        code, result = globals()[args.func.__name__](args)
        text = _text(args, result)
    except (CliError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if code == FAIL and args.command == "certify":
        print(f"certificate failed: {result.failing()[0].description}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
