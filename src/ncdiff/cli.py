"""Command line front end.

Four subcommands cover the everyday operations: nf evaluates an expression
in a model and prints its normal form, verify runs the structural suite,
relations derives commutation rules between named forms and elements, and
confluence reports rewrite overlaps.  Models are addressed either by a file
path or by a builtin: name for the shipped ones.  Output is deterministic
for a fixed seed; the seed comes from --seed, then the NCDIFF_SEED
environment variable, then zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .calculus import CalculusError, Form
from .dsl import ModelError, load_model
from .models import MODEL_FILES, build_builtin, build_glpq, run_suite
from .render import (latex_value, relation_to_dict, render_word,
                     report_to_dict)

_BUILTINS = {name: functools.partial(build_builtin, name, verify=False)
             for name in MODEL_FILES}
_BUILTINS["gl-pq2-localized"] = functools.partial(
    build_glpq, adjoin_det_inverse=True, verify=False)


class UsageError(Exception):
    pass


def _load_bundle(spec: str):
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        builder = _BUILTINS.get(name)
        if builder is None:
            raise UsageError(
                "unknown builtin %r; available: %s"
                % (name, ", ".join(sorted(_BUILTINS))))
        return builder()
    try:
        with open(spec, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (spec, exc.strerror)) from None
    return load_model(text, verify=False)


def _default_seed() -> int:
    raw = os.environ.get("NCDIFF_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError("NCDIFF_SEED must be an integer, not %r" % raw) \
            from None


def _count(text: str) -> int:
    """A non-negative integer argument."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be 0 or more, not %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdiff",
        description="exact differential calculi on finitely presented "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model",
                        help="model file path, or builtin:<name> (%s)"
                             % ", ".join(sorted(_BUILTINS)))

    p_nf = sub.add_parser("nf", parents=[common],
                          help="normal form of an expression")
    p_nf.add_argument("-e", "--expr", required=True,
                      help="expression in the model language")
    p_nf.add_argument("--format", choices=("plain", "latex", "json"),
                      default="plain")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the structural verification suite")
    p_verify.add_argument("--format", choices=("plain", "json"),
                          default="plain")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized probes "
                               "(default: NCDIFF_SEED or 0)")
    p_verify.add_argument("--samples", type=_count, default=20,
                          help="random probes per law that cannot be "
                               "proved; the inner-form and Leibniz laws "
                               "are proved without probes when the "
                               "algebra is confluent and every twist "
                               "respects the relations")

    p_rel = sub.add_parser("relations", parents=[common],
                           help="derive commutation relations")
    p_rel.add_argument("--forms", required=True,
                       help="comma separated names of one-forms")
    p_rel.add_argument("--elements", required=True,
                       help="comma separated names of elements")
    p_rel.add_argument("--side", choices=("element", "form"),
                       default="element",
                       help="which factor stands on the left")
    p_rel.add_argument("--format", choices=("plain", "latex", "json"),
                       default="plain")

    p_conf = sub.add_parser("confluence", parents=[common],
                            help="check rewrite overlaps")
    p_conf.add_argument("--format", choices=("plain", "json"),
                        default="plain")

    return parser


def _cmd_nf(args) -> int:
    bundle = _load_bundle(args.model)
    value = bundle.eval_expression(args.expr)
    if args.format == "plain":
        print(value)
    elif args.format == "latex":
        print(latex_value(value))
    else:
        print(json.dumps({"input": args.expr, "value": str(value),
                          "latex": latex_value(value)}, indent=2))
    return 0


def _cmd_verify(args) -> int:
    bundle = _load_bundle(args.model)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        report = run_suite(bundle, seed=seed, samples=args.samples)
    except CalculusError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        for result in report.results:
            print("%-4s %s" % (result.status, result.anchor))
            if result.witness is not None:
                print("     witness: %s" % result.witness)
        print("model %s: %d passed, %d failed"
              % (report.model, report.passed, report.failed))
    return 0 if report.ok else 1


def _cmd_relations(args) -> int:
    bundle = _load_bundle(args.model)
    if bundle.calculus is None:
        raise UsageError("model %r has no calculus block" % bundle.name)
    forms = {}
    for name in args.forms.split(","):
        name = name.strip()
        value = bundle.value(name)
        if not isinstance(value, Form):
            raise UsageError("%r is not a form" % name)
        forms[name] = value
    elements = {}
    for name in args.elements.split(","):
        name = name.strip()
        elements[name] = bundle.value(name)
    side = "element_first" if args.side == "element" else "form_first"
    try:
        relations = bundle.calculus.commutation_relations(forms, elements,
                                                          side=side)
    except CalculusError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps([relation_to_dict(rel) for rel in relations],
                         indent=2))
    elif args.format == "latex":
        for rel in relations:
            print(latex_value(rel))
    else:
        for rel in relations:
            print(rel.render())
    return 0


def _overlap_text(table, symbols) -> str:
    return render_word(table, tuple((sym, 1) for sym in symbols))


def _cmd_confluence(args) -> int:
    bundle = _load_bundle(args.model)
    alg = bundle.algebra
    violations = alg.check_confluence()
    if args.format == "json":
        print(json.dumps({
            "model": bundle.name,
            "rules": len(alg.rules),
            "violations": [
                {"word": _overlap_text(alg.table, v.word),
                 "left": str(v.left), "right": str(v.right)}
                for v in violations],
        }, indent=2))
    else:
        if not violations:
            print("model %s: all overlaps of its %d rules close"
                  % (bundle.name, len(alg.rules)))
        else:
            for v in violations:
                print("overlap %s: %s != %s"
                      % (_overlap_text(alg.table, v.word), v.left, v.right))
            print("model %s: %d overlap failures"
                  % (bundle.name, len(violations)))
    return 0 if not violations else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "nf": _cmd_nf,
        "verify": _cmd_verify,
        "relations": _cmd_relations,
        "confluence": _cmd_confluence,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ModelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
