"""Command-line surface: pushforward, degree, degree-classical, syt, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (a caller's
mistake, caught here before any computation), 3 internal error (a broken
invariant, or a ValueError raised inside the engine), 141 (128 + SIGPIPE)
when the reader closes stdout before the output is written, with nothing on
stderr.  All stdout is deterministic for a given invocation and seed; timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from .chowring import BundleModel, FormalBundle, SplitBundle, render_terms, ring_of, table_terms
from .oracles import run_suites
from .partitions import parse_partition
from .pushforward import (
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    pushforward_terms,
)
from .tableaux import syt_count_hook, syt_count_product, syt_enumerate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def to_json(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the payloads' types.

    Covers str, int, bool, None, list and dict with str keys; anything else,
    a float or a tuple included, raises TypeError.  Strings go through the
    json module's C escaper and ints through ``int.__repr__``, as there.
    """
    kind = value.__class__
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list:
        items = [to_json(item, inner) for item in value]
        brackets = "[]"
    elif kind is dict:
        items = [f"{encode_basestring_ascii(key)}: {to_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON: {value!r}")
    if not items:
        return brackets
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{indent}{brackets[1]}"


def render_schur_terms(terms: list[tuple[str, str]]) -> str:
    """Render (shape text, coefficient text) pairs like ``2*Delta(2,1)``."""
    return render_terms([(f"Delta{shape}", coeff) for shape, coeff in terms])


def _parse_twists(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad twists {text!r}: {exc}") from None


def _build_model(args: argparse.Namespace) -> BundleModel:
    has_formal = args.base_dim is not None
    has_split = args.pm is not None or args.twists is not None
    if has_formal == has_split:
        raise UsageError("choose exactly one model: --base-dim, or --pm with --twists")
    if has_formal:
        if args.base_dim < 0:
            raise UsageError("--base-dim must be nonnegative")
        return FormalBundle(base_dim=args.base_dim, rank=args.r)
    if args.pm is None or args.twists is None:
        raise UsageError("the split model needs both --pm and --twists")
    if args.pm < 0:
        raise UsageError("--pm must be nonnegative")
    twists = _parse_twists(args.twists)
    if len(twists) != args.r:
        raise UsageError(f"--twists lists {len(twists)} values, expected r={args.r}")
    return SplitBundle(base_dim=args.pm, twists=twists)


def _model_json(model: BundleModel) -> dict[str, object]:
    if isinstance(model, FormalBundle):
        return {"type": "formal", "base_dim": model.base_dim, "rank": model.rank}
    return {"type": "split", "base_dim": model.base_dim, "twists": list(model.twists)}


def cmd_pushforward(args: argparse.Namespace) -> int:
    if args.N < 0:
        raise UsageError(f"--N must be nonnegative, got {args.N}")
    if not 1 <= args.d <= args.r:
        raise UsageError(f"need 1 <= d <= r, got d={args.d}, r={args.r}")
    model = _build_model(args)
    schur_pairs, table = pushforward_terms(args.N, args.d, model)
    schur_terms = [(str(lam), str(coeff)) for lam, coeff in schur_pairs]
    class_terms = table_terms(ring_of(model), table)
    class_text = render_terms(class_terms)
    if args.json:
        data = {
            "schema": SCHEMA_VERSION,
            "command": "pushforward",
            "N": args.N,
            "d": args.d,
            "r": args.r,
            "model": _model_json(model),
            "schur_terms": [{"shape": s, "coefficient": c} for s, c in schur_terms],
            "class_terms": [{"monomial": m, "coefficient": c} for m, c in class_terms],
            "class_text": class_text,
        }
        print(to_json(data))
    else:
        print(f"schur form: {render_schur_terms(schur_terms)}")
        print(f"class: {class_text}")
    return EXIT_OK


def cmd_degree(args: argparse.Namespace) -> int:
    twists = _parse_twists(args.twists)
    if not 1 <= args.d <= len(twists):
        raise UsageError(f"need 1 <= d <= r, got d={args.d} with {len(twists)} twists")
    if args.pm < 0:
        raise UsageError("--pm must be nonnegative")
    model = SplitBundle(base_dim=args.pm, twists=twists)
    rows = degree_grassmann_bundle_terms(args.d, model)
    degree = sum(count * integral for _, count, integral in rows)
    if args.json:
        data = {
            "schema": SCHEMA_VERSION,
            "command": "degree",
            "d": args.d,
            "model": _model_json(model),
            "degree": str(degree),
            "table": [
                {"shape": str(lam), "syt_count": str(count), "integral": str(integral)}
                for lam, count, integral in rows
            ],
        }
        print(to_json(data))
    else:
        print(f"degree: {degree}")
        for lam, count, integral in rows:
            print(f"{lam}: f={count} integral={integral}")
    return EXIT_OK


def cmd_degree_classical(args: argparse.Namespace) -> int:
    if not 1 <= args.d <= args.r:
        raise UsageError(f"need 1 <= d <= r, got d={args.d}, r={args.r}")
    print(degree_grassmannian_classical(args.d, args.r))
    return EXIT_OK


def cmd_syt(args: argparse.Namespace) -> int:
    if args.method != "product" and (args.d is not None or args.r is not None):
        raise UsageError(f"--d and --r go only with --method product, not --method {args.method}")
    try:
        shape = parse_partition(args.shape)
        if args.method == "hook":
            count = syt_count_hook(shape)
        elif args.method == "enumerate":
            count = syt_enumerate(shape)
        else:  # product interprets the shape as the unshifted partition
            if args.d is None or args.r is None:
                raise UsageError("--method product needs --d and --r")
            count = syt_count_product(shape, args.d, args.r)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(count)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kwargs: dict[str, object] = {} if args.seed is None else {"seed": args.seed}
    for flag, value, least, keyword in (
        ("--trials", args.trials, 1, "trials"),
        ("--max-d", args.max_d, 1, "max_d"),
        ("--max-r", args.max_r, 1, "max_r"),
        ("--extra-N", args.extra_N, 0, "extra_powers"),
    ):
        if value is not None:
            if value < least:
                raise UsageError(f"{flag} must be at least {least}, got {value}")
            kwargs[keyword] = value
    started = time.monotonic()
    reports = run_suites(args.suite, verbose=args.verbose, **kwargs)
    failures = sum(rep.failures for rep in reports)
    if args.json:
        data = {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "reports": [rep.to_json_dict(verbose=args.verbose) for rep in reports],
            "failures": failures,
            "passed": failures == 0,
        }
        print(to_json(data))
    else:
        print("\n\n".join(rep.to_text(verbose=args.verbose) for rep in reports))
        if len(reports) > 1:
            print(f"\noverall: {'PASS' if failures == 0 else 'FAIL'}")
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


#: Each subcommand once: handler, help line, and the (flag, options) pairs _fill adds.
_COMMANDS = {
    "pushforward": (cmd_pushforward, "push a power of the Pluecker class to the base", (
        ("--N", dict(type=int, required=True, help="power of the Pluecker class")),
        ("--d", dict(type=int, required=True, help="rank of the universal quotient")),
        ("--r", dict(type=int, required=True, help="rank of the bundle")),
        ("--base-dim", dict(type=int, default=None, help="formal base dimension")),
        ("--pm", dict(type=int, default=None, help="split model: dimension of P^m")),
        ("--twists", dict(type=str, default=None, help="split model: comma-separated twists")),
        ("--json", dict(action="store_true")),
    )),
    "degree": (cmd_degree, "degree of the Grassmann bundle of a split bundle", (
        ("--d", dict(type=int, required=True)),
        ("--pm", dict(type=int, required=True)),
        ("--twists", dict(type=str, required=True)),
        ("--json", dict(action="store_true")),
    )),
    "degree-classical": (cmd_degree_classical, "Pluecker degree of a Grassmann variety", (
        ("--d", dict(type=int, required=True)), ("--r", dict(type=int, required=True)))),
    "syt": (cmd_syt, "count standard Young tableaux of a shape", (
        ("--shape", dict(type=str, required=True, help='shape such as "(2,1)"')),
        ("--method", dict(choices=("hook", "product", "enumerate"), default="hook")),
        ("--d", dict(type=int, default=None, help="rows, for --method product")),
        ("--r", dict(type=int, default=None, help="bundle rank, for --method product")),
    )),
    "verify": (cmd_verify, "run the oracle cross-check suites", (
        ("--suite", dict(choices=("theorem", "remark", "degrees", "all"), required=True)),
        ("--seed", dict(type=int, default=None)),
        ("--trials", dict(type=int, default=None)),
        ("--max-d", dict(type=int, default=None)),
        ("--max-r", dict(type=int, default=None)),
        ("--extra-N", dict(type=int, default=None)),
        ("--verbose", dict(action="store_true", help="include per-trial lines")),
        ("--json", dict(action="store_true")),
    )),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    handler, _, arguments = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluckerpush",
        description="Exact push-forwards of Pluecker-class powers on Grassmann "
        "bundles, degree formulas, and their brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by one parser when argv[0] names a subcommand.

    ``add_parser`` makes that same parser and hands it every string after the
    name, so its help and errors are unchanged; extras take the full tree.
    """
    if argv and argv[0] in _COMMANDS:
        parser = _fill(argparse.ArgumentParser(prog=f"pluckerpush {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Exact answers can run past the interpreter's int/str digit limit; lift
    # it for this call and give in-process callers their own setting back.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point the descriptor at
        # /dev/null so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # every caller mistake is a UsageError by now, so this is the engine's
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
