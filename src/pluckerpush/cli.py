"""Command-line surface: pushforward, degree, degree-classical, syt, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (a caller's
mistake, caught here before any computation), 3 internal error (a broken
invariant, or any other exception raised inside the engine), 141
(128 + SIGPIPE) when the reader closes stdout before the output is written,
with nothing on stderr.  All stdout is deterministic for a given invocation
and seed; timing goes to stderr only.

A well-formed command line is read straight off ``_COMMANDS``, the one
statement of the grammar; ``argparse`` is imported, and the full parser tree
filled from the same table, only for help, errors and any other argv
(``parse_args``).
"""

from __future__ import annotations

import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .chowring import BundleModel, FormalBundle, SplitBundle, render_int, render_terms, ring_of, table_terms
from .oracles import SUITE_OPTIONS, run_suites
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
    json module's C escaper, as there, and ints through ``render_int``.
    """
    kind = value.__class__
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return render_int(value)
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


def _split_model(pm: int, twists: str) -> SplitBundle:
    """The split model of ``--pm`` and ``--twists``; the caller checks its rank."""
    if pm < 0:
        raise UsageError("--pm must be nonnegative")
    try:
        values = tuple(int(t.strip()) for t in twists.split(","))
    except ValueError as exc:
        raise UsageError(f"bad twists {twists!r}: {exc}") from None
    return SplitBundle(base_dim=pm, twists=values)


def _build_model(args: SimpleNamespace) -> BundleModel:
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
    model = _split_model(args.pm, args.twists)
    if model.rank != args.r:
        raise UsageError(f"--twists lists {model.rank} values, expected r={args.r}")
    return model


def _model_json(model: BundleModel) -> dict[str, object]:
    if isinstance(model, FormalBundle):
        return {"type": "formal", "base_dim": model.base_dim, "rank": model.rank}
    return {"type": "split", "base_dim": model.base_dim, "twists": list(model.twists)}


def cmd_pushforward(args: SimpleNamespace) -> int:
    if args.N < 0:
        raise UsageError(f"--N must be nonnegative, got {args.N}")
    if not 1 <= args.d <= args.r:
        raise UsageError(f"need 1 <= d <= r, got d={args.d}, r={args.r}")
    model = _build_model(args)
    echo = _model_json(model)
    if isinstance(model, FormalBundle):
        # a class of degree w = N - d(r-d) reads only s_1..s_w
        model = FormalBundle(min(model.base_dim, max(args.N - args.d * (args.r - args.d), 0)), args.r)
    schur_pairs, table = pushforward_terms(args.N, args.d, model)
    schur_terms = [(str(lam), render_int(coeff)) for lam, coeff in schur_pairs]
    class_terms = table_terms(ring_of(model), table)
    class_text = render_terms(class_terms)
    if args.json:
        data = {
            "schema": SCHEMA_VERSION,
            "command": "pushforward",
            "N": args.N,
            "d": args.d,
            "r": args.r,
            "model": echo,
            "schur_terms": [{"shape": s, "coefficient": c} for s, c in schur_terms],
            "class_terms": [{"monomial": m, "coefficient": c} for m, c in class_terms],
            "class_text": class_text,
        }
        print(to_json(data))
    else:
        print(f"schur form: {render_schur_terms(schur_terms)}")
        print(f"class: {class_text}")
    return EXIT_OK


def cmd_degree(args: SimpleNamespace) -> int:
    model = _split_model(args.pm, args.twists)
    if not 1 <= args.d <= model.rank:
        raise UsageError(f"need 1 <= d <= r, got d={args.d} with {model.rank} twists")
    rows = degree_grassmann_bundle_terms(args.d, model)
    degree = sum(count * integral for _, count, integral in rows)
    if args.json:
        data = {
            "schema": SCHEMA_VERSION,
            "command": "degree",
            "d": args.d,
            "model": _model_json(model),
            "degree": render_int(degree),
            "table": [
                {"shape": str(lam), "syt_count": render_int(count), "integral": render_int(integral)}
                for lam, count, integral in rows
            ],
        }
        print(to_json(data))
    else:
        print(f"degree: {render_int(degree)}")
        for lam, count, integral in rows:
            print(f"{lam}: f={render_int(count)} integral={render_int(integral)}")
    return EXIT_OK


def cmd_degree_classical(args: SimpleNamespace) -> int:
    if not 1 <= args.d <= args.r:
        raise UsageError(f"need 1 <= d <= r, got d={args.d}, r={args.r}")
    print(render_int(degree_grassmannian_classical(args.d, args.r)))
    return EXIT_OK


def cmd_syt(args: SimpleNamespace) -> int:
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
    print(render_int(count))
    return EXIT_OK


#: verify's int flags once: (flag, ``run_suites`` keyword, least value or None).
_VERIFY_FLAGS = (
    ("--seed", "seed", None), ("--trials", "trials", 1), ("--max-d", "max_d", 1),
    ("--max-r", "max_r", 1), ("--extra-N", "extra_powers", 0),
)


def cmd_verify(args: SimpleNamespace) -> int:
    """Run ``--suite`` with the ``_VERIFY_FLAGS`` given; a note on stderr names
    those it does not read (``SUITE_OPTIONS``).  Exit 1 on any failure."""
    kwargs: dict[str, object] = {}
    ignored = []
    for flag, keyword, least in _VERIFY_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is None:
            continue
        if least is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
        kwargs[keyword] = value
        if args.suite != "all" and keyword not in SUITE_OPTIONS[args.suite]:
            ignored.append(flag)
    if ignored:
        print(f"note: --suite {args.suite} ignores {', '.join(ignored)}", file=sys.stderr)
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


#: Each subcommand once: handler, help line, and the (flag, options) pairs
#: that ``_read_command`` reads and ``build_parser`` adds.
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
        ("--suite", dict(choices=(*SUITE_OPTIONS, "all"), required=True)),
        *((flag, dict(type=int, default=None)) for flag, _, _ in _VERIFY_FLAGS),
        ("--verbose", dict(action="store_true", help="include per-trial lines")),
        ("--json", dict(action="store_true")),
    )),
}


#: argparse's ``_negative_number_matcher``: a token after a flag that starts
#: with "-" is that flag's value, not a flag, only when it matches this.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_command(name: str, tokens: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``tokens`` after the command ``name``,
    read off its ``_COMMANDS`` row; None when a token is not plainly well
    formed, and argparse must decide.

    Plainly well formed: every flag spelled in full, as ``--flag value`` or
    ``--flag=value``, a store_true flag bare; a value in a token of its own
    starts with "-" only as a negative number; every value passes the row's
    type and choices; every required flag is given.  A repeated flag keeps
    its last value, and the rest take their defaults, as in argparse.
    """
    handler, _, arguments = _COMMANDS[name]
    rows = dict(arguments)
    given: dict[str, object] = {}
    rest = iter(tokens)
    for token in rest:
        flag, equals, text = token.partition("=")
        options = rows.get(flag)
        if options is None:
            return None
        if options.get("action") == "store_true":
            if equals:
                return None
            given[flag] = True
            continue
        if not equals:
            text = next(rest, None)
            if text is None or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
                return None
        try:
            value = options.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=name, func=handler)
    for flag, options in arguments:
        if flag in given:
            value = given[flag]
        elif options.get("required"):
            return None
        else:
            value = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


# argparse loads gettext and costs about 2 ms to import, so it is imported
# only where the parser is built; the annotation names it unevaluated.
def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="pluckerpush",
        description="Exact push-forwards of Pluecker-class powers on Grassmann "
        "bundles, degree formulas, and their brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(command=name, func=handler)
    return parser


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of ``build_parser().parse_args(argv)``.

    When argv[0] names a subcommand and every later token is plainly well
    formed (see ``_read_command``), the namespace is read off the command's
    ``_COMMANDS`` row and no parser is built.  Any other argv takes the
    full tree, so help, abbreviations and errors are argparse's own.
    """
    if argv and argv[0] in _COMMANDS:
        args = _read_command(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv, SimpleNamespace())


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Exact answers can run past the interpreter's int/str digit limit:
    # render_int hands ints of up to 9,865 digits to int.__repr__, and
    # verify's verbose lines print Fractions through str().  Lift it for this
    # call and give in-process callers their own setting back.
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
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # every caller mistake is a UsageError by now, so this is the engine's,
        # as is a walk past the recursion limit; other kinds name their class
        plain = isinstance(exc, (ValueError, RecursionError))
        print(f"internal error: {exc if plain else repr(exc)}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
