"""Command-line front end.

Wire format: symbol streams are whitespace-separated 1-based integers on
stdin/stdout; stdout carries only data, diagnostics go to stderr.  Exit codes:
0 success, 1 input error, 2 window exhausted, 3 verification failure.  A
reader that closes stdout early is not an error: the command stops writing
and exits with nothing on stderr, with 0, or its own code if it had already
finished.
Reports are TAB-separated key/value lines.

``main`` reads a well-formed command line itself, from the entry in
``_COMMANDS`` of the command that its first argument names: one that gives
only that command's own flags, each spelled in full and given once, with a
value that does not start with "-" and that the flag's ``type`` reads, and
every required flag.  It gives the same namespace that argparse would, and
does not import argparse.  Any other command line (``-h``, no command or an
unknown one, an abbreviation, ``--flag=value``, a repeated flag, a missing
or dash-led value, a value its ``type`` refuses, a missing required flag)
goes to argparse: ``main`` builds the parser of the command that the first
argument names, and the parser of all eight only when it names none; both
print the same usage, help and errors.  ``encode`` reads stdin READ_SIZE
bytes at a time, so its first block goes out after at most that much input
is tokenized.
"""

from __future__ import annotations

import codecs
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

from . import calibration, dyadic, engine
from .core import ProbabilityVector, parse_bits, parse_rational, parse_word
from .extractor import PatternConfig, extract

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_WINDOW = 2
EXIT_VERIFY = 3

READ_SIZE = 1 << 12  # most bytes of stdin that ``encode`` reads at a time

# Each config key, which is also the dest of its ``encode`` flag, with its
# Config field and the reader of its text.  ``int`` returns an int flag that
# argparse has already read as it is.
_CONFIG_KEYS = {
    "a": ("alphabet_size", int),
    "q": ("target", ProbabilityVector.parse),
    "eps": ("entropy_gap", parse_rational),
    "t": ("marker_len", int),
    "seed": ("seed", int),
    "max_window": ("max_window", int),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    alphabet_size: int
    target: ProbabilityVector
    entropy_gap: Fraction | None = None
    marker_len: int | None = None
    seed: int | None = None
    max_window: int = engine.DEFAULT_MAX_WINDOW

    def __post_init__(self) -> None:
        # PatternConfig checks a and t, so every command refuses them alike.
        try:
            PatternConfig(self.alphabet_size, 1 if self.marker_len is None else self.marker_len)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.marker_len is None:
            if self.entropy_gap is None:
                raise ConfigError("eps is required when t is not set")
            if self.entropy_gap <= 0:
                raise ConfigError("eps must be > 0")
        if self.max_window < 0:
            raise ConfigError("max_window must be >= 0")


def parse_config(text: str) -> Config:
    """Parse ``key=value`` lines; blank lines and #-comments are skipped."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    for required in ("a", "q"):
        if required not in fields:
            raise ConfigError(f"missing required key {required!r}")
    return Config(**_config_fields(fields))


def _config_fields(values: dict) -> dict:
    """The Config fields of the keys of ``values`` that are not None, each
    read by its reader, in the order of ``_CONFIG_KEYS``."""
    fields = {}
    try:
        for key, (field, read) in _CONFIG_KEYS.items():
            if values.get(key) is not None:
                fields[field] = read(values[key])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return fields


def _report(out, **fields) -> None:
    for key, value in fields.items():
        out.write(f"{key}\t{value}\n")


def _resolve_seed(args, config: Config | None) -> int:
    if args.seed is not None:
        return args.seed
    if config is not None and config.seed is not None:
        return config.seed
    env = os.environ.get("FINITARY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FINITARY_SEED is not an integer: {env!r}") from None
    return 0


def _load_config(args) -> Config | None:
    path = getattr(args, "config", None)
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``_build_parser().parse_args(argv)`` gives a
    well-formed command line (see the module docstring), or None for any
    other."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = dict(_COMMANDS[argv[0]][2])
    given = {}
    words = iter(argv[1:])
    for flag in words:
        options = arguments.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            given[flag] = options.get("type", str)(value)
        except ValueError:
            return None
    args = SimpleNamespace(command=argv[0])
    for flag, options in arguments.items():
        if flag in given:
            value = given[flag]
        elif options.get("required"):
            return None
        else:
            switch = options.get("action") == "store_true"
            value = options.get("default", False if switch else None)
        setattr(args, options.get("dest", flag[2:].replace("-", "_")), value)
    return args


def _build_parser(command: str | None = None):
    """The parser of ``command`` alone, or of every command when it is None.

    The one-command parser lists all eight names in its usage line, so its
    usage, help and errors read as the full parser's do.  The full parser
    leaves that list to argparse, which prints the same braces: its errors
    for a missing or unknown command call the argument "command", and a
    metavar would replace that name.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="finitary",
        description="Finitary stream transform and its verification tools.",
    )
    names = _COMMANDS if command is None else [command]
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_text, arguments = _COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
    return parser


def _merge_encode_config(args) -> Config:
    """The config file, if any, with the flags that were given over it."""
    config = _load_config(args)
    flags = _config_fields(vars(args))
    if config is not None:
        return replace(config, **flags)
    if "alphabet_size" not in flags or "target" not in flags:
        raise ConfigError("encode needs a and q (via --config or flags)")
    return Config(**flags)


def _pieces(stdin):
    """The text on stdin, in pieces as it arrives.

    A stream with a binary buffer is read with ``read1``, which returns what
    a pipe holds, up to READ_SIZE bytes, instead of waiting for READ_SIZE
    bytes or the end of input; the bytes are decoded incrementally.  A text
    stream without one, such as a ``StringIO``, is read READ_SIZE characters
    at a time.
    """
    read1 = getattr(getattr(stdin, "buffer", None), "read1", None)
    if read1 is None:
        while piece := stdin.read(READ_SIZE):
            yield piece
        return
    decoder = codecs.getincrementaldecoder(stdin.encoding)(stdin.errors)
    while chunk := read1(READ_SIZE):
        yield decoder.decode(chunk)
    yield decoder.decode(b"", final=True)


def _read_symbols(stdin, stdout, alphabet_size: int):
    """The symbols on stdin, as one list per piece of ``_pieces``.

    A token cut by the end of a piece is carried into the next.  stdout is
    flushed before each read after the first, so the lines written so far
    leave while the encoder waits for input.

    Once as many tokens have arrived as there are symbols, a piece's tokens
    become symbols by lookup in a table of the spellings ``str(s)`` of the
    symbols s of 1..a.  Building it costs about what reading the tokens
    before it did, so a short input with a wide alphabet never pays for
    it.  A piece with any other token, such as "01", "+2", a symbol outside
    1..a or one that is no integer, is read by ``int`` instead, and gives
    the symbols or the error that ``int`` gives.
    """
    spelled: dict[str, int] = {}
    carry, read = "", 0
    for piece in _pieces(stdin):
        text = carry + piece
        tokens = text.split()
        carry = tokens.pop() if tokens and not text[-1].isspace() else ""
        read += len(tokens)
        if not spelled and read >= alphabet_size:
            spelled = {str(s): s for s in range(1, alphabet_size + 1)}
        try:
            symbols = [spelled[token] for token in tokens]
        except KeyError:
            symbols = list(map(int, tokens))
        yield symbols
        stdout.flush()
    if carry:
        yield [int(carry)]


def _cmd_encode(args, stdin, stdout) -> int:
    config = _merge_encode_config(args)
    t = config.marker_len
    if t is None:
        t = calibration.select_marker_length(
            config.target, config.entropy_gap, config.alphabet_size
        )
    cfg = PatternConfig(config.alphabet_size, t)
    symbols = _read_symbols(stdin, stdout, cfg.alphabet_size)
    for blk in engine.encode_stream(symbols, cfg, config.target, config.max_window):
        if args.report:
            left, right, indices = blk.left_marker, blk.right_extent, blk.indices
            # The radius max(i - left, right - i) falls to the middle of the
            # block and rises after it: right - i before ``mid``, the first
            # index past the middle, and i - left from it on.
            mid = min(max((left + right) // 2 + 1, indices.start), indices.stop)
            radii = chain(
                range(right - indices.start, right - mid, -1),
                range(mid - left, indices.stop - left),
            )
            rows = [f"{i}\t{s}\t{r}\n" for i, s, r in zip(indices, blk.symbols, radii)]
        else:
            rows = [f"{s}\n" for s in blk.symbols]
        stdout.write("".join(rows))
    return EXIT_OK


def _cmd_simulate(args, stdin, stdout) -> int:
    q = ProbabilityVector.parse(args.q)
    cursor = dyadic.DyadicCursor(q, args.horizon)
    cursor.read(parse_bits(stdin.read()))
    if not cursor.successful:
        raise dyadic.InsufficientBitsError("insufficient bits")
    _report(
        stdout,
        T=cursor.bits_consumed,
        S=" ".join(str(s) for s in cursor.emitted),
    )
    return EXIT_OK


def _cmd_extract(args, stdin, stdout) -> int:
    cfg = PatternConfig(args.a, args.t)
    triple = extract(parse_word(args.word, args.a), cfg)
    stdout.write(f"N={triple.num_bits} F={triple.bits} G={triple.class_id}\n")
    return EXIT_OK


def _cmd_select_t(args, stdin, stdout) -> int:
    q = ProbabilityVector.parse(args.q)
    eps = parse_rational(args.eps)
    t = calibration.select_marker_length(q, eps, args.a)
    _report(stdout, t=t, a=args.a, eps=eps, q=args.q)
    return EXIT_OK


def _cmd_certify_t(args, stdin, stdout) -> int:
    config = _load_config(args)
    p = ProbabilityVector.parse(args.p)
    q = ProbabilityVector.parse(args.q)
    seed = _resolve_seed(args, config)
    report = calibration.certify_marker_length(p, q, args.t, args.trials, seed)
    _report(
        stdout,
        t=report.marker_len,
        trials=report.trials,
        seed=report.seed,
        mean_bits=f"{report.mean_bits:.6f}",
        stderr_bits=f"{report.stderr_bits:.6f}",
        sim_bound=f"{report.sim_bound:.6f}",
        expected_block_len=report.expected_block_len,
        mean_block_len=f"{report.mean_block_len:.6f}",
        margin=f"{report.margin:.6f}",
        status=report.status,
    )
    return EXIT_VERIFY if report.status == "fail" else EXIT_OK


def _cmd_verify_bounds(args, stdin, stdout) -> int:
    q = ProbabilityVector.parse(args.q)
    report = calibration.verify_simu1(q, args.kmax)
    _report(
        stdout,
        q=args.q,
        kmax=report.kmax,
        dyadic_interior=report.dyadic_interior,
        tight_bound_ok=report.tight_bound_ok,
        loose_bound_ok=report.loose_bound_ok,
        mean_lo=f"{float(report.mean_lo):.9f}",
        mean_hi=f"{float(report.mean_hi):.9f}",
        entropy_bound=f"{report.entropy_bound:.9f}",
        mean_ok=report.mean_ok,
    )
    for k, s in enumerate(report.survival):
        stdout.write(f"survival_{k}\t{s}\n")
    # The tight bound is exempt when an interior cumulative point is dyadic.
    ok = (
        report.loose_bound_ok
        and report.mean_ok
        and (report.dyadic_interior or report.tight_bound_ok)
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_analyze(args, stdin, stdout) -> int:
    q = ProbabilityVector.parse(args.q)
    symbols = parse_word(stdin.read(), q.size)
    if not symbols:
        raise ValueError("empty stream")
    counts = [0] * q.size
    for s in symbols:
        counts[s - 1] += 1
    report = calibration.chi_square(counts, q)
    _report(
        stdout,
        n=len(symbols),
        counts=",".join(str(c) for c in counts),
        statistic=f"{report.statistic:.6f}",
        df=report.df,
        p_value=f"{report.p_value:.6e}",
    )
    if args.alpha is not None and report.p_value < args.alpha:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_tails(args, stdin, stdout) -> int:
    samples = [int(tok) for tok in stdin.read().split()]
    fit = calibration.tail_fit(samples)
    _report(
        stdout,
        n=len(samples),
        slope=f"{fit.slope:.6f}",
        intercept=f"{fit.intercept:.6f}",
        r_squared=f"{fit.r_squared:.6f}",
    )
    return EXIT_OK


# Each command's function, help line and arguments, as the flag and the
# keywords that ``add_argument`` takes.
_COMMANDS = {
    "encode": (_cmd_encode, "transform a symbol stream from stdin", [
        ("--config", dict(help="key=value config file")),
        ("--a", dict(type=int, help="source alphabet size")),
        ("--q", dict(help="target distribution, comma-separated rationals")),
        ("--eps", dict(help="entropy gap (rational), used to choose t")),
        ("--t", dict(type=int, help="marker length override")),
        ("--max-window", dict(type=int, dest="max_window")),
        ("--report", dict(
            action="store_true",
            help="emit index<TAB>symbol<TAB>radius lines instead of bare symbols",
        )),
    ]),
    "simulate": (_cmd_simulate, "run the bit-fed simulator on stdin bits", [
        ("--q", dict(required=True)),
        ("--horizon", dict(type=int, default=1, help="symbols to draw")),
    ]),
    "extract": (_cmd_extract, "extract bits from a pattern-free word", [
        ("--a", dict(type=int, required=True)),
        ("--t", dict(type=int, required=True)),
        ("--word", dict(required=True, help="whitespace-separated symbols")),
    ]),
    "select-t": (_cmd_select_t, "derive a certified-safe marker length", [
        ("--q", dict(required=True)),
        ("--eps", dict(required=True)),
        ("--a", dict(type=int, required=True)),
    ]),
    "certify-t": (_cmd_certify_t, "empirically certify a marker length", [
        ("--p", dict(required=True, help="source distribution to test")),
        ("--q", dict(required=True)),
        ("--t", dict(type=int, required=True)),
        ("--trials", dict(type=int, default=10000)),
        ("--seed", dict(type=int)),
        ("--config", dict()),
    ]),
    "verify-bounds": (_cmd_verify_bounds, "exact stopping-time bound checks", [
        ("--q", dict(required=True)),
        ("--kmax", dict(type=int, default=20)),
    ]),
    "analyze": (_cmd_analyze, "chi-square a symbol stream against q", [
        ("--q", dict(required=True)),
        ("--alpha", dict(type=float, help="fail (exit 3) when p-value < alpha")),
    ]),
    "tails": (_cmd_tails, "fit the tail of integer samples from stdin", []),
}


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    code = EXIT_OK
    try:
        code = _COMMANDS[args.command][0](args, stdin, stdout)
        stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``encode ... | head -1``): not an
        # input error.  As in Python's "Note on SIGPIPE", stdout's file
        # becomes devnull, so the flush at exit writes nothing.
        try:
            fd = stdout.fileno()
        except (AttributeError, OSError):
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    except engine.WindowExhausted as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_WINDOW
    except (ValueError, OSError, RuntimeError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
