import hashlib
import io
import os
import random
import select
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finitary.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    EXIT_WINDOW,
    READ_SIZE,
    _COMMANDS,
    ConfigError,
    _build_parser,
    _read_argv,
    main,
    parse_config,
)
from finitary.core import ProbabilityVector
from finitary.engine import WindowExhausted, map_range
from finitary.extractor import PatternConfig

from oracles import contains_marker

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

F = Fraction
FAIR = ProbabilityVector.parse("1/2,1/2")
Q13 = ProbabilityVector.parse("1/3,2/3")


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config("a=3\nq=1/2,1/2\neps=2/5")
        assert cfg.alphabet_size == 3
        assert cfg.target.entries == (F(1, 2), F(1, 2))
        assert cfg.entropy_gap == F(2, 5)
        assert cfg.marker_len is None and cfg.seed is None
        assert cfg.max_window == 10**6

    def test_alphabet_too_small(self):
        with pytest.raises(ConfigError, match="alphabet size 1 outside 2..4096"):
            parse_config("a=1\nq=1")

    def test_bad_sum(self):
        with pytest.raises(ConfigError, match="sum"):
            parse_config("a=2\nq=1/2,1/3\neps=1/10")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("a=2\nq=1/2,1/2\neps=1/10\nbogus=1")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("a=2\neps=1/10")

    def test_eps_required_without_t(self):
        with pytest.raises(ConfigError, match="eps is required"):
            parse_config("a=2\nq=1/2,1/2")
        parse_config("a=2\nq=1/2,1/2\nt=4")  # fine with t

    def test_float_probability_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a=2\nq=0.5,0.5\neps=1/10")

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\na=2\nq=1/3,2/3\nt=3\nseed=9\nmax_window=50")
        assert cfg.seed == 9 and cfg.max_window == 50 and cfg.marker_len == 3

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("t=3\nseed 5", "line 4: expected key=value"),
            ("t=3\nq=1/3,2/3", "line 4: duplicate key 'q'"),
            ("t=0", "marker length must be >= 1, got 0"),
            ("eps=0", "eps must be > 0"),
            ("t=3\nmax_window=-1", "max_window must be >= 0"),
        ],
    )
    def test_rejected(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            parse_config("a=2\nq=1/2,1/2\n" + extra)


class TestExtractCommand:
    def test_pinned_output(self):
        code, out, _ = run_cli(["extract", "--a", "2", "--t", "3", "--word", "1 1 2"])
        assert code == EXIT_OK
        assert out == "N=1 F=1 G=3\n"

    def test_empty_bits(self):
        code, out, _ = run_cli(["extract", "--a", "2", "--t", "3", "--word", "2 2 1"])
        assert code == EXIT_OK and out == "N=0 F= G=2\n"

    def test_pattern_word_is_input_error(self):
        code, out, err = run_cli(["extract", "--a", "2", "--t", "3", "--word", "2 1 1"])
        assert code == EXIT_INPUT and out == "" and "error" in err

    def test_malformed_word_is_input_error(self):
        code, out, err = run_cli(["extract", "--a", "2", "--t", "3", "--word", "1 x"])
        assert code == EXIT_INPUT and out == "" and "malformed symbol stream" in err


class TestSimulateCommand:
    def test_single_symbol(self):
        code, out, _ = run_cli(["simulate", "--q", "1/2,1/2"], "001")
        assert code == EXIT_OK
        assert out == "T\t3\nS\t1\n"

    def test_horizon_two(self):
        code, out, _ = run_cli(["simulate", "--q", "1/2,1/2", "--horizon", "2"], "0 0 1 0")
        assert code == EXIT_OK
        assert out == "T\t4\nS\t1 1\n"

    def test_insufficient_bits(self):
        code, _, err = run_cli(["simulate", "--q", "1/2,1/2"], "01")
        assert code == EXIT_INPUT and "insufficient" in err

    def test_horizon_checked_by_the_cursor(self):
        code, out, err = run_cli(["simulate", "--q", "1/2,1/2", "--horizon", "0"], "0 1")
        assert (code, out, err) == (EXIT_INPUT, "", "error: horizon must be >= 1, got 0\n")


class TestHostileSizes:
    """A marker longer than the input and an alphabet past the bound end the
    command at once, with no traceback and no memory to speak of."""

    def test_marker_longer_than_input_gives_no_output(self):
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "1000000000"]
        assert run_cli(argv, "1 2 1 1 3 2 1\n") == (EXIT_OK, "", "")

    @pytest.mark.parametrize(
        "argv,stdin_text",
        [
            (["extract", "--a", "1000000000", "--t", "2", "--word", "1 3"], ""),
            (["encode", "--a", "1000000000", "--q", "1/2,1/2", "--t", "2"], "2 1 2 1\n"),
        ],
    )
    def test_huge_alphabet_is_one_error_line(self, argv, stdin_text):
        code, out, err = run_cli(argv, stdin_text)
        assert code == EXIT_INPUT and out == ""
        assert err.count("\n") == 1 and err.startswith("error: alphabet size 1000000000")

    def test_long_block_at_a_non_dyadic_target_in_bounded_time(self):
        # One 12,000-symbol block at q = 1/10,9/10: the cursor's integers
        # grow with every bit, so a full gcd at each emission makes the
        # block cubic, about 8 s on a 2-CPU machine; the gcd with the odd
        # part of Q*d takes about 0.4 s.
        rng, word, run = random.Random(7), [], 0
        while len(word) < 12000:
            sym = rng.randint(1, 3)
            nxt = 1 if sym == 2 else run + 1 if sym == 1 and run else 0
            if nxt < 3:
                word.append(sym)
                run = nxt
        text = "2 1 1 " + " ".join(map(str, word)) + " 2 1 1\n"
        start = time.perf_counter()
        code, out, err = run_cli(["encode", "--a", "3", "--q", "1/10,9/10", "--t", "3"], text)
        assert time.perf_counter() - start < 3
        assert (code, err) == (EXIT_OK, "") and len(out.split()) == 12003


def make_stream(seed, size, alphabet):
    rng = np.random.Generator(np.random.PCG64(seed))
    return " ".join(str(v) for v in rng.integers(1, alphabet + 1, size=size))


# Values that each flag takes, and values of each kind that a flag's reader
# or its command refuses.  Integers stay small, so that every command line
# runs in well under a second.  ``--config`` names no file, so it is only
# ever a slip.
GOOD = {
    "--a": ["3", "2"],
    "--t": ["3", "2"],
    "--q": ["1/2,1/2", "1/3,2/3"],
    "--p": ["1/2,1/4,1/4", "1/2,1/2"],
    "--eps": ["2/5", "1/10"],
    "--max-window": ["100000", "40"],
    "--horizon": ["2", "1"],
    "--word": ["1 1 2", "1 3 1"],
    "--trials": ["20", "3"],
    "--seed": ["7", "0"],
    "--kmax": ["20", "6"],
    "--alpha": ["0.5", "1e-3"],
}
REFUSED = {
    int: ["0", "6", " 4", "１", "x", "1.5", ""],
    float: ["nan", "x", ""],
    None: ["1/2,1/3", "0", "x", "", "missing.cfg", "."],
}
DASHED = ["-1", "-x", "-1/2", "-", "--", "-h", "--a"]
EXTRA_WORDS = [["extra"], ["-h"], ["--help"], ["--bogus", "1"], ["encode"], ["--p", "1/2,1/2"]]


@st.composite
def command_lines(draw, dashed):
    """A command line of some of a command's flags, each with a value it
    takes, in any order, and up to three slips: another value (refused or,
    if ``dashed``, one that starts with "-"), a flag repeated or left
    without its value, ``--flag=value``, an abbreviation, or an extra word.
    Now and then there is no command, an unknown one or "-h" instead."""
    name = draw(st.sampled_from([*_COMMANDS, *_COMMANDS, "bogus", "-h", None]))
    if name not in _COMMANDS:
        return [] if name is None else [name]
    arguments = _COMMANDS[name][2]
    words = []
    for flag, options in draw(st.permutations(arguments)):
        if options.get("action"):
            words += [flag] * draw(st.booleans())
        elif flag in GOOD and draw(st.integers(0, 3)) < 3:
            words += [flag, draw(st.sampled_from(GOOD[flag]))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if arguments else 0):
        flag, options = draw(st.sampled_from(arguments))
        values = [*GOOD.get(flag, []), *REFUSED[options.get("type")], *DASHED * dashed]
        value = draw(st.sampled_from(values))
        # "-", "--", the shortest prefix past "--" and the longest: the
        # first two and simulate's "--h" are ambiguous.
        short = flag[: draw(st.sampled_from(sorted({1, 2, min(3, len(flag) - 1), len(flag) - 1})))]
        slip = draw(st.sampled_from([
            [flag, value], [flag], [f"{flag}={value}"], [short, value], *EXTRA_WORDS
        ]))
        if slip[0] == short and flag in words:
            words[words.index(flag)] = short  # the flag given, abbreviated
        else:
            at = draw(st.integers(0, len(words)))
            words[at:at] = slip
    return [name, *words]


# Tokens a fuzzed stdin mixes into a stream of symbols 1..3.
STDIN_TOKENS = ["0", "1", "2", "3", "4", "-1", "01", "x", "9" * 30, "1.0", "\u0662"]


@st.composite
def fuzzed_stdin(draw):
    """stdin bytes: a seeded stream of symbols 1..3, long enough to span
    several reads, with fuzzed tokens put in; integers, some of them huge;
    or empty input, whitespace only, or arbitrary bytes, which need not be
    UTF-8."""
    kind = draw(st.sampled_from(["stream", "integers", "empty", "space", "bytes"]))
    if kind == "empty":
        return b""
    if kind == "integers":
        small, huge = st.integers(0, 9), st.integers(-(10**30), 10**30)
        return " ".join(map(str, draw(st.lists(small | huge, max_size=150)))).encode()
    if kind == "space":
        return draw(st.text(" \t\n\r\x0b\x0c", max_size=20)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tokens = [str(rng.randint(1, 3)) for _ in range(draw(st.sampled_from([3000, 20, 0])))]
    for token in draw(st.lists(st.sampled_from(STDIN_TOKENS), max_size=3)):
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return " ".join(tokens).encode()


class TestEncodeCommand:
    def test_deterministic_and_symbols_in_range(self):
        stream = make_stream(5, 2000, 3)
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3"]
        code1, out1, _ = run_cli(argv, stream)
        code2, out2, _ = run_cli(argv, stream)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2 and out1
        assert set(out1.split()) <= {"1", "2"}

    def test_report_lines(self):
        stream = make_stream(5, 1500, 3)
        code, out, _ = run_cli(
            ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"], stream
        )
        assert code == EXIT_OK
        lines = [line.split("\t") for line in out.splitlines()]
        assert lines and all(len(parts) == 3 for parts in lines)
        indices = [int(parts[0]) for parts in lines]
        assert indices == sorted(indices)
        assert all(int(parts[2]) >= 1 for parts in lines)

    def test_window_exhausted_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=3\nq=1/2,1/2\nt=4\nmax_window=10\n")
        stream = "2 1 1 1 3 3 2 3 3 2 1 1 1 " + " ".join(["3"] * 400)
        code, out, err = run_cli(["encode", "--config", str(cfg)], stream)
        assert code == EXIT_WINDOW
        assert out == "" and "exhaust" in err.lower()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=3\nq=1/2,1/2\nt=4\n")
        stream = make_stream(6, 1500, 3)
        _, out_t4, _ = run_cli(["encode", "--config", str(cfg)], stream)
        _, out_t3, _ = run_cli(["encode", "--config", str(cfg), "--t", "3"], stream)
        assert out_t3 != out_t4

    def test_bad_symbol_is_input_error(self):
        code, _, err = run_cli(["encode", "--a", "2", "--q", "1/2,1/2", "--t", "3"], "1 2 7")
        assert code == EXIT_INPUT and "outside" in err

    def test_empty_input_ok(self):
        code, out, _ = run_cli(["encode", "--a", "2", "--q", "1/2,1/2", "--t", "3"], "")
        assert code == EXIT_OK and out == ""


class TestConfigKeys:
    """``encode`` reads each key of a config file as it reads the same value
    given as a flag over a config, whether the value is taken or refused."""

    BASE = {"a": "3", "q": "1/2,1/2", "eps": "2/5", "max_window": "1000000"}
    # A markerless run at the end keeps block 5 open past a small cap.
    STREAM = make_stream(9, 20_000, 3) + " 3" * 3_000

    @pytest.mark.parametrize(
        "key,value,code",
        [
            ("a", "4", EXIT_OK),
            ("a", "5000", EXIT_INPUT),
            ("q", "1/3,2/3", EXIT_OK),
            ("q", "1/2,1/3", EXIT_INPUT),
            ("eps", "1/5", EXIT_OK),
            ("eps", "1/2", EXIT_INPUT),
            ("eps", "0", EXIT_INPUT),
            ("t", "3", EXIT_OK),
            ("t", "0", EXIT_INPUT),
            ("max_window", "40", EXIT_WINDOW),
            ("max_window", "-1", EXIT_INPUT),
        ],
    )
    def test_key_reads_as_its_flag(self, tmp_path, key, value, code):
        def config(name, fields):
            path = tmp_path / name
            path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
            return str(path)

        from_config = run_cli(
            ["encode", "--config", config("key.cfg", {**self.BASE, key: value})], self.STREAM
        )
        flag = "--" + key.replace("_", "-")
        from_flag = run_cli(
            ["encode", "--config", config("base.cfg", self.BASE), flag, value], self.STREAM
        )
        assert from_config == from_flag
        assert from_config[0] == code
        assert (code == EXIT_OK) == (from_config[2] == "")


# The argv of ``encode`` for each alphabet that the token tests read.
TOKEN_ARGV = {
    2: ["encode", "--a", "2", "--q", "1/4,3/4", "--t", "4", "--report"],
    3: ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"],
    4096: ["encode", "--a", "4096", "--q", "1/2,1/2", "--t", "2", "--report"],
}
# Spellings that ``int`` reads as a symbol, as one outside 1..a and as
# no integer; "{a+1}" stands for the symbol a + 1.
SPELLINGS = [
    "2", "01", "+2", "\uff12", "\u0662", "0", "-1", "{a+1}", "12345678901234567890", "x", "1.0"
]


def token_text(a, spelling, cut):
    """5,000 seeded symbols of 1..a, a third each 1 and 2, with ``spelling``
    in place of one of them: the 4,601st, or, when ``cut``, the one that
    starts at the last character of the first 2 READ_SIZE characters.  The
    piece of input that completes either holds the 4,096th token, so by
    then ``encode`` reads tokens by table lookup at every a here."""
    rng = random.Random(a)
    tokens = [str(rng.choice([1, 2, rng.randint(1, a)])) for _ in range(5_000)]
    spelling = spelling.replace("{a+1}", str(a + 1))
    if not cut:
        tokens[4_600] = spelling
        return " ".join(tokens)
    k = 0
    while len(" ".join(tokens[: k + 1])) <= 2 * READ_SIZE - 2:
        k += 1
    head = " ".join(tokens[:k]).ljust(2 * READ_SIZE - 1)
    return head + spelling + " " + " ".join(tokens[k + 1 :])


# The first 16 hex digits of the sha256 of the stdout that ``token_text``
# gives for a canonical symbol s in place of the spelling, by (a, cut, s),
# and the position of the token that ``cut`` places.  A token that ``int``
# reads as a symbol s of 1..a gives the stdout of s, and any other token
# ends the command at exit 1 with nothing on stdout, as when ``int`` read
# every token.
TOKEN_DIGESTS = {
    (2, False, 1): "2341191baf5e682f", (2, False, 2): "2341191baf5e682f",
    (2, True, 1): "2341191baf5e682f", (2, True, 2): "2341191baf5e682f",
    (3, False, 1): "772bb64048f89702", (3, False, 2): "772bb64048f89702",
    (3, True, 1): "772bb64048f89702", (3, True, 2): "772bb64048f89702",
    (4096, False, 1): "6bc5cdafed590848", (4096, False, 2): "6bc5cdafed590848",
    (4096, True, 1): "f4ba0ce4dc8153bc", (4096, True, 2): "03dafb37a7e954fc",
}
EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()[:16]
CUT_POSITIONS = {2: 4095, 3: 4095, 4096: 2805}


def token_outcome(a, spelling, cut):
    """The exit code, stdout digest and stderr of ``token_text``'s input."""
    spelling = spelling.replace("{a+1}", str(a + 1))
    position = CUT_POSITIONS[a] if cut else 4_600
    try:
        s = int(spelling)
    except ValueError:
        err = f"error: invalid literal for int() with base 10: {spelling!r}\n"
        return EXIT_INPUT, EMPTY_DIGEST, err
    if 1 <= s <= a:
        return EXIT_OK, TOKEN_DIGESTS[a, cut, s], ""
    err = f"error: symbol {s} at position {position} outside 1..{a}\n"
    return EXIT_INPUT, EMPTY_DIGEST, err


class TestTokenTable:
    """``encode`` reads canonical tokens by table lookup and every other
    token by ``int``, with the same stdout, stderr and exit code as a
    reader that uses ``int`` for all of them."""

    @pytest.mark.parametrize("cut", [False, True], ids=["inside", "cut"])
    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("a", sorted(TOKEN_ARGV))
    def test_outcome_is_pinned(self, a, spelling, cut):
        code, out, err = run_cli(TOKEN_ARGV[a], token_text(a, spelling, cut))
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (code, digest, err) == token_outcome(a, spelling, cut)

    def test_cut_token_straddles_a_read(self):
        for a in TOKEN_ARGV:
            text = token_text(a, "12345678901234567890", True)
            assert text[2 * READ_SIZE - 1 : 2 * READ_SIZE + 19] == "12345678901234567890"
            assert len(text[: 3 * READ_SIZE].split()) > 4_096

def long_blocks_stream(seed, blocks, t):
    """A stream over {1, 2, 3} of ``blocks`` blocks of 40 to 120 symbols
    between markers, with one symbol before the first marker and after the
    last.  Each block's simulator succeeds on its own bits, so a cap below
    its length leaves its first indices undetermined and raises nothing."""
    rng = random.Random(seed)
    marker = [2] + [1] * (t - 1)
    out = [3]
    for _ in range(blocks):
        while True:
            word = [rng.choice((1, 2, 3)) for _ in range(rng.randint(40, 120))]
            if not contains_marker(word, t):
                break
        out += marker + word
    return " ".join(map(str, out + marker + [3]))


class TestEncodeWriter:
    # Streams: random ones with undetermined edges, one with a single marker
    # and one with none, each with no cap.  Under a cap, the long blocks'
    # determined indices start late, some of them past the block's middle.
    STREAMS = [
        pytest.param(make_stream(5, 1500, 3), 3, 3, None, id="seed5-a3-t3"),
        pytest.param(make_stream(8, 900, 3), 3, 2, None, id="seed8-a3-t2"),
        pytest.param(make_stream(9, 700, 2), 2, 4, None, id="seed9-a2-t4"),
        pytest.param("3 1 1 3 2 1 1 3 3 1", 3, 3, None, id="one-marker"),
        pytest.param("1 3 3 1 1 3", 3, 3, None, id="no-marker"),
        pytest.param(long_blocks_stream(1, 6, 4), 3, 4, 40, id="long-blocks-t4-cap40"),
        pytest.param(long_blocks_stream(2, 6, 3), 3, 3, 40, id="long-blocks-t3-cap40"),
    ]

    @pytest.mark.parametrize("report", [False, True])
    @pytest.mark.parametrize("text,a,t,cap", STREAMS)
    def test_matches_per_index_rendering(self, text, a, t, cap, report):
        symbols = [int(tok) for tok in text.split()]
        kwargs = {} if cap is None else {"max_window": cap}
        result = map_range(symbols, PatternConfig(a, t), Q13, 0, len(symbols) - 1, **kwargs)
        assert result.undetermined[0] == 0
        if cap is not None:
            # The two-range radius column is checked on blocks that start
            # past their middle, and on blocks that do not.
            blocks = result.blocks
            past = [b.indices.start > (b.left_marker + b.right_extent) // 2 for b in blocks]
            assert set(past) == {False, True}
        lines = []
        for i in sorted(result.outputs):
            if report:
                lines.append(f"{i}\t{result.outputs[i]}\t{result.reports[i].radius}\n")
            else:
                lines.append(f"{result.outputs[i]}\n")
        argv = ["encode", "--a", str(a), "--q", "1/3,2/3", "--t", str(t)]
        argv += [] if cap is None else ["--max-window", str(cap)]
        code, out, _ = run_cli(argv + ["--report"] * report, text)
        assert code == EXIT_OK
        assert out == "".join(lines)

    def test_builds_no_per_index_results(self, monkeypatch):
        import finitary.engine

        def refuse(*args):
            raise AssertionError("encode built a per-index result")

        monkeypatch.setattr(finitary.engine, "CodingReport", refuse)
        monkeypatch.setattr(finitary.engine.MapResult, "outputs", property(refuse))
        monkeypatch.setattr(finitary.engine.MapResult, "reports", property(refuse))
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"]
        code, out, _ = run_cli(argv, make_stream(5, 1500, 3))
        assert code == EXIT_OK and out


class TestSelectCommand:
    def test_selector_t(self):
        code, out, err = run_cli(["select-t", "--q", "1/2,1/2", "--eps", "2/5", "--a", "3"])
        assert code == EXIT_OK and err == ""
        assert "t\t6" in out.splitlines()

    @pytest.mark.parametrize("a", ["1", "4097", "5000"])
    def test_refuses_the_alphabets_encode_refuses(self, a):
        selected = run_cli(["select-t", "--q", "1/2,1/2", "--eps", "2/5", "--a", a])
        encoded = run_cli(["encode", "--a", a, "--q", "1/2,1/2", "--t", "3"], "2 1 1 3\n")
        assert selected == encoded == (EXIT_INPUT, "", f"error: alphabet size {a} outside 2..4096\n")


class TestVerifyBoundsCommand:
    def test_clean_target_passes(self):
        code, out, _ = run_cli(["verify-bounds", "--q", "1/3,2/3", "--kmax", "12"])
        assert code == EXIT_OK
        assert "tight_bound_ok\tTrue" in out
        assert "survival_3\t3/8" in out

    def test_fair_coin_passes_via_loose_bound(self):
        code, out, _ = run_cli(["verify-bounds", "--q", "1/2,1/2", "--kmax", "12"])
        assert code == EXIT_OK
        assert "dyadic_interior\tTrue" in out
        assert "survival_3\t1/2" in out


class TestCertifyCommand:
    CERTIFY = ["certify-t", "--p", "1/3,1/3,1/3", "--q", "1/2,1/2", "--t", "4",
               "--trials", "20"]

    def test_pass_exit_zero(self):
        code, out, _ = run_cli(
            ["certify-t", "--p", "1/3,1/3,1/3", "--q", "1/2,1/2", "--t", "4",
             "--trials", "400", "--seed", "11"]
        )
        assert code == EXIT_OK and "status\tpass" in out

    def test_fail_exit_three(self):
        code, out, _ = run_cli(
            ["certify-t", "--p", "1/2,1/2", "--q", "1/2,1/2", "--t", "3",
             "--trials", "2000", "--seed", "11"]
        )
        assert code == EXIT_VERIFY and "status\tfail" in out

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("FINITARY_SEED", "11")
        code, out, _ = run_cli(
            ["certify-t", "--p", "1/3,1/3,1/3", "--q", "1/2,1/2", "--t", "4",
             "--trials", "400"]
        )
        assert code == EXIT_OK and "seed\t11" in out

    @pytest.mark.parametrize(
        "config_seed,flag,env,seed",
        [
            (5, None, None, 5),
            (5, 7, None, 7),
            (5, None, "9", 5),
            (None, None, "9", 9),
            (None, None, None, 0),
            (5, None, "x", 5),
            (None, 7, "x", 7),
        ],
    )
    def test_seed_resolution(self, tmp_path, monkeypatch, config_seed, flag, env, seed):
        # --seed, then the config's seed, then FINITARY_SEED, then 0.  The
        # run is the one that --seed gives alone.
        path = tmp_path / "run.cfg"
        seed_line = "" if config_seed is None else f"seed={config_seed}\n"
        path.write_text("a=3\nq=1/2,1/2\neps=2/5\n" + seed_line)
        argv = self.CERTIFY + ["--config", str(path)]
        if flag is not None:
            argv += ["--seed", str(flag)]
        if env is None:
            monkeypatch.delenv("FINITARY_SEED", raising=False)
        else:
            monkeypatch.setenv("FINITARY_SEED", env)
        code, out, err = run_cli(argv)
        assert f"seed\t{seed}\n" in out and err == ""
        monkeypatch.delenv("FINITARY_SEED", raising=False)
        assert (code, out, err) == run_cli(self.CERTIFY + ["--seed", str(seed)])

    def test_bad_env_seed_when_it_is_read(self, monkeypatch):
        monkeypatch.setenv("FINITARY_SEED", "x")
        code, out, err = run_cli(self.CERTIFY)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: FINITARY_SEED is not an integer: 'x'\n"

    def test_config_must_be_a_whole_encode_config(self, tmp_path):
        # certify-t takes only the seed from a config, but parses all of it.
        path = tmp_path / "seed.cfg"
        path.write_text("seed=5\n")
        code, out, err = run_cli(self.CERTIFY + ["--config", str(path)])
        assert code == EXIT_INPUT and out == ""
        assert err == "error: missing required key 'a'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--a", "3"],
            CERTIFY,
        ],
    )
    def test_config_alphabet_is_checked_when_read(self, tmp_path, argv):
        # A config's a is checked as the file is parsed, against both of
        # PatternConfig's bounds, so a flag given over it does not save it.
        path = tmp_path / "wide.cfg"
        path.write_text("a=5000\nq=1/2,1/2\nt=3\n")
        code, out, err = run_cli(argv + ["--config", str(path)], "2 1 1 3\n")
        assert code == EXIT_INPUT and out == ""
        assert err == "error: alphabet size 5000 outside 2..4096\n"

    def test_long_marker_is_refused_before_sampling(self):
        # At t = 40 the first draw would hold about 2^41 symbols.
        code, out, err = run_cli(
            ["certify-t", "--p", "1/2,1/2", "--q", "1/2,1/2", "--t", "40",
             "--trials", "2", "--seed", "1"]
        )
        assert code == EXIT_INPUT and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "t = 40" in err and "2 trials" in err


class TestAnalyzeAndTails:
    def test_analyze_balanced(self):
        code, out, _ = run_cli(["analyze", "--q", "1/2,1/2"], "1 2 1 2 1 2 1 2")
        assert code == EXIT_OK and "p_value\t1.0" in out

    def test_analyze_alpha_failure(self):
        stream = " ".join(["1"] * 200 + ["2"] * 40)
        code, out, _ = run_cli(["analyze", "--q", "1/2,1/2", "--alpha", "0.001"], stream)
        assert code == EXIT_VERIFY

    def test_analyze_rejects_symbol_outside_alphabet(self):
        code, out, err = run_cli(["analyze", "--q", "1/2,1/2"], "1 2 7")
        assert code == EXIT_INPUT and not out
        assert "symbol 7 at position 2 outside 1..2" in err

    def test_tails_geometric(self):
        rng = np.random.Generator(np.random.PCG64(3))
        data = " ".join(str(v) for v in rng.geometric(0.5, size=20000))
        code, out, _ = run_cli(["tails"], data)
        assert code == EXIT_OK
        slope = float(dict(l.split("\t") for l in out.splitlines())["slope"])
        assert -0.75 < slope < -0.64

    def test_tails_degenerate(self):
        code, _, err = run_cli(["tails"], " ".join(["3"] * 200))
        assert code == EXIT_INPUT and "degenerate" in err

    @pytest.mark.parametrize("huge", ["99999999999999999999", "-99999999999999999999"])
    def test_tails_sample_outside_int64(self, huge):
        code, out, err = run_cli(["tails"], "1 2 " + huge)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: samples must lie in the int64 range\n"

    @pytest.mark.parametrize(
        "outliers,message",
        [
            # The fit stops at the tenth-largest sample, 2, so one outlier
            # does not widen it, and [1, 2] is too short to fit.
            (["1000000000000000000"], "degenerate tail"),
            # Ten outliers move the tenth-largest sample up to them.
            ([str(10**17 + i) for i in range(10)], "would span more than 4194304 integers"),
        ],
        ids=["one", "ten"],
    )
    def test_tails_outliers(self, outliers, message):
        code, out, err = run_cli(["tails"], " ".join(["1", "2"] * 50 + outliers))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestRuntimeDependencies:
    # scipy is a test extra only: no command may need it at run time.  Only
    # certify-t and tails load numpy.
    BLOCKED = "import sys; sys.modules[{!r}] = None; from finitary.cli import entry; entry()"
    ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run_without(self, module, argv, stdin_text=""):
        return subprocess.run(
            [sys.executable, "-c", self.BLOCKED.format(module), *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=self.ENV,
            timeout=120,
        )

    def python_ok(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=self.ENV, timeout=60
        )
        return proc.returncode == 0

    def test_scipy_is_blocked_and_not_imported(self):
        assert not self.python_ok("import sys; sys.modules['scipy'] = None; import scipy.special")
        assert self.python_ok(
            "import sys, finitary.cli; sys.exit(any(m.startswith('scipy') for m in sys.modules))"
        )

    def test_cli_imports_no_numpy(self):
        assert self.python_ok("import sys, finitary.cli; sys.exit('numpy' in sys.modules)")

    def test_encode_runs_without_numpy(self):
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"]
        stdin_text = make_stream(5, 3000, 3)
        proc = self.run_without("numpy", argv, stdin_text)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv, stdin_text)
        assert proc.returncode == EXIT_OK and proc.stdout

    @pytest.mark.parametrize(
        "argv,stdin_text",
        [
            (["analyze", "--q", "1/2,1/2"], " ".join(["1"] * 130 + ["2"] * 70)),
            (["analyze", "--q", "1/6,1/3,1/2"], "1 2 3 3 2 3 1 3 3 2 2 3"),
            (["certify-t", "--p", "1/2,1/4,1/4", "--q", "1/2,1/2", "--t", "6",
              "--trials", "20", "--seed", "7"], ""),
        ],
    )
    def test_commands_run_without_scipy(self, argv, stdin_text):
        proc = self.run_without("scipy", argv, stdin_text)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv, stdin_text)
        assert proc.returncode == EXIT_OK and proc.stdout


class TestParserIdentity:
    # main builds only the parser of the command that argv[0] names; its
    # help and errors must read as those of the parser of every command.
    MALFORMED = {
        "encode": ["--t", "x"],
        "simulate": ["--horizon", "x"],
        "extract": ["--a", "x"],
        "select-t": ["--a", "x"],
        "certify-t": ["--trials", "x"],
        "verify-bounds": ["--kmax", "x"],
        "analyze": ["--alpha", "x"],
        "tails": ["--bogus"],
    }

    @pytest.mark.parametrize(
        "argv",
        [["-h"], [], ["bogus"], ["encode", "--bogus"], ["select-t", "--q", "1/2,1/2"]]
        + [[name, "-h"] for name in MALFORMED]
        + [[name, *flags] for name, flags in MALFORMED.items()],
    )
    def test_reads_as_the_full_parser(self, argv, capsys):
        code = main(argv)
        got = (code, *capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        full = (EXIT_OK if exc.value.code in (0, None) else EXIT_INPUT, *capsys.readouterr())
        assert got == full
        assert got[1] if argv[-1:] == ["-h"] else "error: " in got[2]


# A canonical command line of each command, with a stdin that it reads.
CANONICAL = {
    "encode": (["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"],
               make_stream(5, 300, 3)),
    "simulate": (["simulate", "--q", "1/2,1/2", "--horizon", "2"], "0 0 1 0"),
    "extract": (["extract", "--a", "2", "--t", "3", "--word", "1 1 2"], ""),
    "select-t": (["select-t", "--q", "1/2,1/2", "--eps", "2/5", "--a", "3"], ""),
    "certify-t": (["certify-t", "--p", "1/2,1/4,1/4", "--q", "1/2,1/2", "--t", "6",
                   "--trials", "20", "--seed", "7"], ""),
    "verify-bounds": (["verify-bounds", "--q", "1/3,2/3", "--kmax", "20"], ""),
    "analyze": (["analyze", "--q", "1/2,1/2", "--alpha", "0.001"], "1 2 2 1 2 1 1 2"),
    "tails": (["tails"], " ".join(str(1 + i % 9) for i in range(100))),
}


class TestArgvReader:
    # main reads a well-formed command line without argparse; every other
    # one goes to the parser, so argparse alone prints usage, help and errors.
    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_canonical_line_builds_no_parser(self, name, monkeypatch):
        argv, stdin_text = CANONICAL[name]
        args = _build_parser().parse_args(argv)
        out = io.StringIO()
        expected = (_COMMANDS[name][0](args, io.StringIO(stdin_text), out), out.getvalue(), "")

        def refuse(*args):
            raise AssertionError("a parser was built")

        monkeypatch.setattr("finitary.cli._build_parser", refuse)
        assert run_cli(argv, stdin_text) == expected
        assert expected[0] == EXIT_OK and expected[1]

    def test_encode_leaves_argparse_unimported(self):
        argv, stdin_text = CANONICAL["encode"]
        code = (
            "import sys; from finitary.cli import main; code = main(sys.argv[1:]); "
            "sys.stdout.flush(); sys.exit(code or 'argparse' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv, stdin_text)

    @settings(max_examples=600, deadline=None)
    @given(command_lines(dashed=True))
    # An ambiguous abbreviation, a repeat whose last value wins and a
    # missing required flag, which argparse refuses or reads its own way.
    @example(["simulate", "--q", "1/2,1/2", "--h", "2"])
    @example(["encode", "--", "3", "--a", "3", "--q", "1/2,1/2"])
    @example(["encode", "--a", "3", "--q", "1/2,1/2", "--t", "2", "--t", "3"])
    @example(["select-t", "--q", "1/2,1/2", "--a", "3"])
    def test_reads_as_parse_args(self, argv):
        fast = _read_argv(argv)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                parsed = vars(_build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        if parsed is None:
            assert fast is None
        elif fast is not None:
            assert vars(fast) == parsed


class TestFuzzedCommandLine:
    # Every failure maps to a documented exit code with one error line.
    @settings(max_examples=800, deadline=None)
    @given(command_lines(dashed=False), fuzzed_stdin())
    def test_exit_codes_and_error_lines(self, argv, data):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        out, err, printed = io.StringIO(), io.StringIO(), io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            code = main(argv, stdin=stdin, stdout=out, stderr=err)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_WINDOW, EXIT_VERIFY)
        err = err.getvalue()
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err[-1] == "\n")
        assert "Traceback" not in err + printed.getvalue()
        if argv[:1] == ["encode"] and code != EXIT_OK:
            assert out.getvalue()[-1:] in ("", "\n")


class TestStdoutDiscipline:
    def test_errors_only_on_stderr(self):
        code, out, err = run_cli(["simulate", "--q", "1/2,1/3"], "0")
        assert code == EXIT_INPUT and out == "" and err


class TrickleStdin:
    """stdin that hands out at most 7 characters per read, cutting tokens
    anywhere, and refuses to be read whole."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("stdin read whole")
        piece = self.text[self.pos : self.pos + min(size, 7)]
        self.pos += len(piece)
        return piece

    @property
    def at_eof(self):
        return self.pos == len(self.text)


class PositionStdin(io.StringIO):
    """stdin that knows whether it has been read to its end."""

    @property
    def at_eof(self):
        return self.tell() == len(self.getvalue())


class WatchingStdout(io.StringIO):
    """stdout that notes whether stdin had reached its end at the first write."""

    def __init__(self, stdin):
        super().__init__()
        self.stdin, self.first_write_at_eof = stdin, None

    def write(self, s):
        if s and self.first_write_at_eof is None:
            self.first_write_at_eof = self.stdin.at_eof
        return super().write(s)


def run_trickle(argv, text):
    stdin = TrickleStdin(text)
    out, err = WatchingStdout(stdin), io.StringIO()
    code = main(argv, stdin=stdin, stdout=out, stderr=err)
    return code, out, err.getvalue()


def render(blocks, report):
    lines = []
    for blk in blocks:
        left, right = blk.left_marker, blk.right_extent
        for i, s in zip(blk.indices, blk.symbols):
            lines.append(f"{i}\t{s}\t{max(i - left, right - i)}\n" if report else f"{s}\n")
    return "".join(lines)


class TestEncodeStreaming:
    SHORT = workloads.WORKLOADS["short_blocks_t3"]

    @pytest.mark.parametrize("r", range(8))
    def test_trickled_input_gives_the_one_shot_output(self, r):
        argv, data, _ = workloads.make_input(self.SHORT, 7, r, self.SHORT.smoke_size)
        text = data.decode("ascii")
        once = run_cli(argv, text)
        code, out, err = run_trickle(argv, text)
        assert once[0] == code == EXIT_OK and once[2] == err == ""
        assert out.getvalue() == once[1] and once[1]
        # The first block resolves long before the input ends.
        assert out.first_write_at_eof is False

    def test_first_write_before_a_full_size_input_ends(self):
        # A full-size input is several reads long, so the first block's
        # lines are written before stdin reaches its end.
        argv, data, stream = workloads.make_input(self.SHORT, 7, 0, self.SHORT.size)
        assert argv[:7] == ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3"]
        text = data.decode("ascii")
        assert len(text) > 4 * READ_SIZE
        stdin = PositionStdin(text)
        out, err = WatchingStdout(stdin), io.StringIO()
        assert main(argv, stdin=stdin, stdout=out, stderr=err) == EXIT_OK
        assert err.getvalue() == "" and out.first_write_at_eof is False
        expected = map_range(stream, PatternConfig(3, 3), FAIR, 0, len(stream) - 1)
        assert out.getvalue() == render(expected.blocks, "--report" in argv)

    def test_tokens_cut_across_pieces(self):
        # Two-digit symbols and mixed whitespace, cut every 7 characters.
        rng = np.random.Generator(np.random.PCG64(4))
        symbols = [int(v) for v in rng.choice([1, 1, 2, 3, 10, 11, 12], size=1500)]
        seps = rng.choice([" ", "\n", "\t", "  ", "\r\n"], size=len(symbols))
        text = "".join(f"{s}{sep}" for s, sep in zip(symbols, seps)).rstrip()
        argv = ["encode", "--a", "12", "--q", "1/3,2/3", "--t", "2", "--report"]
        expected = map_range(symbols, PatternConfig(12, 2), Q13, 0, len(symbols) - 1)
        code, out, _ = run_trickle(argv, text)
        assert code == EXIT_OK and out.getvalue() == render(expected.blocks, True)
        assert out.getvalue()

    def test_bad_symbol_after_output(self):
        stream = [int(tok) for tok in make_stream(5, 1500, 3).split()]
        stream[1200] = 7
        text = " ".join(map(str, stream))
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"]
        with pytest.raises(ValueError) as whole:
            map_range(stream, PatternConfig(3, 3), Q13, 0, len(stream) - 1)
        code, out, err = run_trickle(argv, text)
        assert code == EXIT_INPUT and err == f"error: {whole.value}\n"
        assert "position 1200 " in err
        valid = run_cli(argv, " ".join(map(str, stream[:1200])))[1]
        assert out.getvalue().endswith("\n") and valid.startswith(out.getvalue())
        assert out.getvalue()

    def test_window_exhausted_after_output(self):
        # Blocks that resolve, then a block whose word yields no bits, and
        # no marker after it: its simulator waits while the input runs on.
        head = [int(tok) for tok in make_stream(5, 1500, 3).split()]
        stream = head + [2, 1, 1, 3, 3, 3, 2, 1, 1] + [3] * 1200
        cap = 1000
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--max-window", str(cap)]
        fair = ProbabilityVector.parse("1/2,1/2")
        with pytest.raises(WindowExhausted) as whole:
            map_range(stream, PatternConfig(3, 3), fair, 0, len(stream) - 1, cap)
        code, out, err = run_trickle(argv, " ".join(map(str, stream)))
        assert code == EXIT_WINDOW and err == f"error: {whole.value}\n"
        seen = int(str(whole.value).split("past index ")[1].split()[0])
        valid = run_cli(argv, " ".join(map(str, stream[: seen + cap + 1])))
        assert valid[0] == EXIT_OK
        assert out.getvalue().endswith("\n") and valid[1].startswith(out.getvalue())
        assert out.getvalue()

    def test_live_pipe_streams_before_end_of_input(self, tmp_path):
        # The writer keeps stdin open, so the first line must come out while
        # the encoder waits for more input, not at the end of input.
        text = make_stream(5, 3000, 3) + " "
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3"]
        command = [sys.executable, "-m", "finitary.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        try:
            proc.stdin.write(text.encode())
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no output within 10 s while stdin stays open"
            first = proc.stdout.readline()
            assert first.strip()
        finally:
            proc.stdin.close()
            rest, err = proc.stdout.read(), proc.stderr.read()
            proc.wait(timeout=300)
        assert proc.returncode == EXIT_OK and err == b""
        path = tmp_path / "stream.txt"
        path.write_text(text)
        with path.open() as stdin:
            from_file = subprocess.run(
                command, stdin=stdin, capture_output=True, env=env, timeout=300
            )
        assert from_file.returncode == EXIT_OK
        assert first + rest == from_file.stdout

    def test_reader_closing_the_pipe_is_not_an_error(self, tmp_path):
        # The encoder has about 4 MB of report lines to write and the pipe
        # holds far less, so it is still writing when the reader closes the
        # pipe after one line: exit 0, nothing on stderr.
        path = tmp_path / "stream.txt"
        path.write_text(make_stream(13, 300_000, 3))
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with path.open() as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "finitary.cli", *argv],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            try:
                first = proc.stdout.readline()
            finally:
                proc.stdout.close()
                err = proc.stderr.read()
                proc.wait(timeout=300)
        assert first.count(b"\t") == 2
        assert (proc.returncode, err) == (EXIT_OK, b"")

    def test_broken_stdout_without_a_file(self):
        # A stream with no file descriptor is left as it is.
        class Gone(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        argv = ["encode", "--a", "3", "--q", "1/2,1/2", "--t", "3"]
        code = main(argv, stdin=io.StringIO(make_stream(5, 3000, 3)), stdout=Gone(), stderr=err)
        assert (code, err.getvalue()) == (EXIT_OK, "")

    def test_real_pipe(self):
        # More than one read of stdin, through an operating-system pipe.
        symbols = [int(tok) for tok in make_stream(12, 40_000, 3).split()]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = ["encode", "--a", "3", "--q", "1/3,2/3", "--t", "3", "--report"]
        proc = subprocess.run(
            [sys.executable, "-m", "finitary.cli", *argv],
            input=" ".join(map(str, symbols)),
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        expected = map_range(symbols, PatternConfig(3, 3), Q13, 0, len(symbols) - 1)
        assert proc.stdout == render(expected.blocks, True)
