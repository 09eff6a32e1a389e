import contextlib
import decimal
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nc_forge import cli, novak
from nc_forge.certify import CERT_FIELDS, Schedule, certify_lower_bound
from nc_forge.cli import (
    EXIT_DOMAIN, EXIT_MISMATCH, EXIT_OK, EXIT_PIPE, EXIT_RESOURCE, parse_natural, run,
)
from nc_forge.construction import build_base
from nc_forge.errors import DomainError, ResourceError
from nc_forge.novak import list_nc
from nc_forge.sieve import sieve_primes

from oracles import family_products, shifted_smooth_primes


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nc_count(capsys):
    code, out, _ = invoke(capsys, "nc", "count", "--limit", "100")
    assert code == EXIT_OK
    assert out == "23\n"


def test_nc_check_json(capsys):
    code, out, _ = invoke(capsys, "nc", "check", "3", "--format", "json")
    assert code == EXIT_OK
    assert out.strip() == '{"n":3,"is_nc":false,"witness":{"prime":3}}'


def test_nc_check_true_json(capsys):
    code, out, _ = invoke(capsys, "nc", "check", "2520", "--format", "json")
    assert json.loads(out) == {"n": 2520, "is_nc": True, "witness": None}


def test_nc_check_plain(capsys):
    assert invoke(capsys, "nc", "check", "561")[1] == "false prime 3\n"
    assert invoke(capsys, "nc", "check", "8")[1] == "true\n"
    # No factor table: n above the default table budget (about 1.07e9) is checked too.
    assert invoke(capsys, "nc", "check", "10^12") == (EXIT_OK, "true\n", "")


def test_nc_list_formats(capsys):
    code, out, _ = invoke(capsys, "nc", "list", "--limit", "20")
    assert out.split("\n")[:4] == ["1", "2", "4", "6"]
    code, out, _ = invoke(capsys, "nc", "list", "--limit", "20", "--format", "json")
    assert json.loads(out) == [1, 2, 4, 6, 8, 12, 16, 18, 20]


def test_smooth_commands(capsys):
    assert invoke(capsys, "smooth", "pi", "--x", "10", "--y", "3")[1] == "4\n"
    assert invoke(capsys, "smooth", "psi", "--x", "100", "--y", "5")[1] == "34\n"
    code, out, _ = invoke(capsys, "smooth", "rho", "--u", "0.5")
    assert out == "1\n"
    code, out, _ = invoke(capsys, "smooth", "psi", "--x", "100", "--y", "5", "--format", "json")
    assert json.loads(out) == {"x": 100, "y": 5, "psi": 34}


def test_conjecture_csv(capsys):
    code, out, _ = invoke(
        capsys, "conjecture", "--z", "100", "--y-rule", "fixed:10", "--format", "csv"
    )
    lines = out.strip().split("\n")
    assert lines[0] == "z,y,pi,pi_smooth,psi,lhs_ratio,rhs_ratio"
    assert lines[1].startswith("100,10,25,17,")


def test_conjecture_range_and_json(capsys):
    code, out, _ = invoke(
        capsys, "conjecture", "--z", "100..300..100", "--y-rule", "power:0.5",
        "--format", "json",
    )
    rows = json.loads(out)
    assert [r["z"] for r in rows] == [100, 200, 300]


def test_conjecture_range_is_charged_before_its_list_is_built(capsys):
    # 999 999 z values hold about 40 MB as a list; the refusal comes before any of it.
    tracemalloc.start()
    try:
        code, out, err = invoke(
            capsys, "conjecture", "--z", "2..10^6..1", "--y-rule", "hild", "--limit-memory", "10^6"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "z list 39999960 bytes exceed the 1000000-byte budget" in err
    assert peak < 4 * 10**6


@pytest.mark.parametrize(
    "argv, name",
    [
        ("certify --x 10^30 --r 10 --s 10^13", "s"),
        ("construct --r 2 --s 10^13", "s"),
        ("smooth pi --x 10^13 --y 5", "x"),
        ("conjecture --z 10^13 --y-rule hild", "z"),
        ("conjecture --z 2..10^13..10^12 --y-rule hild", "z"),
    ],
)
def test_the_ceiling_error_names_the_argument_given(capsys, argv, name):
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out) == (EXIT_RESOURCE, "")
    assert f"{name}=10000000000000 exceeds the supported ceiling 2^40" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("smooth pi --x 10^9 --y 0", "needs x >= 2 and y >= 1, got x=1000000000, y=0"),
        ("smooth pi --x 1 --y 5", "needs x >= 2 and y >= 1, got x=1, y=5"),
        ("conjecture --z 1,10^9 --y-rule hild", "needs z values, each at least 2"),
        ("conjecture --z 10^9 --y-rule fixed:0", "y=0 < 1 at z=1000000000"),
        ("conjecture --z 2,10^9 --y-rule power:1000", "overflows y at z=1000000000"),
    ],
)
def test_domain_errors_come_before_the_tables(capsys, monkeypatch, argv, message):
    """Refused before build_tables runs, which at 10^9 charges about 1.4 GB and takes seconds."""

    def refuse(limit, memory_budget=None):
        raise AssertionError(f"tables built to {limit}")

    monkeypatch.setattr(cli, "build_tables", refuse)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_DOMAIN, "")
    assert message in err and "Traceback" not in err


def test_construct_member(capsys):
    code, out, _ = invoke(
        capsys, "construct", "--r", "3", "--s", "10", "--subset", "5,7", "--format", "json"
    )
    assert json.loads(out) == {"D": "72", "subset": [5, 7], "E": "2520"}


def test_construct_all(capsys):
    code, out, _ = invoke(capsys, "construct", "--r", "3", "--s", "10", "--all", "--format", "json")
    members = json.loads(out)
    assert len(members) == 16
    assert len({m["E"] for m in members}) == 16
    # Streamed member by member, the text is still json.dumps of the whole list.
    base = build_base(30, 5, sieve_primes(30)).value
    pset = shifted_smooth_primes(30, 5)
    want = [
        {"D": str(base), "subset": list(subset), "E": str(value)}
        for k in range(len(pset) + 1)
        for subset, value in family_products(base, pset, k)
    ]
    code, out, _ = invoke(capsys, "construct", "--r", "5", "--s", "30", "--all", "--format", "json")
    assert (code, out) == (EXIT_OK, json.dumps(want, separators=(",", ":")) + "\n")


def test_construct_base_info(capsys):
    code, out, _ = invoke(capsys, "construct", "--r", "10", "--s", "100", "--format", "json")
    info = json.loads(out)
    assert info["D"] == "6350400"
    assert info["pi"] == 17


def test_construct_prints_a_base_over_the_int_str_limit(capsys):
    want = build_base(10**6, 20_000, sieve_primes(20_000)).value
    for fmt in ("plain", "json"):
        code, out, err = invoke(
            capsys, "construct", "--r", "20000", "--s", "1000000", "--format", fmt
        )
        assert code == EXIT_OK
        assert "Traceback" not in err
        digits = json.loads(out)["D"] if fmt == "json" else out.split()[0].removeprefix("D=")
        assert len(digits) > 4300
        assert int(decimal.Decimal(digits)) == want


def test_certify_and_verify_roundtrip(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "certify", "--x", "10^30", "--r", "10", "--s", "100", "--format", "json"
    )
    assert code == EXIT_OK
    cert = json.loads(out)
    assert cert["A"] == 11 and cert["count"] == "12376"
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify", "--cert", str(path))
    assert code == EXIT_OK
    assert out == "ok\n"


def test_plain_certificate_output_also_verifies(capsys, tmp_path):
    _, out, _ = invoke(capsys, "certify", "--x", "2520", "--r", "3", "--s", "10")
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert invoke(capsys, "verify", "--cert", str(path))[0] == EXIT_OK


def test_verify_flags_mutations(capsys, tmp_path):
    _, out, _ = invoke(
        capsys, "certify", "--x", "10^30", "--r", "10", "--s", "100", "--format", "json"
    )
    cert = json.loads(out)
    cert["count"] = "12377"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, _, err = invoke(capsys, "verify", "--cert", str(path))
    assert code == EXIT_MISMATCH
    assert "count" in err


def test_certify_schedule_t1(capsys):
    # The count at e^100000 has 5 999 digits, over CPython's int/str limit.
    for x, r, s in (("e^10000", 117, 13689), ("e^100000", 754, 568516)):
        code, out, err = invoke(
            capsys, "certify", "--x", x, "--schedule", "t1", "--u", "0.5",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert "Traceback" not in err
        cert = json.loads(out)
        assert (cert["r"], cert["s"]) == (r, s)


def test_certify_enumerate(capsys):
    code, out, err = invoke(
        capsys, "certify", "--x", "2520", "--r", "3", "--s", "10", "--enumerate",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert "enumerated 4 members" in err


def test_certify_usage_requires_schedule(capsys):
    code, _, err = invoke(capsys, "certify", "--x", "100")
    assert code == EXIT_DOMAIN


def test_exit_codes(capsys):
    assert invoke(capsys, "nc", "check", "0")[0] == EXIT_DOMAIN
    assert invoke(capsys, "nc", "count", "--limit", "10^13")[0] == EXIT_RESOURCE
    assert invoke(capsys, "nc", "check", "1099511627777")[0] == EXIT_RESOURCE
    assert invoke(capsys, "nc", "check", "10^5000")[0] == EXIT_RESOURCE
    assert invoke(capsys, "nc", "check", "10^-3")[0] == EXIT_DOMAIN
    assert invoke(capsys, "smooth", "rho", "--u", "-1")[0] == EXIT_DOMAIN
    assert invoke(capsys, "smooth", "rho", "--u", "nan")[0] == EXIT_DOMAIN
    assert invoke(capsys, "conjecture", "--z", "10^4", "--y-rule", "power:abc")[0] == EXIT_DOMAIN
    assert invoke(capsys, "nc", "count", "--bogus", "1")[0] == EXIT_DOMAIN
    assert invoke(capsys, "verify", "--cert", "/nonexistent.json")[0] == EXIT_DOMAIN


def test_errors_show_long_numbers_by_their_digit_count(capsys):
    for argv, want in (
        (["nc", "check", "10^4000"], EXIT_RESOURCE),
        (["nc", "count", "--limit", "10^4000"], EXIT_RESOURCE),
        (["smooth", "pi", "--x", "10^4000", "--y", "5"], EXIT_RESOURCE),
        (["construct", "--r", "10^4000", "--s", "100"], EXIT_DOMAIN),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (want, "")
        assert len(err) < 200 and "4001-digit number" in err


def test_verify_rejects_json_number_over_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"count": ' + "9" * 5000 + "}")
    assert invoke(capsys, "verify", "--cert", str(path))[0] == EXIT_DOMAIN


def test_memory_budget_flag(capsys):
    code, _, err = invoke(
        capsys, "smooth", "pi", "--x", "10^6", "--y", "5", "--limit-memory", "1000"
    )
    assert code == EXIT_RESOURCE
    assert "budget" in err
    # The table alone fits 1 MB (2 bytes an odd n); the budget also counts the prime array beside it.
    code, _, err = invoke(
        capsys, "smooth", "pi", "--x", "10^6", "--y", "5", "--limit-memory", "1000000"
    )
    assert code == EXIT_RESOURCE
    assert "factor table" in err and "prime array" in err
    # Psi builds no factor table: its prime list and its pi table of the v < 6^2 fit 1000 bytes.
    code, out, _ = invoke(
        capsys, "smooth", "psi", "--x", "10^6", "--y", "5", "--limit-memory", "1000"
    )
    assert (code, out) == (EXIT_OK, "507\n")  # the 5-smooth numbers <= 10^6
    # At y near sqrt(x) the pi table holds 2 isqrt(x) entries: 2 * 10^6 of them at 10^12.
    code, out, err = invoke(
        capsys, "smooth", "psi", "--x", "10^12", "--y", "10^6", "--limit-memory", "10^7"
    )
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "+ pi table 24000000 bytes exceed" in err


def test_nc_list_is_charged_before_its_members_are_built(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "nc", "list", "--limit", "10^11", "--limit-memory", "10^6")
    assert time.perf_counter() - start < 3
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.startswith("resource error:") and "closure counters" in err
    # At 10^9 the counters and the output batch fit, and the member list outgrows the rest as the walk finds it.
    code, out, err = invoke(capsys, "nc", "list", "--limit", "10^9", "--limit-memory", "2000000")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "member list" in err and "output batch" in err
    # nc count holds no list, so half that budget counts to 10^9.
    assert invoke(capsys, "nc", "count", "--limit", "10^9", "--limit-memory", "10^6") == (EXIT_OK, "192826\n", "")


class _DigestWriter(io.TextIOBase):
    """A stdout that keeps only a digest of what is written, so tracemalloc sees no growing buffer."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_nc_list_output_is_streamed_within_its_charge(monkeypatch, fmt):
    # 54 382 members: their strings and one joined string outgrew the list's charge by about 3 MB.
    x = 10**8
    members = list_nc(x)
    text = json.dumps(members, separators=(",", ":")) if fmt == "json" else "\n".join(map(str, members))
    charge = sum(novak._charge("list_nc", x).values()) + novak.MEMBER_BYTES * len(members)
    batch = cli.NC_LIST_BATCH_BYTES
    sink = _DigestWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = run(["nc", "list", "--limit", str(x), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert sink.digest.hexdigest() == hashlib.sha256((text + "\n").encode()).hexdigest()
    assert peak <= charge + batch


def test_smooth_psi_budget_bounds_its_prime_list(capsys):
    code, out, err = invoke(
        capsys, "smooth", "psi", "--x", "10^10", "--y", "10^9", "--limit-memory", "10^7"
    )
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "budget" in err
    # For y >= x every n <= x is y-smooth: no prime list is built, so the budget never binds.
    code, out, _ = invoke(
        capsys, "smooth", "psi", "--x", "10^9", "--y", "10^9", "--limit-memory", "10^7"
    )
    assert (code, out) == (EXIT_OK, "1000000000\n")
    # The ceiling is checked first, so a huge x is refused by name, before anything is charged.
    for x, y in (("10^13", "10^13"), ("10^13", "10^12"), ("10^30", "10^29")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "smooth", "psi", "--x", x, "--y", y)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "x=" in err and "2^40" in err and "Traceback" not in err
    # The charge for y < 2 lists no primes; psi_count then refuses y = 0 and counts n = 1 for y = 1.
    assert invoke(capsys, "smooth", "psi", "--x", "10", "--y", "0")[:2] == (EXIT_DOMAIN, "")
    assert invoke(capsys, "smooth", "psi", "--x", "10", "--y", "1")[:2] == (EXIT_OK, "1\n")


@given(
    sign=st.sampled_from(["", "+", "-"]),
    whole=st.integers(min_value=0, max_value=10**20),
    frac=st.none() | st.text("0123456789", max_size=6),
    k=st.integers(min_value=-30, max_value=4030),
)
@example(sign="", whole=1, frac=None, k=23)  # a float read gives 99999999999999991611392
@example(sign="", whole=9007199254740993, frac=None, k=0)  # a float read gives ...992
@example(sign="", whole=1, frac=None, k=309)  # a float read overflows
@example(sign="", whole=1, frac=None, k=4000)
@example(sign="", whole=1, frac=None, k=4001)
@example(sign="", whole=10, frac="", k=3999)
@example(sign="", whole=150, frac=None, k=-1)
@example(sign="", whole=1, frac="5", k=0)
@example(sign="-", whole=0, frac="00", k=7)
def test_e_notation_is_read_exactly(sign, whole, frac, k):
    text = f"{sign}{whole}e{k}" if frac is None else f"{sign}{whole}.{frac}e{k}"
    frac = frac or ""
    value = Fraction(int(f"{whole}{frac}")) * Fraction(10) ** (k - len(frac))
    if (sign == "-" and value) or value.denominator != 1:
        with pytest.raises(DomainError):
            parse_natural(text)
    elif value >= 10**4001:
        with pytest.raises(ResourceError):
            parse_natural(text)
    else:
        assert parse_natural(text) == value


def test_e_notation_on_the_command_line(capsys):
    code, out, err = invoke(capsys, "nc", "count", "--limit", "1e23")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "x=100000000000000000000000 exceeds" in err
    assert invoke(capsys, "nc", "count", "--limit", "2.5e1") == invoke(capsys, "nc", "count", "--limit", "25")
    assert invoke(capsys, "nc", "count", "--limit", "1.5e0")[:2] == (EXIT_DOMAIN, "")
    # The notation range is checked before the integer is built, so a huge exponent exits 2 at once.
    for text in ("1e99999999999", "10^99999999999", "1e4001", ".5e4002"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "smooth", "psi", "--x", "10", "--y", text)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "notation range" in err and "Traceback" not in err
    assert invoke(capsys, "smooth", "psi", "--x", "10", "--y", "-1e99999")[:2] == (EXIT_DOMAIN, "")


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == EXIT_OK


def test_closed_stdout_exits_quietly_with_the_pipe_code():
    # Like `nc-forge construct --r 10 --s 100 --all | head -1`: 2^17 member lines, far
    # more than a pipe buffers, so the child is still writing when its reader leaves.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "nc_forge.cli", "construct", "--r", "10", "--s", "100", "--all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert child.stdout.readline() == b"E=6350400 subset=\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == EXIT_PIPE
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert err == b""


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "conjecture", "--z", "1000,2000", "--y-rule", "hild", "--format", "csv")
    second = invoke(capsys, "conjecture", "--z", "1000,2000", "--y-rule", "hild", "--format", "csv")
    assert first == second


_FUZZ_TEXT = st.one_of(
    st.integers(min_value=-(10**15), max_value=10**15).map(str),
    st.integers(min_value=0, max_value=1 << 41).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "10^12", "10^13", "10^-3", "10^5000", "1e40", "-0", ""]),
    st.text(max_size=8),
)


_FUZZ_JSON = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "null", "true", "[]", "{}", '"10"']),
    st.text(max_size=8).map(json.dumps),
)


# Whole certificate files: any JSON value, its objects keyed mostly by certificate fields.
_FUZZ_DOCUMENT = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**20), max_value=10**20) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from([*CERT_FIELDS, "infeasible_reason"]) | st.text(max_size=4), inner, max_size=6
    ),
    max_leaves=12,
)


def _count_code(command, text):
    """The exit code a count command owes its fuzzed argument text.

    Only x and --limit meet the 2^40 ceiling; smooth pi needs x >= 2.
    """
    try:
        n = parse_natural(text)
    except DomainError:
        return EXIT_DOMAIN
    except ResourceError:
        return EXIT_RESOURCE
    if n < (2 if command == "smooth pi --x" else 1):
        return EXIT_DOMAIN
    return EXIT_RESOURCE if n > 1 << 40 and not command.endswith("--y") else EXIT_OK


def _fast_count(text):
    """False for a natural in (10^6, 2^40]: the count commands take seconds to hours there."""
    try:
        n = parse_natural(text)
    except (DomainError, ResourceError):
        return True
    return n <= 10**6 or n > 1 << 40


# Text for the count commands: naturals up to 10^6 run in milliseconds, and
# x or --limit above 2^40 exits 2 at once.
_FUZZ_COUNT_TEXT = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.integers(min_value=(1 << 40) + 1, max_value=10**15).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "1e6", "1e13", "10^6", "10^13", "10^-3", "10^5000", "-0", "2^40", ""]),
    st.text(max_size=8),
).filter(_fast_count)

# One argument fuzzed, the other fixed small: x = 10^4 or y = 5.
_COUNT_ARGV = {
    "nc count --limit": ["nc", "count", "--limit"],
    "nc list --limit": ["nc", "list", "--limit"],
    "smooth psi --x": ["smooth", "psi", "--y", "5", "--x"],
    "smooth psi --y": ["smooth", "psi", "--x", "10^4", "--y"],
    "smooth pi --x": ["smooth", "pi", "--y", "5", "--x"],
    "smooth pi --y": ["smooth", "pi", "--x", "10^4", "--y"],
}


_CERTIFY_X_CODES = {"e^999999": EXIT_OK, "e^1000001": EXIT_RESOURCE, "e^": EXIT_DOMAIN, "e^0": EXIT_OK}


def _fuzz_example(command, text, notation="", field="r", value="0", count_text="1", document=None):
    return example(
        command=command, prefix="", notation=notation, fixed=["--s", "100"], text=text,
        field=field, value=value, count_text=count_text, document=document,
    )


@pytest.fixture(scope="module")
def fuzz_cert(tmp_path_factory):
    """The (10, 100) certificate at 10^30, and a file for its fuzzed copies."""
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100)).to_dict()
    return cert, tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(max_examples=450, deadline=None)
@given(
    command=st.sampled_from(
        ["nc check", "smooth rho", "conjecture", "conjecture --z", "construct", "certify",
         "certify --u", "certify --x", "verify", "verify --document", *_COUNT_ARGV]
    ),
    prefix=st.sampled_from(["", "fixed:", "power:"]),
    notation=st.sampled_from(["", "e^", "10^"]),
    fixed=st.sampled_from([["--s", "100"], ["--r", "3"], ["--r", "10"]]),
    text=_FUZZ_TEXT,
    field=st.sampled_from(["r", "s", "A"]),
    value=_FUZZ_JSON,
    count_text=_FUZZ_COUNT_TEXT,
    document=_FUZZ_DOCUMENT,
)
@_fuzz_example("verify --document", "", document=None)
@_fuzz_example("verify --document", "", document=[1, 2])
@_fuzz_example("verify --document", "", document="abc")
@_fuzz_example("verify --document", "", document=5)
@_fuzz_example("verify --document", "", document={"x": "10^30", "r": [], "s": {}})
@_fuzz_example("certify --u", "0.001")
@_fuzz_example("conjecture --z", "0")
@_fuzz_example("conjecture --z", ",")
@_fuzz_example("verify", "", value="1e400")
@_fuzz_example("verify", "", field="s", value="1e400")
@_fuzz_example("certify --x", "999999", notation="e^")
@_fuzz_example("certify --x", "1000001", notation="e^")
@_fuzz_example("certify --x", "", notation="e^")
@_fuzz_example("certify --x", "0", notation="e^")
@_fuzz_example("nc count --limit", "", count_text="10^6")
@_fuzz_example("nc list --limit", "", count_text="1099511627777")
@_fuzz_example("smooth psi --x", "", count_text="0")
@_fuzz_example("smooth psi --y", "", count_text="10^5000")
@_fuzz_example("smooth pi --x", "", count_text="10^6")
@_fuzz_example("smooth pi --y", "", count_text="1e300")
def test_cli_fuzz_exits_with_a_documented_code(
    fuzz_cert, command, prefix, notation, fixed, text, field, value, count_text, document
):
    if command in _COUNT_ARGV:
        argv = [*_COUNT_ARGV[command], count_text]
    elif command == "nc check":
        argv = ["nc", "check", text]
    elif command == "smooth rho":
        argv = ["smooth", "rho", "--u", text]
    elif command == "conjecture":
        argv = ["conjecture", "--z", "100", "--y-rule", prefix + text]
    elif command == "conjecture --z":
        argv = ["conjecture", "--z", text, "--y-rule", "hild"]
    elif command == "certify --u":
        argv = ["certify", "--x", "10^30", "--schedule", "t1", "--u", text]
    elif command == "certify --x":
        argv = ["certify", "--x", notation + text, "--r", "3", "--s", "10"]
    elif command == "verify":  # field's value replaced by the JSON text value
        cert, path = fuzz_cert
        blank = json.dumps({**cert, field: None})
        path.write_text(blank.replace(f'"{field}": null', f'"{field}": {value}'))
        argv = ["verify", "--cert", str(path)]
    elif command == "verify --document":  # the whole file; with prefix "", objects overlay the certificate
        cert, path = fuzz_cert
        if isinstance(document, dict) and prefix == "":
            document = {**cert, **document}
        path.write_text(json.dumps(document))
        argv = ["verify", "--cert", str(path)]
    else:  # one of --r/--s fuzzed, the other fixed
        fuzzed = "--r" if fixed[0] == "--s" else "--s"
        argv = [command, *fixed, fuzzed, text]
        if command == "certify":
            argv += ["--x", "10^30"]
    argv += ["--limit-memory", "10^7"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_RESOURCE, EXIT_MISMATCH)
    assert "Traceback" not in err.getvalue()
    if command == "verify":
        assert (code == EXIT_OK) == (json.loads(value) == cert[field])
    if command == "verify --document" and not isinstance(document, dict):
        assert (code, out.getvalue()) == (EXIT_DOMAIN, "")
        assert err.getvalue() == "error: cannot parse certificate: not a JSON object\n"
    if command in _COUNT_ARGV:
        assert code == _count_code(command, count_text)
    if command == "smooth rho" and code == EXIT_OK:
        assert not math.isnan(float(out.getvalue()))
    if command == "certify --x" and notation + text in _CERTIFY_X_CODES:
        assert code == _CERTIFY_X_CODES[notation + text]
        if notation + text == "e^0":  # x = 1 lies below the base D = 72: a zero certificate
            assert json.loads(out.getvalue())["count"] == "0"
