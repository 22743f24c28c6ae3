"""The CLI's error contract over generated requests.

Every parseable request ends with exit 0, 1 or 2 and no exception out of
``cli.main``; exit 2 prints exactly one ``error: `` line and nothing on
stdout; a JSON answer with exit 0 or 1 carries the five payload keys.
Requests run in-process, over a fixed example set, with the oracle paths
skipped so that each costs milliseconds.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpow import amatrix, cli, fdecomp, qcoeff

PAYLOAD_KEYS = ["checks", "command", "config", "elapsed_ms", "results"]

levels = st.integers(-2, 16)
points = st.one_of(
    st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
    st.sampled_from([0.0, 1e-300, 1e300, math.inf, math.nan]),
    st.floats(0.0, 50.0),
)
orders = st.sampled_from([-1, 4, 7, 8, 16, 64, 96])
precs = st.sampled_from([0, 8, 23, 24, 53, 128, 256])


@st.composite
def requests(draw):
    """One argv; positionals follow ``--`` so that a negative value parses as one."""
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    n = str(draw(levels))
    kind = draw(st.sampled_from(["eval", "eval --conv", "beta", "qcoeff", "amatrix", "verify"]))
    if kind.startswith("eval"):
        settings_ = ["--skip-oracles", "-N", str(draw(orders)), "--prec", str(draw(precs))]
        return [*kind.split(), *settings_, *fmt, "--", n, repr(draw(points))]
    if kind == "beta":
        return ["beta", "-N", str(draw(orders)), "--prec", str(draw(precs)), *fmt, "--", n]
    if kind == "qcoeff":
        return ["qcoeff", *fmt, "--", n, str(draw(levels))]
    if kind == "amatrix":
        return ["amatrix", "--check", "--det", *fmt, "--", n]
    suite = draw(st.sampled_from(["table1", "specials", "stirling", "dualpath", "beta"]))
    flags = draw(st.sampled_from([[], [f"--nmax={n}"], [f"--smax={n}"]]))
    return ["verify", suite, *flags, *fmt]


@pytest.fixture(scope="module", autouse=True)
def cold_tables_after():
    """Empty every table cache once the sweep is done, so that the cache
    miss counts other tests read do not depend on the order tests run in."""
    yield
    for module in (amatrix, fdecomp, qcoeff):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argv=requests())
def test_every_request_exits_0_1_or_2_and_a_usage_error_prints_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refused it: the strategy must build parseable argv only
            raise AssertionError(f"not parseable: {argv}") from exc
    assert rc in (0, 1, 2), argv
    if rc == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    elif "json" in argv:
        assert sorted(json.loads(out.getvalue())) == PAYLOAD_KEYS, argv
