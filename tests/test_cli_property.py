"""Property test over command-line argv: every input ends in a typed exit.

``main()`` runs in-process on argv drawn per subcommand from valid values
and from nan, inf, huge and garbage tokens.  Every run must return 0, 2, 3
or 4 (flags argparse rejects exit 2), let no exception or SystemExit escape, and
print no non-finite number on stdout.  Sizes stay small so the whole test
runs in well under a minute: K <= 60, N <= 400 (huge N only where the work
does not grow with N), grids of at most 6 points, at most 3 values per LUT
list and at most 200 Monte Carlo trials at K <= 10, N <= 60.
"""

import json
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigendetect.cli import main
from eigendetect.spiked import Modulation

HUGE_INT = "1" + "0" * 400
GARBAGE = [
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e200", "1e-300", "-1", "0",
    "", " ", "abc", "3xyz", "2,abc", ",", "0x10", "1_0",
    "-20dB", "infdB", "nandB", "2000dB", "-4000dB", "dB",
]
ODD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(GARBAGE + [HUGE_INT, "-" + HUGE_INT]),
)
# no large valid integer where the work grows with it
ODD_SMALL = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.sampled_from(GARBAGE))


def mostly(valid, odd=ODD):
    """A valid value nine times in ten, else a nan, inf, huge or garbage token."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 0 else valid)


def ints(lo, hi, odd=ODD):
    return mostly(st.integers(lo, hi).map(str), odd)


def floats(lo, hi):
    return mostly(st.floats(lo, hi).map(repr))


def listed(values):
    return mostly(st.lists(values, min_size=1, max_size=3).map(",".join))


def flag(name, values):
    """``[name, value]`` 19 times in 20, else the flag is left out."""
    return st.integers(0, 19).flatmap(lambda i: st.just([]) if i == 0 else values.map(lambda v: [name, v]))


SNR = mostly(st.one_of(st.floats(-20, 20).map(lambda db: f"{db:.3g}dB"), st.floats(0.01, 10).map(repr)))
PROB = mostly(st.floats(1e-6, 0.5).map(repr))
GAMMA = floats(1.0, 10.0)
GRID = st.one_of(
    st.builds(
        lambda ends, count, spacing: f"{min(ends)!r}:{max(ends)!r}:{count}{spacing}",
        st.tuples(st.floats(1e-4, 0.9), st.floats(1e-4, 0.9)),
        ints(1, 6, ODD_SMALL),
        st.sampled_from(["", "log", "lin"]),
    ),
    st.builds(
        lambda lo, hi, count, spacing: f"{lo}:{hi}:{count}{spacing}",
        PROB, PROB, ints(-1, 6, ODD_SMALL), st.sampled_from(["", "log", "xyz"]),
    ),
)

SCENARIOS = {
    "single.json": {"K": 8, "N": 50, "snr": 0.5, "modulation": "qpsk"},
    "explicit.json": {"K": 3, "N": 40, "Sigma": [2.0], "H": [[[1, 0]], [[0, 1]], [[1, 1]]]},
    "subcritical.json": {"K": 8, "N": 50, "snr": 1e-6},
    "nan.json": {"K": 8, "N": 50, "snr": math.nan},
    "inf.json": {"K": 8, "N": 50, "snr": math.inf},
    "bad-h.json": {"K": 2, "N": 50, "Sigma": [1.0], "H": [[1.0], [2.0]]},
    "bad-k.json": {"K": "x", "N": 50, "snr": 0.1},
}


def commands(tmp):
    """Per subcommand, a strategy for its argv."""
    scenario = st.sampled_from([str(tmp / n) for n in SCENARIOS] + [str(tmp / "none.json")])
    one_signal = [
        SNR.map(lambda v: ["--snr", v]),
        floats(1.0, 20.0).map(lambda v: ["--t1", v]),
        scenario.map(lambda v: ["--scenario", v]),
    ]
    # mostly exactly one of the mutually exclusive signal flags, else none or two
    signal = st.integers(0, 9).flatmap(
        lambda i: st.just([]) if i == 0
        else st.tuples(*one_signal[:2]).map(lambda two: two[0] + two[1]) if i == 1
        else st.one_of(*one_signal)
    )
    out = flag("--out", mostly(st.just(str(tmp / "out.csv")), st.just(str(tmp / "no-dir" / "out.csv"))))
    k, n = flag("--k", ints(2, 60)), flag("--n", ints(61, 400))
    argv = {
        "threshold": [k, n, flag("--pfa", PROB), signal],
        "pfa": [k, n, flag("--gamma", GAMMA)],
        "pmd": [k, n, flag("--gamma", GAMMA), signal],
        "identify": [k, n, flag("--snr", SNR)],
        "roc": [k, n, signal, flag("--pfa-grid", GRID), out],
        "lut": [
            flag("--k", listed(ints(2, 60))),
            flag("--n", listed(ints(3, 400))),
            flag("--pfa", listed(PROB)),
            flag("--snr", SNR),
            out,
        ],
        "simulate": [
            flag("--k", ints(2, 10, ODD_SMALL)),
            flag("--n", ints(11, 60, ODD_SMALL)),
            signal,
            flag("--trials", ints(90, 200, ODD_SMALL)),
            flag("--seed", mostly(st.integers(-2 ** 70, 2 ** 70).map(str))),
            flag("--modulation", mostly(st.sampled_from([m.value for m in Modulation]),
                                        st.sampled_from(["bpsk", "", "GAUSSIAN"]))),
            out,
            flag("--dump", mostly(st.just(str(tmp / "dump.csv")), st.just(str(tmp / "no-dir" / "d.csv")))),
        ],
        "tw-table": [out],
    }
    return {
        name: st.tuples(*parts).map(lambda parts, name=name: [name] + sum(parts, []))
        for name, parts in argv.items()
    }


def non_finite_numbers(text):
    bad = []
    for tok in re.split(r"[\s,]+", text):
        try:
            value = float(tok)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(tok)
    return bad


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_any_argv_exits_typed_without_non_finite_output(tmp_path, capsys, data):
    for name, doc in SCENARIOS.items():
        path = tmp_path / name
        if not path.exists():
            path.write_text(json.dumps(doc))
    argv = data.draw(st.one_of(*commands(tmp_path).values()))
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc in (0, 2, 3, 4), argv
    assert not non_finite_numbers(out), (argv, out)
