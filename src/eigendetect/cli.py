"""Command-line front end.

Thin adapters over the library: every number printed or written comes
from the corresponding library call, with no CLI-side math.  Outputs are
deterministic given the flags and seed.

Exit codes: 0 ok, 2 bad arguments, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import DomainError, NumericError
from .performance import (
    build_lut,
    centering_constants,
    pfa,
    pmd,
    roc,
    threshold_from_pfa,
    write_lut_csv,
    write_roc_csv,
)
from .simulate import (
    SAMPLERS,
    dump_batch_csv,
    dump_cdf_comparison_csv,
    ks_distance,
    run_trials,
    scenario_from_snr,
)
from .spiked import (
    DetectorDesign,
    Modulation,
    critical_snr,
    min_samples,
    scenario_from_json,
    spike_from_snr,
    spike_spectrum,
)
from .tracy_widom import default_table, dump_table_csv

__all__ = ["main"]


def parse_snr(text: str) -> float:
    """SNR flag value: linear (``0.01``) or dB-suffixed (``-20dB``)."""
    s = text.strip()
    try:
        value = 10.0 ** (float(s[:-2]) / 10.0) if s.lower().endswith("db") else float(s)
    except (ValueError, OverflowError):
        raise DomainError(f"bad snr {text!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError("snr must be positive and finite (linear) or given in dB")
    return value


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax ``lo:hi:count[log|lin]``, e.g. ``0.001:0.5:20log``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"bad grid {text!r}; expected lo:hi:count[log|lin]")
    tail = parts[2]
    spacing = "lin"
    if tail.endswith(("log", "lin")):
        spacing, tail = tail[-3:], tail[:-3]
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(tail)
    except ValueError:
        raise DomainError(f"bad grid {text!r}; expected lo:hi:count[log|lin]") from None
    if count < 1 or lo >= hi:
        raise DomainError(f"bad grid {text!r}")
    if spacing == "log":
        if lo <= 0.0:
            raise DomainError("log grid requires positive endpoints")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_list(text: str, kind) -> list:
    """Comma list of ``kind`` values, e.g. ``20,50,100``."""
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError:
        raise DomainError(f"bad list {text!r}; expected comma-separated {kind.__name__}s") from None


def _design(args) -> DetectorDesign:
    if args.k is None or args.n is None:
        raise DomainError("--k and --n are required")
    return DetectorDesign(K=args.k, N=args.n)


def _h1_inputs(args, allow_none=False):
    """Resolve the signal description: exactly one of --snr, --t1, --scenario."""
    given = [x is not None for x in (args.snr, args.t1, args.scenario)]
    if sum(given) == 0:
        if allow_none:
            return None, _design(args), None
        raise DomainError("exactly one of --snr, --t1, --scenario is required")
    if sum(given) > 1:
        raise DomainError("supply only one of --snr, --t1, --scenario")
    if args.scenario is not None:
        scenario, design = scenario_from_json(args.scenario)
        if args.k is not None and args.k != design.K:
            raise DomainError("--k contradicts the scenario file")
        if args.n is not None and args.n != design.N:
            raise DomainError("--n contradicts the scenario file")
        t1 = spike_spectrum(scenario, design).t1
        return scenario, design, t1
    design = _design(args)
    if args.t1 is not None:
        return None, design, float(args.t1)
    rho = parse_snr(args.snr)
    return None, design, spike_from_snr(design.K, rho)


def cmd_threshold(args) -> int:
    _, design, t1 = _h1_inputs(args, allow_none=True)
    gamma = threshold_from_pfa(args.pfa, design)
    lines = ["gamma %.10g" % gamma]
    if t1 is not None:
        lines.append("pmd %.10g" % pmd(gamma, design, t1))
    print("\n".join(lines))
    return 0


def cmd_pfa(args) -> int:
    design = _design(args)
    print("pfa %.10g" % pfa(args.gamma, design))
    return 0


def cmd_pmd(args) -> int:
    _, design, t1 = _h1_inputs(args)
    print("pmd %.10g" % pmd(args.gamma, design, t1))
    return 0


def cmd_identify(args) -> int:
    if args.k is None:
        raise DomainError("--k is required")
    if args.n is not None:
        rho = critical_snr(args.k, args.n)
        design = DetectorDesign(K=args.k, N=args.n) if 1 < args.k < args.n else None
        print("critical_snr %.10g" % rho)
        print("critical_snr_db %.6f" % (10.0 * math.log10(rho)))
        if design is not None:
            print("critical_t1 %.10g" % design.critical_t1)
        return 0
    if args.snr is not None:
        rho = parse_snr(args.snr)
        print("min_samples %d" % min_samples(args.k, rho))
        return 0
    raise DomainError("identify needs --n (critical SNR) or --snr (minimum N)")


def cmd_roc(args) -> int:
    _, design, t1 = _h1_inputs(args)
    points = roc(design, t1, parse_grid(args.pfa_grid))
    write_roc_csv(args.out or sys.stdout, points)
    if args.out:
        print("wrote %s (%d rows)" % (args.out, len(points)))
    return 0


def cmd_lut(args) -> int:
    snr = parse_snr(args.snr) if args.snr is not None else None
    rows = build_lut(_parse_list(args.k_list, int), _parse_list(args.n_list, int),
                     _parse_list(args.pfa_list, float), snr=snr)
    failed = [r for r in rows if r.error is not None]
    write_lut_csv(args.out or sys.stdout, rows)
    if args.out:
        print("wrote %s (%d rows)" % (args.out, len(rows) - len(failed)))
    for r in failed:
        print(f"error: K={r.K} N={r.N} pfa={r.pfa:.10g}: {r.error}", file=sys.stderr)
    if not failed:
        return 0
    return 2 if any(isinstance(r.error, DomainError) for r in failed) else 4


def cmd_simulate(args) -> int:
    scenario, design, t1 = _h1_inputs(args, allow_none=True)
    if args.modulation is not None and (scenario is not None or t1 is None):
        raise DomainError("--modulation applies only with --snr or --t1 "
                          "(a --scenario file names its own modulation)")
    law = centering_constants(design, "H0" if t1 is None else "H1", t1=t1)  # before any trial
    if scenario is None and t1 is not None:
        # --snr/--t1 shortcut: draw a single-source channel from the seed
        rho = (t1 - 1.0) / design.K
        scenario = scenario_from_snr(
            design.K, rho, modulation=args.modulation or "gaussian", seed=args.seed
        )
    batch = run_trials(design, scenario, trials=args.trials, seed=args.seed,
                       sampler=args.sampler)
    ks = ks_distance(batch, law.cdf)
    print("ks %.6f" % ks)
    if args.out:
        dump_cdf_comparison_csv(args.out, batch, law.cdf)
        print("wrote %s" % args.out)
    if args.dump:
        dump_batch_csv(args.dump, batch)
        print("wrote %s" % args.dump)
    return 0


def cmd_tw_table(args) -> int:
    dump_table_csv(args.out)
    print("wrote %s (%d rows)" % (args.out, default_table().grid.size))
    return 0


def _add_geometry(p):
    p.add_argument("--k", type=int, help="number of receivers K")
    p.add_argument("--n", type=int, help="number of samples N")


def _add_signal(p):
    p.add_argument("--snr", type=str, help="SNR, linear or dB-suffixed (e.g. -20dB)")
    p.add_argument("--t1", type=float, help="top spike eigenvalue")
    p.add_argument("--scenario", type=str, help="scenario JSON file")


class _Parser(argparse.ArgumentParser):
    """Flag errors raise DomainError, so they exit 2 with ``error:`` like any bad value."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="eigendetect",
        description="Eigenvalue-ratio detector design and Monte Carlo validation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="decision threshold for a target false-alarm rate")
    _add_geometry(p)
    _add_signal(p)
    p.add_argument("--pfa", type=float, required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("pfa", help="false-alarm probability at a threshold")
    _add_geometry(p)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_pfa)

    p = sub.add_parser("pmd", help="missed-detection probability at a threshold")
    _add_geometry(p)
    _add_signal(p)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_pmd)

    p = sub.add_parser("identify", help="identifiability limits (critical SNR / minimum N)")
    _add_geometry(p)
    p.add_argument("--snr", type=str)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("roc", help="analytical complementary ROC over a P_fa grid")
    _add_geometry(p)
    _add_signal(p)
    p.add_argument("--pfa-grid", type=str, default="0.001:0.5:20log")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("lut", help="threshold lookup table over (K, N, pfa) grids")
    p.add_argument("--k", dest="k_list", type=str, required=True, help="comma list")
    p.add_argument("--n", dest="n_list", type=str, required=True, help="comma list")
    p.add_argument("--pfa", dest="pfa_list", type=str, required=True, help="comma list")
    p.add_argument("--snr", type=str)
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_lut)

    p = sub.add_parser("simulate", help="Monte Carlo run compared against the analytical law")
    _add_geometry(p)
    _add_signal(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modulation", choices=[m.value for m in Modulation],
                   help="source modulation for --snr/--t1 (default gaussian)")
    p.add_argument("--sampler", choices=SAMPLERS, default="wishart",
                   help="trial sampler (default: wishart)")
    p.add_argument("--out", type=str, help="empirical-vs-analytical CDF CSV")
    p.add_argument("--dump", type=str, help="per-trial batch CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tw-table", help="write the packaged Tracy-Widom table as CSV")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_tw_table)

    return ap


def _normalize_argv(argv):
    """Join ``--snr -20dB`` into ``--snr=-20dB`` so argparse keeps the value."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--snr":
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_normalize_argv(argv))
        return args.func(args)
    except (DomainError, MemoryError) as exc:  # MemoryError: a count too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
