"""eigendetect benchmark: one workload per process, closed loop, one client.

Run from the repository root, against ``src/`` (nothing is installed):

    python3 bench/run.py --workload design_cold --seed 1 --seconds 20 --trace 0

Workloads: design_cold, roc_dense, mc_gaussian, mc_mixed (bench/workloads.py).

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures half the time untraced, then replays the same
requests with every layer wrapped (bench/tracing.py) and reports the
per-layer metrics plus the tracing overhead between the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, sample counts, tail percentiles, every error message) is
written to ``bench/out/``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
COLD_STARTS = 7
IMPORT_PROBES = 3
TW_BUILDS = 5
CLI_PROBE = ["threshold", "--k", "50", "--n", "1000", "--pfa", "0.01"]
REF_SHARE = 0.03               # share of loop time spent on the reference kernel
REF_NOMINAL_PER_S = 1700.0     # reference calls per second at nominal machine speed

clock = time.perf_counter


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "eigendetect" / "__init__.py").is_file():
        print(f"error: no eigendetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("error: --seconds must lie in (0, 120]", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    book = Book()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}
    if args.trace:
        metrics = traced_run(workload, args.seconds, book, record)
    else:
        metrics = untraced_run(workload, args.seconds, book, record)

    correct = book.failed == 0
    record.update(correct=correct, attempted=book.attempted, failed=book.failed,
                  error_rate=book.failed / max(book.attempted, 1),
                  errors=book.errors, metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:12s} {'error_rate':40s} {record['error_rate']:.6g} "
          f"({book.failed} of {book.attempted})")
    for msg in book.errors[:20]:
        print(f"error: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": book.attempted,
                      "failed": book.failed, "metrics": metrics}))
    return 0 if correct else 1


class Book:
    """Operations attempted and failed, with every failure's message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, passed: bool, message: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.errors.append(message)


def serve(workload, requests, book, tracer, ref, until=None):
    """Closed loop: time each request, check it untimed.

    ``requests`` is either a list (replayed in order) or None, in which
    case new requests are drawn until at least ``workload.cycle`` have
    run and starting another would pass ``until`` on the clock.  Returns
    [(request, output)] and the latencies of the requests that succeeded.
    Between requests ``ref`` runs its kernel for REF_SHARE of the loop time.
    """
    from eigendetect.errors import EigendetectError

    done, latencies = [], []
    i = 0
    last = 0.0
    loop_start = clock()
    while True:
        if requests is None:
            if i >= workload.cycle and clock() + last > until:
                break
            req = workload.next_request()
        elif i < len(requests):
            req = requests[i]
        else:
            break
        tracer.request = i
        start = clock()
        try:
            out = workload.call(req)
        except EigendetectError as exc:
            last = clock() - start
            book.ok(False, f"{type(exc).__name__}: {exc} (request {req!r})")
        else:
            last = clock() - start
            with tracer.paused():
                message = workload.check(req, out)
            book.ok(message is None, message or "")
            if message is None:
                latencies.append(last)
                done.append((req, out))
        ref.keep_up(REF_SHARE * (clock() - loop_start))
        i += 1
    return done, latencies


class Reference:
    """A fixed interpreter-plus-numpy kernel that tracks the machine's speed.

    On a shared machine every workload's speed drifts with its
    neighbours' load, by +-20% within a minute on a 2-core VM.  The
    kernel runs between requests, so its rate over a run measures the
    speed the run saw; ``speed()`` is that rate over the nominal rate.
    The kernel calls nothing from eigendetect, so no change to the
    library can move it.
    """

    def __init__(self):
        self._x = np.linspace(0.1, 1.0, 20000)
        self._buf = np.empty_like(self._x)
        self.calls = 0
        self.seconds = 0.0

    def run_once(self) -> None:
        start = clock()
        acc = 0
        for i in range(5000):
            acc += i * i
        np.cos(self._x, out=self._buf)
        np.log(self._x, out=self._buf)
        np.sqrt(self._x, out=self._buf)
        self.seconds += clock() - start
        self.calls += 1

    def keep_up(self, budget: float) -> None:
        while self.seconds < budget:
            self.run_once()

    def speed(self) -> float:
        return self.calls / self.seconds / REF_NOMINAL_PER_S


class _NoTracer:
    request = -1

    def paused(self):
        return nullcontext()


def untraced_run(workload, seconds, book, record) -> dict:
    """End-to-end metrics; request times are scaled to the nominal machine speed.

    A time t measured while the reference kernel ran at ``speed`` times
    its nominal rate is reported as t * speed; the raw values are kept
    in the record.  Cold starts are reported raw: their variation comes
    from process start-up and page faults, which the kernel does not track.
    """
    ref = Reference()
    setup = cold_starts(book)
    workload.warm_up(clock)
    done, lat = serve(workload, None, book, _NoTracer(), ref, until=clock() + seconds)
    for passed, message in workload.final_checks(done):
        book.ok(passed, message)
    items = sum(workload.items(req) for req, _ in done)
    busy = sum(lat)
    raw = {
        "work_items_per_s": items / busy if busy else 0.0,
        "request_p50_ms": percentile(lat, 50) * 1e3,
        "request_p90_ms": percentile(lat, 90) * 1e3,
    }
    record["samples"] = {"requests": len(lat), "items": items, "cold_starts": setup,
                         **tails(lat), "raw": raw, "speed": ref.speed()}
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "work_items_per_s": metric(raw["work_items_per_s"] / ref.speed(), "1/s"),
        "request_p50_ms": metric(raw["request_p50_ms"] * ref.speed(), "ms"),
        "request_p90_ms": metric(raw["request_p90_ms"] * ref.speed(), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_fraction": metric(1.0 - book.failed / max(book.attempted, 1), "ratio"),
    }


def traced_run(workload, seconds, book, record) -> dict:
    from eigendetect import performance, rng, simulate, spiked, tracy_widom
    from tracing import Tracer

    workload.warm_up(clock)
    import_s, scipy_s = import_times()
    builds = []
    for _ in range(TW_BUILDS):
        start = clock()
        tracy_widom.build_tw2_table()
        builds.append(clock() - start)

    # the lru-cached law constructors; a refactor that drops them leaves
    # the law metrics at zero instead of failing the traced run
    laws = [f for f in (getattr(performance, n, None) for n in ("_h0_law", "_h1_law"))
            if hasattr(f, "cache_info")]
    for law in laws:
        law.cache_clear()
    ref_u, ref_t = Reference(), Reference()
    done, lat_u = serve(workload, None, book, _NoTracer(), ref_u, until=clock() + seconds / 2)
    requests = [req for req, _ in done]

    tracer = Tracer({"tracy_widom": tracy_widom, "performance": performance,
                     "simulate": simulate, "rng": rng, "spiked": spiked})
    for law in laws:
        law.cache_clear()
    before = [law.cache_info() for law in laws]
    with tracer.installed():
        _, lat_t = serve(workload, requests, book, tracer, ref_t)
    after = [law.cache_info() for law in laws]
    for passed, message in workload.final_checks(done):
        book.ok(passed, message)
    residuals = [abs(performance.pfa(g, d) - p) for p, d, g in tracer.thresholds]

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{workload.seed}.npz")
    record["samples"] = {"requests_untraced": len(lat_u), "requests_traced": len(lat_t),
                         "spans": tracer.spans, "tw_builds": builds}

    n = max(len(requests), 1)
    st = tracer.stat
    hits = sum(a.hits - b.hits for a, b in zip(after, before))
    misses = sum(a.misses - b.misses for a, b in zip(after, before))
    tw_points = st("tracy_widom.cdf").points + st("tracy_widom.pdf").points
    tw_clamped = st("tracy_widom.cdf").clamped + st("tracy_widom.pdf").clamped
    words = st("rng.uniform_open").points
    trials = st("simulate.run_trials").points
    eig_calls = st("simulate.eig").calls
    thresholds = st("performance.threshold").calls
    per_req = lambda v: v / n  # noqa: E731
    return {
        "tracy_widom.build_s": metric(statistics.median(builds), "s"),
        "tracy_widom.cdf_calls": metric(per_req(st("tracy_widom.cdf").calls), "calls/req"),
        "tracy_widom.cdf_points": metric(per_req(st("tracy_widom.cdf").points), "points/req"),
        "tracy_widom.cdf_s": metric(per_req(st("tracy_widom.cdf").total), "s/req"),
        "tracy_widom.pdf_calls": metric(per_req(st("tracy_widom.pdf").calls), "calls/req"),
        "tracy_widom.pdf_points": metric(per_req(st("tracy_widom.pdf").points), "points/req"),
        "tracy_widom.pdf_s": metric(per_req(st("tracy_widom.pdf").total), "s/req"),
        "tracy_widom.clamped_frac": metric(tw_clamped / tw_points if tw_points else 0.0,
                                           "ratio"),
        "performance.law_builds": metric(per_req(misses), "builds/req"),
        "performance.law_cache_hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "performance.ratio_cdf_calls": metric(
            per_req(st("performance.ratio_cdf").calls), "calls/req"),
        "performance.ratio_cdf_points": metric(
            per_req(st("performance.ratio_cdf").points), "points/req"),
        "performance.ratio_cdf_s": metric(per_req(st("performance.ratio_cdf").total), "s/req"),
        "performance.ratio_pdf_calls": metric(
            per_req(st("performance.ratio_pdf").calls), "calls/req"),
        "performance.threshold_calls": metric(per_req(thresholds), "calls/req"),
        "performance.threshold_s": metric(per_req(st("performance.threshold").total), "s/req"),
        "performance.cdf_evals_per_threshold": metric(
            tracer.threshold_cdf_evals / thresholds if thresholds else 0.0, "evals"),
        "performance.threshold_residual_max": metric(max(residuals, default=0.0), "prob"),
        "performance.pmd_calls": metric(per_req(st("performance.pmd").calls), "calls/req"),
        "performance.pmd_s": metric(per_req(st("performance.pmd").total), "s/req"),
        "performance.roc_s": metric(per_req(st("performance.roc").total), "s/req"),
        "simulate.trials": metric(per_req(trials), "trials/req"),
        "simulate.run_trials_s": metric(per_req(st("simulate.run_trials").total), "s/req"),
        "simulate.gen_noise_s": metric(per_req(st("simulate.gen_noise").total), "s/req"),
        "simulate.gen_signal_s": metric(per_req(st("simulate.gen_signal").total), "s/req"),
        "simulate.eig_calls": metric(per_req(eig_calls), "calls/req"),
        "simulate.eig_s": metric(per_req(st("simulate.eig").total), "s/req"),
        "simulate.retries": metric(per_req(eig_calls - trials), "calls/req"),
        "simulate.self_s": metric(per_req(st("simulate.run_trials").self_time), "s/req"),
        "simulate.ks_s": metric(per_req(st("simulate.ks_distance").total), "s/req"),
        "rng.words": metric(per_req(words), "words/req"),
        "rng.s": metric(per_req(tracer.layer_outer["rng"]), "s/req"),
        "rng.ns_per_word": metric(tracer.layer_outer["rng"] * 1e9 / words if words else 0.0,
                                  "ns"),
        "spiked.s": metric(per_req(tracer.layer_outer["spiked"]), "s/req"),
        "cli.import_s": metric(import_s, "s"),
        "cli.import_scipy_s": metric(scipy_s, "s"),
        "trace.overhead_frac": metric(
            sum(lat_t) * ref_t.speed() / (sum(lat_u) * ref_u.speed()) - 1.0 if lat_u else 0.0,
            "ratio"),
    }


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def tails(latencies) -> dict:
    """Median and the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    out = {"p50_ms": percentile(latencies, 50) * 1e3}
    for q in (99.9, 99, 90):
        if len(latencies) * (100 - q) / 100 >= 10:
            out[f"p{q:g}_ms"] = percentile(latencies, q) * 1e3
            break
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def cold_starts(book) -> list:
    """Wall time of fresh ``python -m eigendetect.cli threshold`` processes.

    Each pays the interpreter start, ``import eigendetect`` and the
    Tracy-Widom table build (plus one law and one inversion, ~1% of it).
    """
    from eigendetect import performance, spiked

    expected = "gamma %.10g" % performance.threshold_from_pfa(
        0.01, spiked.DetectorDesign(K=50, N=1000))
    times = []
    for _ in range(COLD_STARTS):
        start = clock()
        proc = subprocess.run([sys.executable, "-m", "eigendetect.cli", *CLI_PROBE],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=60)
        times.append(clock() - start)
        book.ok(proc.returncode == 0 and proc.stdout.strip() == expected,
                f"cold CLI start: exit {proc.returncode}, stdout {proc.stdout.strip()!r}, "
                f"expected {expected!r}; stderr {proc.stderr.strip()[-300:]!r}")
    return times


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times() -> tuple[float, float]:
    """Median cumulative import time of eigendetect.cli, and of its scipy part.

    Parsed from ``python -X importtime``: the scipy part sums the
    outermost ``scipy`` entries, those with no scipy ancestor.
    """
    totals, scipy_parts = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eigendetect.cli"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6)
                   for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        total = scipy = 0.0
        ancestors: dict[int, str] = {}
        # importtime prints children before parents; reversed, parents come first
        for depth, name, cumulative in reversed(entries):
            ancestors[depth] = name
            if depth == 1:
                total += cumulative
            if name.split(".")[0] == "scipy" and not any(
                    ancestors.get(d, "").split(".")[0] == "scipy" for d in range(1, depth)):
                scipy += cumulative
        totals.append(total)
        scipy_parts.append(scipy)
    return statistics.median(totals), statistics.median(scipy_parts)


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seeds": {"seed": seed, "warm_up_stream": [seed, 0], "measured_stream": [seed, 1]},
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
