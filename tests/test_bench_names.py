"""The library names and call forms that the benchmark under ``bench/`` uses.

``bench/tracing.py`` wraps library functions by name, and
``bench/workloads.py`` calls them in fixed forms; a rename or a dropped
parameter should fail here, not only in a benchmark run.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

from eigendetect import performance, rng, simulate, spiked, tracy_widom

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def test_tracer_wraps_the_workload_calls():
    modules = {"tracy_widom": tracy_widom, "performance": performance,
               "simulate": simulate, "rng": rng, "spiked": spiked}
    originals = {name: simulate.__dict__[name]
                 for name in ("run_trials", "scenario_from_snr", "scenario_from_component_snrs")}
    tracer = Tracer(modules)
    with tracer.installed():
        design = spiked.DetectorDesign(K=6, N=60, P=2)
        assert spiked.critical_snr(design) > 0.0
        h0 = performance.centering_constants(design, "H0")
        h1 = performance.centering_constants(design, "H1", t1=3.0)
        scenario = simulate.scenario_from_component_snrs(6, (0.3, 0.2), modulation="gaussian",
                                                         seed=7)
        batch = simulate.run_trials(design, scenario, trials=100, seed=11, redraw_channel=True)
        assert 0.0 <= simulate.ks_distance(batch, h1.cdf) <= 1.0
        assert 0.0 < h0.cdf(np.array([3.0]))[0] < 1.0
        single = simulate.scenario_from_snr(6, 0.5, seed=1)
        assert single.P == 1
    assert tracer.stat("simulate.run_trials").calls == 1
    assert tracer.stat("simulate.run_trials").points == 100
    # the 100 trials fit in one chunk, and a chunk is one stacked eigensolve
    assert tracer.stat("simulate.eig").calls == 1
    # scenario_from_snr reaches its wrapped multi-source form
    assert tracer.stat("spiked.scenario").calls == 3
    assert all(simulate.__dict__[name] is fn for name, fn in originals.items())


def test_law_caches_the_traced_run_reads():
    # bench/run.py reads these through getattr(..., None) and skips a missing one, so a
    # rename would drop the law-cache metrics without an error
    for name in ("_h0_law", "_h1_law"):
        law = getattr(performance, name)
        assert callable(law.cache_info) and callable(law.cache_clear), name
        law.cache_clear()
        assert law.cache_info().currsize == 0
    # the same run times tracy_widom.build_tw2_table() with no arguments
    params = inspect.signature(tracy_widom.build_tw2_table).parameters.values()
    assert all(p.default is not inspect.Parameter.empty for p in params)
