"""The benchmark's reference gate as a Tier-1 test.

``bench/run.py`` runs each workload's canonical template unjittered,
verifies the operation and compares its frames with the committed
``bench/reference/<workload>.csv``.  Some reference columns are pure
round-off (the centered means of the particle and 2D runs), so a change
of a pair pass's last bits can fail that comparison; this test fails
then too, under pytest rather than only in the benchmark.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("particles-pairpass", "chars-stepping", "hydro2d-gradient", "dense-frames")


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import verify
    import workloads

    return verify, workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_canonical_frames_match_the_benchmark_reference(bench_modules, name):
    from flocklab import config, runner

    verify, workloads = bench_modules
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    workload = workloads.WORKLOADS[name]
    tpl = workload.template(workload.canonical)
    cfg = config.parse_config(workloads.config_text(tpl, None))
    result = runner.run(cfg)
    csv_text = result.csv()
    assert verify.verify_op(tpl, cfg, result, csv_text, result.summary.to_json()) == []
    problems, _ = verify.compare_reference(name, csv_text)
    assert problems == []
