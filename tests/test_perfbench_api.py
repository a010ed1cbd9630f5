"""The benchmark's use of the package, run at test size.

``perfbench/`` drives the pipeline through ``ingest``, ``preprocess_corpus``
and the saved artifacts, and checks the outputs with its own numpy code.
Running one of its rounds here on the small fixture corpus makes a change
that breaks that use fail in the test suite. The benchmark reads the
artifacts back with its own reader, so the package's loader is held to
the same labels here. These tests only read ``perfbench/``.
"""

import contextlib
import dataclasses

import pytest

from ctfidf.synth import generate_corpus

from conftest import REPO_ROOT


@pytest.mark.parametrize("workload", ["sms_irlba_svm", "sms_irlba_tree",
                                      "sms_terms_tree", "bulk_terms_svm"])
def test_round_passes_the_benchmark_checks(synth_tsv, tmp_path, monkeypatch,
                                           workload):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import check
    import worker
    from ctfidf.pipeline import config_from_dict, load_artifacts

    # the F1 floors are set for the benchmark's corpora, not this fixture;
    # every other check of check.verify applies as in a benchmark run
    wl = dataclasses.replace(worker.WORKLOADS[workload], f1_floor=0.0)
    out_dir = tmp_path / "out"
    config = config_from_dict(wl.config(str(synth_tsv), str(out_dir)))
    stream = [text for _, text in generate_corpus(30, 20, seed=5)]

    def no_span(name):
        return contextlib.nullcontext()

    result = worker.run_round(config, out_dir, stream, no_span)
    assert result["failed"] == 0
    assert result["stream_classified"] == len(stream)
    problems, _ = check.verify(wl, synth_tsv, out_dir, [result])
    assert problems == []
    benchmark = worker.Artifacts(out_dir, no_span).classify(stream)
    assert load_artifacts(out_dir / "model.json").classify(stream) == benchmark
