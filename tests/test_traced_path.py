"""The traced benchmark path: ``perfbench/spans.py`` still finds every
function it wraps, and a traced CLI run folds into per-layer figures.

``spans.py`` is loaded from its file and only read; the benchmark itself is
not run here.
"""

import importlib
import importlib.util
import pathlib
import sys

from qhist import cli

from helpers import gallery

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    for name, (home, attr) in spans.SPANS.items():
        assert callable(getattr(importlib.import_module(home), attr, None)), name


def test_traced_cli_run_yields_layer_metrics(monkeypatch, capsys):
    spans = load_spans(monkeypatch)
    original = cli.main
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        codes = [
            cli.main(["analyze", str(gallery("stable_facts"))]),
            cli.main(["classify", str(gallery("stable_facts")), "--json"]),
            cli.main(["conditional", str(gallery("stable_facts")), "--family", "combined",
                      "--event", "t2:+z∧+x", "--given", "t1:+x∧+x"]),
        ]
    finally:
        spans.uninstall(restore)
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert cli.main is original
    metrics = spans.layer_metrics(tracer.take())
    assert set(metrics) <= set(spans.UNITS)
    assert metrics["histories.consistency_calls"] > 0
    assert metrics["stablefacts.consistency_per_query"] > 0
