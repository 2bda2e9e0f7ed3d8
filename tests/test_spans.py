"""The benchmark tracer's targets still name patchable icsim callables.

``benchmarks/spans.py`` patches each target of ``PHASES`` and ``LAYERS``
(``Tracer._patch``): a ``module:function`` target must be an attribute of
``icsim.<module>``, and a ``module:Class.method`` target must sit in the
class's own ``__dict__``.  A renamed, deleted or inherited target would
crash every benchmark job, so this reads the table and checks each target
without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _span_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [target for table in (spans.PHASES, spans.LAYERS)
            for targets in table.values() for target in targets]


def test_span_targets_resolve():
    targets = _span_targets()
    assert targets
    unresolved = []
    for target in targets:
        mod_name, _, path = target.partition(":")
        module = importlib.import_module(f"icsim.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            ok = cls is not None and attr in vars(cls)
        else:
            ok = callable(getattr(module, path, None))
        if not ok:
            unresolved.append(target)
    assert not unresolved, unresolved
