"""The names the benchmark's traced mode (perfbench/spans.py) wraps must exist.

perfbench/spans.py patches these attributes at run time; a rename here would
otherwise break only `perfbench/run.py --trace 1`.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("perfbench/spans.py is not in this checkout")
    # executed from its text, so that nothing is written under perfbench/
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_spanned_names_resolve(spans):
    for mod_name, attr in spans.SPANNED:
        mod = importlib.import_module(f"schurkernels.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr, None)), (mod_name, attr)


def test_qrat_dunders_are_own_attributes(spans):
    from schurkernels.scalars import QRat
    for dunders in spans.QRAT_OPS.values():
        for d in dunders:
            assert d in vars(QRat), d


def test_moment_cache_info(spans):
    from schurkernels import ensembles
    assert callable(ensembles._moment_cached.cache_info)
