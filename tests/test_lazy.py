import math
import sys

import pytest

from qibench._lazy import lazy_module


def test_loaded_module_is_returned_as_is():
    assert lazy_module("math") is math
    assert lazy_module("qibench._lazy") is sys.modules["qibench._lazy"]


def test_import_runs_on_first_attribute_access(tmp_path, monkeypatch):
    # the probe module leaves a marker file when its body runs
    (tmp_path / "lazy_probe.py").write_text("open(__file__ + '.ran', 'w').close()\nVALUE = 42\n")
    marker = tmp_path / "lazy_probe.py.ran"
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "lazy_probe", raising=False)
    module = lazy_module("lazy_probe")
    assert sys.modules["lazy_probe"] is module
    assert lazy_module("lazy_probe") is module
    assert not marker.exists()
    assert module.VALUE == 42
    assert marker.exists()


def test_missing_module_fails_at_once():
    with pytest.raises(ModuleNotFoundError):
        lazy_module("qibench_no_such_module")
