import re
from pathlib import Path

import qibench


def test_public_names_resolve():
    names = qibench.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qibench, name)] == []
    namespace = {}
    exec("from qibench import *", namespace)
    assert set(names) <= namespace.keys()


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library quick tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
