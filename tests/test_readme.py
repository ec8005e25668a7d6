"""README's Library section: its example runs and it names the public surface."""

import re
from pathlib import Path

import listcolor as lc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_section() -> str:
    start = README.index("## Library")
    return README[start : README.index("\n## ", start + 1)]


def test_readme_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["phi"].color == [1, 2, 3]


def test_readme_names_exactly_the_exported_surface():
    section = library_section()
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {
        re.match(r"(?:lc\.)?(\w+)", span).group(1)
        for span in re.findall(r"`([^`]+)`", prose)
    }
    assert all(hasattr(lc, name) for name in lc.__all__)
    assert named == set(lc.__all__)
