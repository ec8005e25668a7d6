"""README's Library section: its example runs and it names the public
surface.  Its Errors section names every exception class with the exit
code that class gets."""

import re
from pathlib import Path

import pytest

import listcolor as lc
from listcolor import engine, errors
from listcolor.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_section() -> str:
    start = README.index("## Library")
    return README[start : README.index("\n## ", start + 1)]


def error_rows() -> dict[str, int]:
    """Class name -> exit code, from the table in README's Errors section."""
    start = README.index("\n## Errors\n")
    end = README.find("\n## ", start + 1)
    section = README[start : end if end >= 0 else len(README)]
    return {name: int(code)
            for name, code in re.findall(r"^\| `(\w+)` \| (\d) \|", section, re.M)}


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


def test_readme_errors_name_exactly_the_exception_classes():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert set(error_rows()) == classes


@pytest.mark.parametrize("name, code", sorted(error_rows().items()))
def test_each_error_class_exits_with_its_documented_code(
    tmp_path, capsys, monkeypatch, name, code
):
    cls = getattr(errors, name)

    def broken(*args):
        raise cls.__new__(cls)  # the exit code depends on the class alone

    monkeypatch.setattr(engine, "augment_once", broken)  # every mode's one step
    inst = tmp_path / "tri.txt"
    inst.write_text("p edge 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert main(["color", str(inst), "--mode", "vizing"]) == code
    capsys.readouterr()
