"""The preset names are declared once: as string constants they appear
in ``freedg.py`` alone, where the preset table maps each to its graph."""
import ast
from pathlib import Path

from fcmc.freedg import PRESETS

SRC = Path(__file__).resolve().parent.parent / "src" / "fcmc"
NAMES = ("ainf", "category", "bimodule", "left-module", "right-module",
         "rmodule")


def preset_constants(source: str) -> list[str]:
    """The string constants of a module that are preset names."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in NAMES]


def test_preset_names_are_declared_once():
    assert tuple(PRESETS) == NAMES
    found = {p.name: preset_constants(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name for name, consts in found.items() if consts} == \
        {"freedg.py"}
    assert set(found["freedg.py"]) == set(NAMES)


def test_preset_constant_is_found():
    src = 'x = "ainf"\ny = f"{x}-module"\n"""category docs"""\n'
    assert preset_constants(src) == ["ainf"]
