"""The runtime needs only the standard library, and its sources, scripts and tests parse as Python 3.10."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_only_standard_library_modules():
    # -S keeps site-packages .pth hooks out of the child, so every module it
    # loads comes from the interpreter itself or from apnforge's imports
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import apnforge, apnforge.cli\n"
        "print(json.dumps(sorted({name.split('.')[0] for name in sys.modules})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "apnforge" in loaded
    foreign = [
        name
        for name in loaded
        if name not in sys.stdlib_module_names and name not in ("apnforge", "__main__")
    ]
    assert foreign == []


def test_sources_parse_as_python_3_10():
    # the runtime floor is Python 3.10: syntax such as except* must not appear,
    # in the library, in the scripts that run its workloads or in its tests
    library = sorted((SRC / "apnforge").glob("*.py"))
    scripts = sorted((SRC.parent / "scripts").glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert library and scripts and tests
    for path in library + scripts + tests:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
