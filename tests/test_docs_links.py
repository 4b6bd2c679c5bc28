"""Documentation link gate: every repo path and public name the docs
cite must exist.

The docs cite files by backticked repo-relative path (a benchmark
script, a test module, another doc page) and code by backticked dotted
name (``repro.exec.engine``, ``kernels.hash_histogram``).  Deleting or
renaming either leaves the citation dangling without any other test
noticing; this one walks the user-facing pages and fails on every path
or name that is gone.
"""

import importlib
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

PAGES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

_FENCE = re.compile(r"```.*?```", re.S)
_INLINE = re.compile(r"`([^`\n]+)`")
_IN_TREE = re.compile(r"^(benchmarks|examples|src|tests|docs)/[\w./*-]*$")
_ROOT_FILE = re.compile(r"^[\w.*-]+\.(json|md)$")

#: file names the docs mention that are written at run time, not repo files
_RUNTIME_FILES = {"SPILL_MANIFEST.json"}


def _cited_paths(text: str):
    """Repo paths named in code spans (inline, or words of a fenced
    block); root-level ``*.json``/``*.md`` only inline, where they are
    citations rather than a command's output file names."""
    fenced = _FENCE.findall(text)
    inline = _INLINE.findall(_FENCE.sub("", text))
    for spans, patterns in (
        (inline, (_IN_TREE, _ROOT_FILE)),
        (fenced, (_IN_TREE,)),
    ):
        for span in spans:
            for word in span.split():
                word = word.strip("(),;:")
                if word in _RUNTIME_FILES:
                    continue
                if any(pattern.match(word) for pattern in patterns):
                    yield word


def _exists(path: str) -> bool:
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


@pytest.mark.parametrize(
    "page", PAGES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_cited_paths_exist(page):
    cited = sorted(set(_cited_paths(page.read_text())))
    missing = [path for path in cited if not _exists(path)]
    assert not missing, f"{page.relative_to(ROOT)} cites missing {missing}"


def test_service_knob_table_is_the_constructor():
    """``docs/SERVICE.md``'s knob table and ``PartitionService.__init__``
    name the same knobs (``clock`` is a test seam, not a knob), so a
    constructor argument cannot appear or vanish undocumented."""
    import inspect

    from repro.service import PartitionService

    text = (ROOT / "docs" / "SERVICE.md").read_text()
    table = text.split("## Knob reference", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|")[1]
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    documented = {name for cell in rows for name in _INLINE.findall(cell)}
    parameters = set(inspect.signature(PartitionService.__init__).parameters)
    assert len(rows) >= 10, "knob table not found"
    assert documented == parameters - {"self", "clock"}


#: the user-facing pages whose public names must exist
NAME_PAGES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_DOTTED = re.compile(r"\b(?:repro|kernels)(?:\.\w+)+")


def _cited_names(text: str):
    """Dotted ``repro.*`` / ``kernels.*`` names in inline code spans."""
    for span in _INLINE.findall(_FENCE.sub("", text)):
        yield from _DOTTED.findall(span)


def _metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec["per_layer"]}


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name`` (``kernels.`` means
    ``repro.kernels.``), then ``getattr`` the rest."""
    parts = name.split(".")
    if parts[0] == "kernels":
        parts.insert(0, "repro")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize(
    "page", NAME_PAGES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_public_names_exist(page):
    """Every documented ``repro.`` / ``kernels.`` name still imports,
    or is a per-layer metric of the stack benchmark."""
    metrics = _metric_names()
    cited = sorted(set(_cited_names(page.read_text())))
    missing = [
        name for name in cited if name not in metrics and not _resolves(name)
    ]
    assert not missing, f"{page.relative_to(ROOT)} names missing {missing}"


def test_the_gate_sees_names():
    # a regex or resolver that silently accepts everything would pass
    cited = set(_cited_names((ROOT / "docs" / "EXECUTION.md").read_text()))
    assert {"kernels.hash_histogram", "repro.kernels.numpy_impl"} <= cited
    assert "kernels.stable_scatter_mtps" in _metric_names()
    assert _resolves("repro.exec.engine.ExecutionEngine")
    assert not _resolves("kernels.no_such_primitive")
    assert not _resolves("repro.no_such_module")


def test_the_gate_sees_citations():
    # a regex that silently matches nothing would pass every page
    cited = set(_cited_paths((ROOT / "README.md").read_text()))
    assert "benchmarks/stack/README.md" in cited
    assert "EXPERIMENTS.md" in cited
    assert not _exists("benchmarks/no_such_bench.py")
