"""The crawl's output contract (pipelines/crawl.py): one lister of the
``<table>/gen-*/part-*.parquet`` layout, typed zero-row results, and a
scan that keeps the layout from being walked anywhere else."""

import ast
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from realestate_scraper_ray.pipelines.crawl import (OUT_SCHEMAS, CrawlResult,
                                                    gen_files)

_PKG = pathlib.Path(__file__).resolve().parent.parent / "realestate_scraper_ray"


def test_gen_files_generation_order(tmp_path):
    root = tmp_path / "validators"
    for gen in ("gen-2", "gen-10", "gen-zcarry", ".tmp-gen-3"):
        (root / gen).mkdir(parents=True)
        pq.write_table(pa.table({"x": [1]}), root / gen / "part-a.parquet")
    (root / "gen-2" / ".tmp-part-b").write_bytes(b"partial")
    (root / "meta.json").write_text("{}")
    got = [pathlib.Path(f).relative_to(root).as_posix()
           for f in gen_files(str(root))]
    assert got == ["gen-2/part-a.parquet", "gen-10/part-a.parquet",
                   "gen-zcarry/part-a.parquet"]
    assert gen_files(str(tmp_path / "missing")) == []


@pytest.mark.parametrize("name", ["urls", "offers", "photos"])
def test_empty_crawl_outputs_are_typed(tmp_path, name):
    res = CrawlResult(workdir=str(tmp_path), generations=0)
    t = res.table(name)
    assert t.num_rows == 0 and t.schema == OUT_SCHEMAS[name]
    refs = res.dataset(name).to_arrow_refs()
    got = pa.concat_tables(ray.get(refs))
    assert got.num_rows == 0 and got.schema == OUT_SCHEMAS[name]


def _code_strings(tree: ast.AST):
    """String constants in code, docstrings excluded (comments never
    reach the tree)."""
    docs = {id(n.body[0].value) for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}
    for n in ast.walk(tree):
        if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and id(n) not in docs):
            yield n


def test_gen_layout_only_in_crawl():
    # a "gen-" path literal (a generation path, a startswith("gen-")
    # filter, a gen-* glob) outside pipelines/crawl.py means the
    # fragment layout is being walked by hand again: use gen_files /
    # read_fragments / gen_dir instead
    hits = []
    for p in sorted(_PKG.rglob("*.py")):
        rel = p.relative_to(_PKG).as_posix()
        if rel == "pipelines/crawl.py":
            continue
        for n in _code_strings(ast.parse(p.read_text())):
            if "gen-" in n.value:
                hits.append(f"{rel}:{n.lineno}")
    assert not hits, f"gen-* layout walked outside pipelines/crawl.py: {hits}"
