"""The repo's own measuring tools: the correctness gate's value hash
(``tools/check_correctness.py``) and the A/B runner's leftover-process
check (``tools/ab.py``)."""

import importlib.util
import os

import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_value_hash_ignores_float_spelling():
    """Equal values hash alike however their dtype prints them: an
    integral float and its integer, ``-0.0`` and ``0``, a float32 and a
    float64 half, a missing value as NaN or as None."""
    h = _tool("check_correctness").value_hash
    a = pd.DataFrame({"k": ["x", "y", "z", "w"],
                      "v": [2.0, -0.0, 0.5, np.nan],
                      "n": pd.array([3, 1, 2, None], dtype="Int64")})
    b = pd.DataFrame({"n": [3.0, 1.0, 2.0, np.nan],
                      "v": pd.array([2, 0, 0.5, None], dtype="object"),
                      "k": ["x", "y", "z", "w"]})
    b["v"] = b["v"].astype("float32")
    assert h(a) == h(b)
    # different values still differ, and so do strings that look numeric
    assert h(a) != h(a.assign(v=[2.0, 0.0, 0.25, np.nan]))
    assert h(pd.DataFrame({"s": ["2.0"]})) != h(pd.DataFrame({"s": ["2"]}))
    assert h(pd.DataFrame({"b": [True]})) != h(pd.DataFrame({"b": [1]}))


def test_leftover_check_matches_real_processes_only():
    is_left = _tool("ab").is_benchmark_process
    left = [
        "/usr/lib/python3.11/site-packages/ray/core/src/ray/raylet/raylet "
        "--raylet_socket_name=/tmp/ray/session_x/sockets/raylet",
        "ray::IDLE",
        "ray::UrlSeenShard",
        "ray::PolitenessShard.book",
        "/usr/bin/python3 perfbench/run.py --workload crawl_frontier",
        "python /src/parent/perfbench/run.py --seed 2",
        "/usr/bin/python -m pytest tests/ -q",
        "/usr/local/bin/pytest tests/test_crawl.py",
        "python /usr/local/bin/pytest -q",
    ]
    not_left = [
        '/bin/bash -c pgrep -af "raylet|perfbench"',
        'pgrep -af raylet|ray::|perfbench|pytest',
        "vim perfbench/run.py",
        "timeout -k 10 300 /usr/bin/python perfbench/run.py",
        "python tools/ab.py parent change --workload crawl_frontier",
        "less /tmp/pytest-of-root/log",
        "",
    ]
    assert [c for c in left if not is_left(c)] == []
    assert [c for c in not_left if is_left(c)] == []
