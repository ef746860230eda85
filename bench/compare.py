"""Compare two result files written with ``run.py --out``.

For each workload and metric it prints both medians, their ratio (new /
base), and, for the end-to-end metrics, whether the new median is worse
than the base by more than the metric's bound in BENCHMARK.json.  The
exit code is 1 when any end-to-end metric is worse beyond its bound.  It
lists the commits each file measured, and warns when the two files come
from machines with another CPU count or Python version.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path


ENVIRONMENT = ("cpu_count", "python")


def _read(path) -> tuple[dict[tuple[str, str], float], dict[str, set]]:
    """Medians per (workload, metric), and the set of values each
    environment field and the commit take in the file."""
    runs: dict[tuple[str, str], list[float]] = {}
    env: dict[str, set] = {k: set() for k in ENVIRONMENT + ("git_sha",)}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for k, seen in env.items():
                seen.add(rec.get(k))
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return {key: statistics.median(vals) for key, vals in runs.items()}, env


def compare(base_path, new_path, spec_path: Path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    (base, base_env), (new, new_env) = _read(base_path), _read(new_path)
    for label, env in (("base", base_env), ("new", new_env)):
        print(f"{label}: commit {', '.join(sorted(map(str, env['git_sha'])))}")
    for k in ENVIRONMENT:
        if base_env[k] != new_env[k]:
            print(f"warning: {k} differs: base {sorted(map(str, base_env[k]))}, "
                  f"new {sorted(map(str, new_env[k]))}")
    regressed = False
    print(f"{'workload':10s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = base[key], new[key]
        ratio = n / b if b else float("nan")
        verdict = ""
        m = bounds.get(name)
        if m is not None and b:
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            if worse > m["bound"]:
                verdict = f"worse beyond bound {m['bound']}"
                regressed = True
            else:
                verdict = f"within bound {m['bound']}"
        print(f"{workload:10s} {name:28s} {b:12.6g} {n:12.6g} {ratio:9.4f}  {verdict}")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:10s} {key[1]:28s} only in {'base' if key in base else 'new'}")
    return 1 if regressed else 0
