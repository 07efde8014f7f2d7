"""Capture the reference tables that the output check compares against.

Runs each workload's covering configs (every menu entry once) through the
CLI of the source tree beside this directory and writes ``reference.json``:
per workload and table, the CSV header and every row's cells, keyed by
``workloads.row_keys``.  Run it only on a commit whose outputs are trusted,
from the repository root:

    python3 perfbench/capture_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from elastoscat import cli  # noqa: E402


def capture(work: Path) -> dict:
    reference = {}
    for workload in workloads.WORKLOADS:
        tables = reference.setdefault(workload, {})
        for n, cfg in enumerate(workloads.covering_configs(workload)):
            exp = cfg["experiment"]
            cfg_path = work / f"{workload}-{n}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            prefix = work / f"{workload}-{n}"
            rc = cli.main([exp, "--config", str(cfg_path), "--out", str(prefix),
                           "--workers", "1"])
            if rc != 0:
                raise SystemExit(f"{workload}: {exp} exited {rc}")
            for table, keys in workloads.row_keys(cfg).items():
                header, rows = check.read_table(Path(f"{prefix}_{table}.csv"))
                if len(rows) != len(keys):
                    raise SystemExit(f"{workload}: {table} has {len(rows)} rows, "
                                     f"expected {len(keys)}")
                entry = tables.setdefault(table, {"header": header, "rows": {}})
                for key, row in zip(keys, rows):
                    if entry["rows"].setdefault(key, row) != row:
                        raise SystemExit(f"{workload}: {table} row {key} differs "
                                         f"between covering configs")
            print(f"{workload}: {exp} captured", flush=True)
    return reference


def main() -> None:
    work = HERE / "_work" / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = capture(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
