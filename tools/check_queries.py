"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + schema + order-insensitive value comparison).

Usage: python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        if str(df[c].dtype) in ("int32", "uint32", "int16"):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # the golden dumps (read by the golden-backed oracle SQL) for THIS sf
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs, oracle = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            raw = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracle:
            # rows-only check (nested/approx results aren't hash-compared)
            print(f"rows  {name}: {len(raw)} rows, cols={sorted(raw.columns)} ({dt:.1f}s)")
            continue
        got = normalize(raw)
        try:
            want = normalize(con.execute(oracle[name]).df())
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: oracle SQL raised {type(e).__name__}: {e}")
            failures += 1
            continue
        status = "ok"
        if list(got.columns) != list(want.columns):
            status = f"SCHEMA mismatch: ray={list(got.columns)} sql={list(want.columns)}"
        elif len(got) != len(want):
            status = f"ROWCOUNT mismatch: ray={len(got)} sql={len(want)}"
        else:
            try:
                pd.testing.assert_frame_equal(
                    got, want, check_dtype=False, check_exact=True
                )
            except AssertionError as e:
                status = "VALUES mismatch: " + str(e).split("\n")[0]
                for c in got.columns:
                    if not got[c].equals(want[c]):
                        bad = (got[c] != want[c]) & ~(got[c].isna() & want[c].isna())
                        status += f" | col {c}: {int(bad.sum())} diffs"
        tag = "ok   " if status == "ok" else "FAIL "
        if status != "ok":
            failures += 1
        print(f"{tag} {name}: {len(got)} rows ({dt:.1f}s)" + ("" if status == "ok" else f" -> {status}"))
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
