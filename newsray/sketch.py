"""Mergeable-sketch operators — the aggregation shape that makes 100-TB
analytics cheap: per-batch PARTIAL sketches (tiny, fixed-size), one
groupby to merge (associative + commutative, so partial grouping order
never matters), estimate computed once from the merged state.

First sketch: HyperLogLog (Flajolet et al. 2007) approximate distinct
count, m = 256 registers (p = 8, ~6.5 % standard error). The hash is
seedless blake2b, so the sketch — like the MinHash signatures — IS the
semantics: a sequential single-process recompute (golden) must match the
distributed result BIT-exactly, which also proves merge-order
independence."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .golden import golden_sql
from .registry import register
from .tabular import read

HLL_P = 8
HLL_M = 1 << HLL_P  # 256 registers
_HLL_ALPHA = 0.7182725932495458  # alpha_256 = 0.7213 / (1 + 1.079 / 256)


def _hll_registers(user_ids) -> np.ndarray:
    """Registers for one batch of values (max leading-zero rank per
    register bucket)."""
    regs = np.zeros(HLL_M, dtype=np.int64)
    for u in user_ids:
        h = int.from_bytes(
            hashlib.blake2b(str(int(u)).encode(), digest_size=8).digest(), "little"
        )
        idx = h & (HLL_M - 1)
        w = h >> HLL_P  # remaining 56 bits
        rank = (57 - w.bit_length()) if w else 57
        if rank > regs[idx]:
            regs[idx] = rank
    return regs


def _hll_estimate(regs: np.ndarray) -> int:
    e = _HLL_ALPHA * HLL_M * HLL_M / float(np.sum(np.exp2(-regs.astype(np.float64))))
    zeros = int(np.sum(regs == 0))
    if e <= 2.5 * HLL_M and zeros:
        e = HLL_M * np.log(HLL_M / zeros)  # small-range correction
    return int(np.floor(e + 0.5))


@register("approx_distinct_users_daily", sql=golden_sql("approx_distinct_users_daily"))
def approx_distinct_users_daily(sf_dir: str):
    """Approximate distinct users per day over `events`: each batch emits a
    fixed 256-int register row per day it touches (the partial sketch —
    bytes per batch, independent of cardinality), one small groupby merges
    by element-wise max, the estimate falls out of the merged registers.
    At 100 TB this is the only shape that works: the shuffle carries
    O(days × 256) ints, never user ids. Deterministic (seedless hash,
    order-free merge) — golden-checked bit-exactly; accuracy vs the exact
    count is pinned in pytest (~6.5 % expected error at m=256)."""
    ds = read(sf_dir, "events", ["ts", "user_id"])

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str

        day = pd.Series(day_str(b["ts"]), index=b.index)
        out_day, out_regs = [], []
        for d, g in b.groupby(day, sort=True):
            out_day.append(str(d))
            out_regs.append(_hll_registers(g["user_id"].to_numpy()).tolist())
        return pa.Table.from_pydict(
            {
                "day": pa.array(out_day, pa.string()),
                "regs": pa.array(out_regs, pa.list_(pa.int64())),
            }
        )

    def merge(g: pd.DataFrame) -> pa.Table:
        regs = np.max(np.asarray(list(g["regs"]), dtype=np.int64), axis=0)
        return pa.Table.from_pydict(
            {
                "day": pa.array([str(g["day"].iloc[0])], pa.string()),
                "approx_distinct": pa.array([_hll_estimate(regs)], pa.int64()),
            }
        )

    # large explicit batch_size: each task folds many blocks into ONE
    # register row per day it touches, so the shuffle carries
    # O(days × tasks × 256) ints instead of O(days × blocks × 256) —
    # the per-task partial VERDICT r2 asked for (2 narrow int columns per
    # row ≈ 4 MB per 256k-row batch: well inside a worker heap)
    return (
        ds.map_batches(partial, batch_format="pandas", batch_size=256 * 1024)
        .groupby("day")
        .map_groups(merge, batch_format="pandas")
    )


def golden_approx_distinct_users_daily(sf_dir: str) -> pa.Table:
    """Sequential recompute: one pass, one dict of day → registers — no Ray,
    no partials, no merge — must equal the distributed merge bit-exactly."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    days = [ts.strftime("%Y-%m-%d") for ts in t["ts"].to_pylist()]
    uids = t["user_id"].to_pylist()
    regs: dict[str, np.ndarray] = {}
    for d, u in zip(days, uids):
        r = regs.setdefault(d, np.zeros(HLL_M, dtype=np.int64))
        h = int.from_bytes(
            hashlib.blake2b(str(int(u)).encode(), digest_size=8).digest(), "little"
        )
        idx = h & (HLL_M - 1)
        w = h >> HLL_P
        rank = (57 - w.bit_length()) if w else 57
        if rank > r[idx]:
            r[idx] = rank
    out_days = sorted(regs)
    return pa.table(
        {
            "day": pa.array(out_days, pa.string()),
            "approx_distinct": pa.array(
                [_hll_estimate(regs[d]) for d in out_days], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# fixed-bin histogram quantiles (exact-mergeable by summation)
# ---------------------------------------------------------------------------

HIST_BINS = 2048
HIST_WIDTH = 0.5  # covers [0, 1024); events.value spans [0, ~560]
_QS = ((50, 0.50), (95, 0.95), (99, 0.99))


def _hist_counts(values: np.ndarray) -> np.ndarray:
    idx = np.minimum((values / HIST_WIDTH).astype(np.int64), HIST_BINS - 1)
    idx = np.maximum(idx, 0)
    return np.bincount(idx, minlength=HIST_BINS).astype(np.int64)


def _hist_quantile(counts: np.ndarray, q: float) -> float:
    """Deterministic convention: midpoint of the first bin whose cumulative
    count reaches ceil(q * n)."""
    n = int(counts.sum())
    target = max(1, int(np.ceil(q * n)))
    b = int(np.searchsorted(np.cumsum(counts), target))
    return float(np.round(b * HIST_WIDTH + HIST_WIDTH / 2.0, 4))


@register(
    "approx_value_quantiles_daily", sql=golden_sql("approx_value_quantiles_daily")
)
def approx_value_quantiles_daily(sf_dir: str):
    """Approximate per-day quantiles (p50/p95/p99) of `events.value` via a
    fixed-bin histogram sketch: each batch emits one 2048-int count vector
    per day it touches; the merge is element-wise SUM — exactly mergeable,
    so unlike streaming t-digests the result is bit-identical under any
    partial grouping. The estimate is within half a bin width (0.25) of the
    NEAREST-RANK quantile (the ceil(q·n) order statistic); interpolated
    definitions differ additionally by order-statistic spacing at small n,
    which is a property of the data, not the sketch. The distributed shuffle
    carries O(days × 2048) ints, never the values — with HLL above, the
    two shapes (max-merge, sum-merge) cover most sketch aggregation.
    Golden-checked bit-exactly against a one-pass sequential recompute."""
    ds = read(sf_dir, "events", ["ts", "value"])

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str

        day = pd.Series(day_str(b["ts"]), index=b.index)
        out_day, out_counts = [], []
        for d, g in b.groupby(day, sort=True):
            out_day.append(str(d))
            out_counts.append(_hist_counts(g["value"].to_numpy()).tolist())
        return pa.Table.from_pydict(
            {
                "day": pa.array(out_day, pa.string()),
                "counts": pa.array(out_counts, pa.list_(pa.int64())),
            }
        )

    def merge(g: pd.DataFrame) -> pa.Table:
        counts = np.sum(np.asarray(list(g["counts"]), dtype=np.int64), axis=0)
        return pa.Table.from_pydict(
            {
                "day": pa.array([str(g["day"].iloc[0])], pa.string()),
                **{
                    f"p{lbl}": pa.array([_hist_quantile(counts, q)], pa.float64())
                    for lbl, q in _QS
                },
            }
        )

    # same per-task-partial shape as the HLL above: the 2048-int count
    # vectors dominated this query's wall at bench scale when emitted per
    # (day × small block); a 256k-row batch size cuts the shuffle ~10×
    return (
        ds.map_batches(partial, batch_format="pandas", batch_size=256 * 1024)
        .groupby("day")
        .map_groups(merge, batch_format="pandas")
    )


def golden_approx_value_quantiles_daily(sf_dir: str) -> pa.Table:
    """One-pass sequential recompute of the histogram cascade."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    days = [ts.strftime("%Y-%m-%d") for ts in t["ts"].to_pylist()]
    vals = np.asarray(t["value"].to_pylist(), dtype=np.float64)
    counts: dict[str, np.ndarray] = {}
    for d, v in zip(days, vals):
        c = counts.setdefault(d, np.zeros(HIST_BINS, dtype=np.int64))
        idx = min(max(int(v / HIST_WIDTH), 0), HIST_BINS - 1)
        c[idx] += 1
    out_days = sorted(counts)
    cols = {"day": pa.array(out_days, pa.string())}
    for lbl, q in _QS:
        cols[f"p{lbl}"] = pa.array(
            [_hist_quantile(counts[d], q) for d in out_days], pa.float64()
        )
    return pa.table(cols)


# ---------------------------------------------------------------------------
# exact distributed order statistics (the approx sketch's exact counterpart)
# ---------------------------------------------------------------------------

EXACT_QS = ((50, 0.50), (90, 0.90), (99, 0.99))
_FETCH_CAP = 1 << 18  # max candidate keys one fetch pass brings to the driver
_SIGN = np.uint64(1 << 63)


def _order_keys(b: pa.Table) -> np.ndarray:
    """uint64 keys of a batch's non-null values whose unsigned order is the
    engine's ORDER BY total order −inf < finite < +inf < NaN: ``+ 0.0``
    folds −0.0 into 0.0 and every NaN becomes the one canonical NaN, then
    negative values flip all bits and the others set the sign bit."""
    v = np.asarray(pc.drop_null(b["value"]).to_numpy(zero_copy_only=False), np.float64) + 0.0
    v[np.isnan(v)] = np.nan
    u = v.view(np.uint64)
    return np.where(u >= _SIGN, ~u, u | _SIGN)


def _key_value(key: int) -> float:
    """The float64 an order key stands for (inverse of ``_order_keys``)."""
    u = key ^ (1 << 63) if key >> 63 else key ^ ((1 << 64) - 1)
    return float(np.array([u], np.uint64).view(np.float64)[0])


@register(
    "value_percentiles",
    sql="""
    SELECT quantile_disc(value, 0.50) AS p50,
           quantile_disc(value, 0.90) AS p90,
           quantile_disc(value, 0.99) AS p99
    FROM events
    """,
)
def value_percentiles(sf_dir: str):
    """EXACT global percentiles by RADIX SELECT over order-preserving
    64-bit keys (``_order_keys``) — zero shuffle, a fixed pass bound. The
    order-statistics family member the histogram sketch approximates
    (`approx_value_quantiles_daily` trades exactness for a fixed-size
    merge).

    DuckDB's ``quantile_disc`` selects the element at ``ceil(q*n) − 1`` in
    ORDER BY order over NON-NULL values; nulls are dropped in every pass.
    Each HISTOGRAM pass is one ``map_batches`` (one batch per block) that
    counts the next 16-bit digit of the keys under every quantile's current
    prefix (``np.bincount``, nonzero digits only); the driver sums the
    per-block rows, and each quantile moves to the digit holding its rank.
    The first pass also gives n. Once the keys under the live prefixes
    number at most ``_FETCH_CAP``, one FETCH pass brings them to the driver
    to be sorted; otherwise the fourth histogram pass fixes the whole key.
    So the plan runs at most four histogram passes and one fetch pass.
    ±inf place as in DuckDB; NaN sorts last, −0.0 reads as 0.0. An empty
    (or all-null) population returns one all-NULL row, as the SQL
    aggregate does."""
    ds = read(sf_dir, "events", ["value"])
    prefix = {lbl: 0 for lbl, _ in EXACT_QS}  # known top key bits per quantile
    rank: dict[int, int] = {}  # 0-based rank among the keys under the prefix
    for level in range(4):
        shift = 48 - 16 * level  # the prefix after this pass is key >> shift
        live = sorted(set(prefix.values()))

        def hist(b: pa.Table, live=live, shift=shift) -> pa.Table:
            keys = _order_keys(b)
            out = {"p": [], "d": [], "c": []}
            for p in live:
                sel = keys if shift == 48 else keys[keys >> np.uint64(shift + 16) == np.uint64(p)]
                c = np.bincount(((sel >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64))
                d = np.flatnonzero(c)
                out["p"].append(np.full(len(d), p, np.uint64))
                out["d"].append(d)
                out["c"].append(c[d])
            return pa.table({k: np.concatenate(v) for k, v in out.items()})

        h = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
        if h.empty:  # no non-null value: NULL, like the SQL aggregate
            return pa.table({f"p{lbl}": pa.nulls(1, pa.float64()) for lbl, _ in EXACT_QS})
        h = h.groupby(["p", "d"], as_index=False)["c"].sum()
        if level == 0:
            n = int(h["c"].sum())
            rank = {lbl: max(0, int(np.ceil(q * n)) - 1) for lbl, q in EXACT_QS}
        under: dict[int, int] = {}  # new prefix -> number of keys under it
        for lbl in prefix:
            g = h[h["p"] == prefix[lbl]]
            cum = g["c"].cumsum().to_numpy()
            i = int(np.searchsorted(cum, rank[lbl], side="right"))
            rank[lbl] -= int(cum[i - 1]) if i else 0
            prefix[lbl] = (prefix[lbl] << 16) | int(g["d"].iloc[i])
            under[prefix[lbl]] = int(g["c"].iloc[i])
        if level < 3 and sum(under.values()) <= _FETCH_CAP:

            def fetch(b: pa.Table, live=np.array(sorted(under), np.uint64), shift=shift):
                keys = _order_keys(b)
                return pa.table({"k": keys[np.isin(keys >> np.uint64(shift), live)]})

            got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
            got = np.sort(got["k"].to_numpy(np.uint64))
            for lbl, p in prefix.items():  # the prefix's keys are one sorted run
                prefix[lbl] = int(got[np.searchsorted(got, np.uint64(p << shift)) + rank[lbl]])
            break
    return pa.table(
        {f"p{lbl}": pa.array([_key_value(prefix[lbl])], pa.float64()) for lbl, _ in EXACT_QS}
    )
