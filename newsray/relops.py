"""Relational operators over the testdata star schema, Ray-Data-first, each
mirroring an operator family from SURVEY.md §2 and cross-checked against a
DuckDB oracle (the driver's correctness gate).

Scale discipline per operator:
* column pruning at the read;
* partial aggregation inside ``map_batches`` before any ``groupby`` where
  the key space is small;
* broadcast joins for dimension tables (``ray.put`` once, lookup per batch);
* explicit hash-bucket partitioned joins when both sides are large;
* per-group work only where semantics are inherently per-group (windows,
  sessions, as-of).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .registry import register
from .tabular import read, round_col

# ---------------------------------------------------------------------------
# A-family: grouped aggregation (SURVEY §2.5 A1-A4) — TPC-H-Q1-shaped
# ---------------------------------------------------------------------------


@register(
    "pricing_summary",
    sql="""
    SELECT l_returnflag, l_linestatus,
           SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) / 100.0      AS sum_qty,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price,
           ((SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) + 50) // 100)
             / 100.0                                                 AS sum_disc_price,
           ROUND(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT))
                 / (100.0 * COUNT(*)), 4)                            AS avg_qty,
           COUNT(*)                                                  AS count_order
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
    """,
)
def pricing_summary(sf_dir: str):
    """Grouped aggregate with per-batch partial combine: each batch folds to
    ≤6 key rows of EXACT int64 partials (quantity/price are 2-dp-exact in
    float64, so ×100-rounded ints sum order-independently — float partial
    sums would make the output hash depend on Ray's block splits), then a
    tiny 6-key groupby merges them. The oracle SQL casts to BIGINT the same
    way, so both sides divide identical integers into identical doubles."""
    from ray.data.aggregate import Sum

    ds = read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        qty_c = pc.cast(pc.round(pc.multiply(b["l_quantity"], pa.scalar(100.0))), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], pa.scalar(100.0))), pa.int64())
        disc_pct = pc.cast(pc.round(pc.multiply(b["l_discount"], pa.scalar(100.0))), pa.int64())
        disc_e4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        t = pa.Table.from_pydict(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_c": qty_c,
                "price_c": price_c,
                "disc_e4": disc_e4,
            }
        )
        agg = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("price_c", "sum"), ("disc_e4", "sum"), ("qty_c", "count")]
        )
        return pa.Table.from_pydict(
            {
                "l_returnflag": agg["l_returnflag"],
                "l_linestatus": agg["l_linestatus"],
                "p_qty": agg["qty_c_sum"],
                "p_price": agg["price_c_sum"],
                "p_disc": agg["disc_e4_sum"],
                "p_n": pc.cast(agg["qty_c_count"], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("p_qty", alias_name="qty_c"),
            Sum("p_price", alias_name="price_c"),
            Sum("p_disc", alias_name="disc_e4"),
            Sum("p_n", alias_name="count_order"),
        )
    )

    def final(b: pa.Table) -> pa.Table:
        qty = b["qty_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = b["price_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        disc = b["disc_e4"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = b["count_order"].to_numpy(zero_copy_only=False).astype(np.int64)
        avg = qty / (100.0 * n)
        avg = np.floor(np.abs(avg) * 1e4 + 0.5) / 1e4 * np.sign(avg)
        return pa.Table.from_pydict(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "sum_qty": pa.array(qty / 100.0, pa.float64()),
                "sum_base_price": pa.array(price / 100.0, pa.float64()),
                "sum_disc_price": pa.array(((disc + 50) // 100) / 100.0, pa.float64()),
                "avg_qty": pa.array(avg, pa.float64()),
                "count_order": pa.array(n, pa.int64()),
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


@register(
    "events_daily_counts",
    sql="""
    SELECT strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n
    FROM events GROUP BY day
    """,
)
def events_daily_counts(sf_dir: str):
    """Day bucketing (the reference's group-by-date sink, SURVEY A1) with
    per-batch partial counts before the tiny key shuffle."""
    ds = read(sf_dir, "events", ["ts"])

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str, from_pandas_clean

        c = pd.Series(day_str(b["ts"])).value_counts()
        return from_pandas_clean(pd.DataFrame({"day": c.index, "partial_n": c.to_numpy()}))

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("partial_n", alias_name="n"))
    )
    return out


# ---------------------------------------------------------------------------
# O-family: sort / top-k / limit (SURVEY §2.6 O1-O3, K3 capped feed)
# ---------------------------------------------------------------------------


@register(
    "newest_50_events",
    sql="""
    SELECT event_id, ts FROM events
    ORDER BY ts DESC, event_id DESC LIMIT 50
    """,
)
def newest_50_events(sf_dir: str):
    """Global newest-K cap (the aggregator's 50-item feed, SURVEY K3/O3)."""
    ds = read(sf_dir, "events", ["event_id", "ts"])
    return ds.sort(["ts", "event_id"], descending=[True, True]).limit(50)


@register(
    "top3_by_event_type",
    sql="""
    SELECT event_type, event_id, ROUND(value, 4) AS value FROM (
      SELECT event_type, event_id, value,
             ROW_NUMBER() OVER (PARTITION BY event_type
                                ORDER BY value DESC, event_id ASC) AS rn
      FROM events) WHERE rn <= 3
    """,
)
def top3_by_event_type(sf_dir: str):
    """Per-group top-k (sort inside day group, SURVEY O1) via map_groups —
    local per-group sort, no global sort."""
    ds = read(sf_dir, "events", ["event_type", "event_id", "value"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True], kind="mergesort")
        g = g.head(3).copy()
        g["value"] = np.floor(np.abs(g["value"]) * 1e4 + 0.5) / 1e4 * np.sign(g["value"])
        return g

    return ds.groupby("event_type").map_groups(topk, batch_format="pandas")


@register(
    "distinct_flag_status",
    sql="SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
)
def distinct_flag_status(sf_dir: str):
    """Exact-tuple distinct (SURVEY D6/A3 — the Daum result_set)."""
    from ray.data.aggregate import Count

    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(Count(alias_name="_n"))
    return out.drop_columns(["_n"])


# ---------------------------------------------------------------------------
# J-family: joins (SURVEY §2.4 — broadcast lookup & partitioned hash join)
# ---------------------------------------------------------------------------


@register(
    "customers_per_region",
    sql="""
    SELECT r_name, COUNT(*) AS n_customers
    FROM customer
    JOIN nation ON c_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def customers_per_region(sf_dir: str):
    """Broadcast join: the dimension chain nation→region is read once on the
    driver, shipped via ray.put, and applied as a dict lookup per batch —
    no shuffle for the small side (SURVEY §2.4 J-mapping; ray_guide joins)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    reg_name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    # inner joins: a row whose region or nation key is unknown drops out
    nat_to_region = {
        nk: reg_name[rk]
        for nk, rk in zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist())
        if rk in reg_name
    }
    lookup_ref = ray.put(nat_to_region)

    def tag(b: pa.Table) -> pa.Table:
        lut = ray.get(lookup_ref)
        names = [lut[k] for k in b["c_nationkey"].to_pylist() if k in lut]
        return pa.Table.from_pydict({"r_name": pa.array(names, pa.string())})

    from ray.data.aggregate import Count

    ds = read(sf_dir, "customer", ["c_nationkey"])
    return ds.map_batches(tag, batch_format="pyarrow").groupby("r_name").aggregate(
        Count(alias_name="n_customers")
    )


@register(
    "revenue_by_priority",
    sql="""
    SELECT o_orderpriority,
           ((SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) + 50) // 100)
             / 100.0 AS revenue,
           COUNT(*) AS n_items
    FROM orders JOIN lineitem ON o_orderkey = l_orderkey
    GROUP BY o_orderpriority
    """,
)
def revenue_by_priority(sf_dir: str):
    """Explicit partitioned hash join (both sides large): one
    `tabular.bucket_join` by orderkey joins + partially aggregates inside
    each bucket, then a tiny final groupby. This is the portable Ray Data
    large-join pattern (ray_guide 'Joins'); the bucket count scales with
    the cluster AND the data (tabular.n_buckets); for a HOT key, the implemented
    salting pattern is events_rollup's user-hash bucket (split the hot group
    by an orthogonal key hash, partial per salt, tiny final merge).

    Determinism: revenue is accumulated in EXACT int64 units of 10^-4 dollars
    (extendedprice is cents-exact in float64, discount a 2-dp fraction, so
    round(price*100) * (100 - round(disc*100)) is an exact integer) — the sum
    is order-independent under any Ray block split, unlike float64 partial
    sums whose last ulp depends on summation order and can flip a cent across
    ROUND's half-boundary. The oracle SQL casts to BIGINT identically."""
    from ray.data.aggregate import Sum

    from .tabular import bucket_join, n_buckets

    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    lineitem = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    nb = n_buckets(size_bytes=orders.size_bytes() + lineitem.size_bytes())

    def item_partials(b: pa.Table) -> pa.Table:
        # partial aggregate BELOW the exchange: duplicate orderkeys combine
        # inside the batch (TPC-H averages ~4 items/order), so the shuffle
        # carries (key, rev_e4, n_rows) — a fraction of the raw rows.
        # rev_e4 is an exact int64 (10^-4 dollars): summation order can't
        # change the result, so the output hash is block-split-invariant.
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], pa.scalar(100.0))), pa.int64())
        disc_pct = pc.cast(pc.round(pc.multiply(b["l_discount"], pa.scalar(100.0))), pa.int64())
        rev_e4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        t = pa.Table.from_pydict({"o_orderkey": b["l_orderkey"], "rev_e4": rev_e4})
        agg = t.group_by("o_orderkey").aggregate([("rev_e4", "sum"), ("rev_e4", "count")])
        return pa.table(
            {
                "o_orderkey": agg["o_orderkey"],
                "rev_e4": agg["rev_e4_sum"],
                "n_rows": agg["rev_e4_count"],
            }
        )

    def join_bucket(o: pd.DataFrame, li: pd.DataFrame) -> pd.DataFrame:
        return (
            li.merge(o, on="o_orderkey")
            .groupby("o_orderpriority", as_index=False)
            .agg(partial_rev=("rev_e4", "sum"), partial_n=("n_rows", "sum"))
        )

    out = (
        bucket_join(
            (orders, {"o_orderkey": pa.int64(), "o_orderpriority": pa.string()}),
            (
                lineitem.map_batches(item_partials, batch_format="pyarrow"),
                {"o_orderkey": pa.int64(), "rev_e4": pa.int64(), "n_rows": pa.int64()},
            ),
            "o_orderkey",
            nb,
            join_bucket,
            {"o_orderpriority": pa.string(), "partial_rev": pa.int64(), "partial_n": pa.int64()},
        )
        .groupby("o_orderpriority")
        .aggregate(
            Sum("partial_rev", alias_name="rev_e4_total"),
            Sum("partial_n", alias_name="n_items"),
        )
    )

    def final(b: pa.Table) -> pa.Table:
        # exact int64 -> dollars rounded half-up to cents, identically to the
        # oracle's ((S + 50) // 100) / 100.0 (revenue is non-negative)
        total = b["rev_e4_total"].to_numpy(zero_copy_only=False).astype(np.int64)
        revenue = ((total + 50) // 100) / 100.0
        return pa.Table.from_pydict(
            {
                "o_orderpriority": b["o_orderpriority"],
                "revenue": pa.array(revenue, pa.float64()),
                "n_items": b["n_items"],
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


@register(
    "last_click_before_purchase",
    sql="""
    SELECT p.event_id AS event_id, c.ts AS click_ts
    FROM (SELECT * FROM events WHERE event_type = 'purchase') p
    ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
      ON p.user_id = c.user_id AND p.ts >= c.ts
    """,
)
def last_click_before_purchase(sf_dir: str):
    """As-of join (an operator Ray Data lacks): bucket both sides by
    hash(user_id), co-locate with one groupby, and run pandas ``merge_asof``
    per bucket over ts-sorted frames (ray_guide as-of pattern). Partitioning
    assumption: a user's events fit one bucket group; B scales with the
    cluster AND the data (tabular.n_buckets)."""
    from .tabular import bucket_groups, n_buckets

    ds = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    B = n_buckets(size_bytes=ds.size_bytes())

    def prep(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["event_type"], value_set=pa.array(["purchase", "click"])))

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["event_type"] == "purchase"].sort_values("ts", kind="mergesort")
        c = g[g["event_type"] == "click"].sort_values("ts", kind="mergesort")
        if len(p) == 0 or len(c) == 0:
            return p.iloc[:0]
        m = pd.merge_asof(
            p[["event_id", "ts", "user_id"]],
            c[["ts", "user_id"]].rename(columns={"ts": "click_ts"}),
            left_on="ts",
            right_on="click_ts",
            by="user_id",
            direction="backward",
            allow_exact_matches=True,
        )
        return m.dropna(subset=["click_ts"])

    return bucket_groups(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        B,
        asof_bucket,
        {"event_id": pa.int64(), "click_ts": pa.timestamp("us")},
    )


# ---------------------------------------------------------------------------
# streaming-shaped: tumbling windows + sessionization (ray_guide streaming)
# ---------------------------------------------------------------------------


@register(
    "hourly_user_windows",
    sql="""
    SELECT user_id,
           CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
           COUNT(*) AS n_events,
           ROUND(SUM(value), 4) AS sum_value
    FROM events
    GROUP BY user_id, hour_bucket
    """,
)
def hourly_user_windows(sf_dir: str):
    """Tumbling event-time window as a keyed aggregate: window id computed
    vectorized per batch (exact integer arithmetic on epoch-us), then one
    groupby over (user, window)."""
    ds = read(sf_dir, "events", ["user_id", "ts", "value"])

    # High-cardinality keyed aggregate (~1 group per row): Ray's native
    # groupby().aggregate() sort-aggregates per key and is ~8× slower here.
    # Instead ONE coarse hash-partition shuffle (B buckets, scaled to the
    # cluster) and a vectorized pandas aggregation inside each bucket.
    from .tabular import bucket_groups, n_buckets

    B = n_buckets(size_bytes=ds.size_bytes())

    def add_window(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())  # epoch microseconds
        return pa.table(
            {
                "user_id": b["user_id"],
                "value": b["value"],
                "hour_bucket": us.to_numpy(zero_copy_only=False) // 3_600_000_000,
            }
        )

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["user_id", "hour_bucket"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    out = bucket_groups(
        ds.map_batches(add_window, batch_format="pyarrow"),
        "user_id",
        B,
        agg_bucket,
        {
            "user_id": pa.int64(),
            "hour_bucket": pa.int64(),
            "n_events": pa.int64(),
            "sum_value": pa.float64(),
        },
    )
    return out.map_batches(lambda b: round_col(b, "sum_value", 4), batch_format="pyarrow")


@register(
    "user_session_counts",
    sql="""
    WITH d AS (
      SELECT user_id,
             CASE WHEN LAG(ts) OVER w IS NULL
                    OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END AS new_session
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    )
    SELECT user_id, CAST(SUM(new_session) AS BIGINT) AS n_sessions
    FROM d GROUP BY user_id
    """,
)
def user_session_counts(sf_dir: str):
    """Session windows (30-min inactivity gap), the canonical stateful
    streaming op. Ordering assumption: (ts, event_id) totally orders a
    user's events.

    ONE coarse hash-bucket shuffle (a per-USER map_groups would pay the
    per-group pandas slice/convert overhead once per user — ruinous at
    10^9 users), then a fully vectorized in-bucket scan: sort the bucket
    by (user, ts, event_id) once, a session starts wherever the user
    changes or the gap exceeds 30 min, and the per-user session count is
    one value_counts over the start flags."""
    from .tabular import bucket_groups, n_buckets

    ds = read(sf_dir, "events", ["user_id", "ts", "event_id"])
    B = n_buckets(size_bytes=ds.size_bytes())

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        gap = np.empty(len(g), dtype="int64")
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        starts = new_user | (gap > 30 * 60 * 1_000_000)
        uniq, counts = np.unique(u[starts], return_counts=True)
        return pd.DataFrame({"user_id": uniq, "n_sessions": counts})

    return bucket_groups(
        ds, "user_id", B, sessions, {"user_id": pa.int64(), "n_sessions": pa.int64()}
    )


@register(
    "avg_part_price_by_brand",
    sql="""
    SELECT p_brand, ROUND(AVG(p_retailprice), 2) AS avg_price,
           COUNT(*) AS n_parts, MAX(p_size) AS max_size
    FROM part GROUP BY p_brand
    """,
)
def avg_part_price_by_brand(sf_dir: str):
    """Simple grouped aggregate over `part` (column-pruned read)."""
    from ray.data.aggregate import Count, Max, Sum

    ds = read(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"])
    out = ds.groupby("p_brand").aggregate(
        Sum("p_retailprice", alias_name="_sum"),
        Count(alias_name="n_parts"),
        Max("p_size", alias_name="max_size"),
    )

    def final(b: pa.Table) -> pa.Table:
        avg = pc.divide(b["_sum"], pc.cast(b["n_parts"], pa.float64()))
        b = b.append_column("avg_price", avg)
        b = round_col(b, "avg_price", 2)
        return b.select(["p_brand", "avg_price", "n_parts", "max_size"])

    return out.map_batches(final, batch_format="pyarrow")


@register(
    "supplier_balance_by_nation",
    sql="""
    SELECT n_name, ROUND(SUM(s_acctbal), 2) AS total_bal, COUNT(*) AS n_suppliers
    FROM supplier JOIN nation ON s_nationkey = n_nationkey
    GROUP BY n_name
    """,
)
def supplier_balance_by_nation(sf_dir: str):
    """Broadcast dimension join (nation) + grouped aggregate over supplier."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Count, Sum

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    lut_ref = ray.put(
        dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    )

    def tag(b: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        keys = b["s_nationkey"].to_pylist()
        b = b.filter(pa.array([k in lut for k in keys], pa.bool_()))  # inner join
        names = [lut[k] for k in keys if k in lut]
        return pa.Table.from_pydict(
            {"n_name": pa.array(names, pa.string()), "s_acctbal": b["s_acctbal"]}
        )

    ds = read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("s_acctbal", alias_name="total_bal"), Count(alias_name="n_suppliers"))
    )
    return out.map_batches(lambda b: round_col(b, "total_bal", 2), batch_format="pyarrow")


@register(
    "top10_customers_by_revenue",
    sql="""
    SELECT c.c_name AS c_name,
           ROUND(SUM(o.o_totalprice), 2) AS revenue,
           COUNT(*) AS n_orders
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY c.c_name
    ORDER BY revenue DESC, c_name ASC LIMIT 10
    """,
)
def top10_customers_by_revenue(sf_dir: str):
    """Join + aggregate + global top-k: orders pre-aggregated by custkey
    (partial combine before the key shuffle), then the per-customer
    aggregate joins `customer` with a BUCKETED hash join — customer is a
    fact-scale table, so broadcasting it as a driver dict (the round-1
    shape) would ship GBs to every worker at 100×; the only global step is
    the distributed sort-limit on the joined result."""
    from ray.data.aggregate import Count, Sum

    from .tabular import bucket_join, n_buckets

    ds = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    nb = n_buckets(size_bytes=ds.size_bytes() + cust.size_bytes())
    agg = ds.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="revenue"), Count(alias_name="n_orders")
    )
    # the customer side takes the orders' key name: one `on` for both sides
    named = cust.map_batches(
        lambda b: b.rename_columns(["o_custkey", "c_name"]), batch_format="pyarrow"
    )
    joined = bucket_join(
        (agg, {"o_custkey": pa.int64(), "revenue": pa.float64(), "n_orders": pa.int64()}),
        (named, {"o_custkey": pa.int64(), "c_name": pa.string()}),
        "o_custkey",
        nb,
        lambda a, c: a.merge(c, on="o_custkey"),
        {"c_name": pa.string(), "revenue": pa.float64(), "n_orders": pa.int64()},
    )
    return (
        joined.map_batches(lambda b: round_col(b, "revenue", 2), batch_format="pyarrow")
        .sort(["revenue", "c_name"], descending=[True, False])
        .limit(10)
    )


RANGE_W_US = 6 * 3600 * 1_000_000  # 6-hour interval, in timestamp micros


@register(
    "clicks_near_purchase",
    sql="""
    SELECT c.event_id AS click_id,
           p.event_id AS purchase_id,
           c.user_id
    FROM events c
    JOIN events p
      ON c.user_id = p.user_id
     AND p.event_type = 'purchase'
     AND c.event_type = 'click'
     AND c.ts <= p.ts
     AND c.ts >= p.ts - INTERVAL 6 HOUR
    """,
)
def clicks_near_purchase(sf_dir: str):
    """RANGE (interval) join — the operator Ray Data lacks natively: every
    (click, purchase) pair of the same user with the click inside the 6 h
    window before the purchase.

    Distributed shape: bin both sides by floor(ts / W) where W IS the
    window. A qualifying click can only sit in the purchase's own bin or
    the one before, so purchases replicate to (bin, bin-1) — a fixed 2×
    replication of the SMALLER side, never a cross product — and ONE
    groupby on (bin, user-bucket) co-locates every candidate pair; the
    exact interval predicate evaluates vectorized inside the group. Each
    qualifying pair materializes in exactly one group (the click's bin), so
    no dedup pass is needed. Partitioning assumption: time bins × user
    hash spread load; a hot (bin, user) pair would be salted further by an
    orthogonal-key sub-hash, as events_rollup does for its hot type keys."""
    from .tabular import n_buckets

    ds = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    B = n_buckets(size_bytes=ds.size_bytes())

    def prep(b: pa.Table) -> pa.Table:
        is_c = pc.equal(b["event_type"], "click")
        is_p = pc.equal(b["event_type"], "purchase")
        keep = b.filter(pc.or_(is_c, is_p))
        ts = pc.cast(keep["ts"], pa.int64())
        bin0 = pc.cast(pc.divide(ts, pa.scalar(RANGE_W_US)), pa.int64())
        side = pc.if_else(
            pc.equal(keep["event_type"], "click"), pa.scalar("c"), pa.scalar("p")
        )
        base = pa.Table.from_pydict(
            {
                "bin": bin0,
                "ubucket": pc.cast(
                    pc.bit_wise_and(keep["user_id"], pa.scalar(B - 1)), pa.int64()
                ),
                "side": side,
                "event_id": keep["event_id"],
                "user_id": keep["user_id"],
                "ts_us": ts,
            }
        )
        # purchases also visit the PREVIOUS bin (their window can reach into it)
        p_rows = base.filter(pc.equal(base["side"], "p"))
        replica = p_rows.set_column(
            0, "bin", pc.subtract(p_rows["bin"], pa.scalar(1))
        )
        return pa.concat_tables([base, replica])

    def join_bin(g: pd.DataFrame) -> pd.DataFrame:
        bin_no = int(g["bin"].iloc[0])
        c = g[g["side"] == "c"]
        # a click only ever lives in its own bin — replicas are purchases
        c = c[(c["ts_us"] // RANGE_W_US) == bin_no]
        p = g[g["side"] == "p"]
        if len(c) == 0 or len(p) == 0:
            return pd.DataFrame(
                {"click_id": pd.Series([], dtype="int64"),
                 "purchase_id": pd.Series([], dtype="int64"),
                 "user_id": pd.Series([], dtype="int64")}
            )
        m = c.merge(p, on="user_id", suffixes=("_c", "_p"))
        ok = (m["ts_us_c"] <= m["ts_us_p"]) & (m["ts_us_c"] >= m["ts_us_p"] - RANGE_W_US)
        m = m[ok]
        return pd.DataFrame(
            {
                "click_id": m["event_id_c"].astype("int64"),
                "purchase_id": m["event_id_p"].astype("int64"),
                "user_id": m["user_id"].astype("int64"),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["bin", "ubucket"])
        .map_groups(join_bin, batch_format="pandas")
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


@register(
    "events_type_day_pivot",
    sql="""
    SELECT strftime(ts, '%Y-%m-%d') AS day,
           COUNT(*) FILTER (event_type = 'click')    AS n_click,
           COUNT(*) FILTER (event_type = 'error')    AS n_error,
           COUNT(*) FILTER (event_type = 'purchase') AS n_purchase,
           COUNT(*) FILTER (event_type = 'signup')   AS n_signup,
           COUNT(*) FILTER (event_type = 'view')     AS n_view
    FROM events GROUP BY day
    """,
)
def events_type_day_pivot(sf_dir: str):
    """PIVOT (wide aggregate): per-day event counts spread into one column
    per event type. Each batch folds to a ≤days×5 crosstab partial (map-side
    combine), then one small groupby sums the fixed columns — the shuffle
    carries O(days × types) ints regardless of corpus size."""
    from ray.data.aggregate import Sum

    from .tabular import from_pandas_clean

    ds = read(sf_dir, "events", ["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str

        day = pd.Series(day_str(b["ts"]), name="day")
        ct = pd.crosstab(day, b["event_type"].reset_index(drop=True))
        out = pd.DataFrame({"day": ct.index.astype(str)})
        for t in EVENT_TYPES:
            out[f"p_{t}"] = (
                ct[t].to_numpy() if t in ct.columns else np.zeros(len(ct), dtype=np.int64)
            ).astype("int64")
        return from_pandas_clean(out)

    out = (
        ds.map_batches(partial, batch_format="pandas", batch_size=256 * 1024)
        .groupby("day")
        .aggregate(*[Sum(f"p_{t}", alias_name=f"n_{t}") for t in EVENT_TYPES])
    )
    return out


@register(
    "events_window_funcs",
    sql="""
    SELECT event_id, user_id,
           lag(value) OVER w AS prev_value,
           MAX(value) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
           ) AS max3
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
)
def events_window_funcs(sf_dir: str):
    """Per-row window functions — the LAG / sliding-frame family the
    tumbling (`hourly_user_windows`) and session (`user_session_counts`)
    ops don't cover: per user ordered by (ts, event_id), the previous
    event's value and the 3-row sliding max. Both are ORDER-INDEPENDENT in
    float (lag copies a value; max compares — no summation-order flake, cf.
    the revenue_by_priority lesson). Users are hash-bucketed COARSELY
    (data-aware bucket count) so the exchange moves each row once and no
    task ever holds more than ~1/B of the table; inside a bucket the scan
    is one vectorized pandas groupby(shift / rolling-max), not per-user
    Python."""
    from .tabular import bucket_groups, n_buckets

    ds = read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    nb = n_buckets(size_bytes=ds.size_bytes())

    def windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)["value"]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "prev_value": grp.shift(1).to_numpy(),
                "max3": grp.rolling(3, min_periods=1).max().to_numpy(),
            }
        )

    return bucket_groups(
        ds,
        "user_id",
        nb,
        windows,
        {
            "event_id": pa.int64(),
            "user_id": pa.int64(),
            "prev_value": pa.float64(),
            "max3": pa.float64(),
        },
    )


@register(
    "customers_without_orders",
    sql="""
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                            WHERE o_orderpriority = '1-URGENT')
    """,
)
def customers_without_orders(sf_dir: str):
    """ANTI JOIN — the join family's missing shape (inner: revenue_by_
    priority; broadcast: customers_per_region; as-of / range: the click
    ops): customers with no URGENT order (every customer has SOME order in
    this corpus, so the probe side carries a predicate to keep the result
    non-trivial). One `tabular.bucket_join` by custkey (see
    `_urgent_join`): no broadcast of either side, so the same plan holds
    when both tables are corpus-sized."""
    return _urgent_join(sf_dir, matched=False)


@register(
    "customers_with_urgent_orders",
    sql="""
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
    """,
)
def customers_with_urgent_orders(sf_dir: str):
    """SEMI JOIN — the join family's last shape (inner / broadcast / as-of /
    range / anti are elsewhere): customers having ≥1 URGENT order, each
    emitted ONCE no matter how many orders match (the semi-vs-inner
    distinction). The same `tabular.bucket_join` as
    `customers_without_orders` (`_urgent_join`) — only the verdict polarity
    differs."""
    return _urgent_join(sf_dir, matched=True)


CUSTOMER_NAME = {"c_custkey": pa.int64(), "c_name": pa.string()}


def _urgent_join(sf_dir: str, matched: bool):
    """The anti (``matched=False``) / semi (``matched=True``) join of
    customers against URGENT orders, through `tabular.bucket_join`: the
    probe side is pre-shrunk by a per-batch DISTINCT (map-side combine —
    the shuffle carries unique keys per batch, not one row per order) and
    the per-bucket verdict is one vectorized ``isin``."""
    from .tabular import bucket_join, n_buckets

    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    nb = n_buckets(size_bytes=cust.size_bytes() + orders.size_bytes())

    def urgent_keys(b: pa.Table) -> pa.Table:
        urgent = b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
        return pa.table({"c_custkey": pc.unique(urgent["o_custkey"])})

    return bucket_join(
        (cust, CUSTOMER_NAME),
        (orders.map_batches(urgent_keys, batch_format="pyarrow"), {"c_custkey": pa.int64()}),
        "c_custkey",
        nb,
        lambda c, o: c[c["c_custkey"].isin(o["c_custkey"]) == matched],
        CUSTOMER_NAME,
    )


@register(
    "top3_docs_by_source",
    sql="""
    SELECT source, doc_id, n_chars FROM (
      SELECT source, doc_id, n_chars,
             ROW_NUMBER() OVER (PARTITION BY source
                                ORDER BY n_chars DESC, doc_id ASC) AS rn
      FROM documents) WHERE rn <= 3
    """,
)
def top3_docs_by_source(sf_dir: str):
    """Per-key top-k with a MAP-SIDE COMBINER — the scale shape the plain
    ``groupby(key).map_groups(sort + head)`` (top3_by_event_type) lacks:
    that one materializes a WHOLE group per task, fatal when one key is a
    100-TB slice. Here every batch folds to its local per-source top-3
    first, so the exchange carries ≤ 3 × sources rows per batch and the
    final per-source merge sees ≤ 3 × batches candidates, never the
    corpus."""
    ds = read(sf_dir, "documents", ["source", "doc_id", "n_chars"])

    def local_topk(b: pd.DataFrame) -> pa.Table:
        from .tabular import from_pandas_clean

        t = (
            b.sort_values(["n_chars", "doc_id"], ascending=[False, True],
                          kind="mergesort")
            .groupby("source", sort=False)
            .head(3)
        )
        return from_pandas_clean(t[["source", "doc_id", "n_chars"]])

    def merge_topk(g: pd.DataFrame) -> pa.Table:
        t = g.sort_values(["n_chars", "doc_id"], ascending=[False, True],
                          kind="mergesort").head(3)
        return pa.Table.from_pydict(
            {
                "source": pa.array(t["source"].astype(str).to_numpy()
                                   if len(t) else [], pa.string()),
                "doc_id": pa.array(t["doc_id"].to_numpy(np.int64), pa.int64()),
                "n_chars": pa.array(t["n_chars"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(local_topk, batch_format="pandas")
        .groupby("source")
        .map_groups(merge_topk, batch_format="pandas")
    )


@register(
    "user_funnel_counts",
    sql="""
    WITH v AS (SELECT user_id, MIN(ts) AS tv FROM events
               WHERE event_type = 'view' GROUP BY user_id),
    c AS (SELECT e.user_id, MIN(e.ts) AS tc FROM events e JOIN v USING (user_id)
          WHERE e.event_type = 'click' AND e.ts >= v.tv GROUP BY e.user_id),
    p AS (SELECT e.user_id, MIN(e.ts) AS tp FROM events e JOIN c USING (user_id)
          WHERE e.event_type = 'purchase' AND e.ts >= c.tc GROUP BY e.user_id)
    SELECT CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_view,
           CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_view_click,
           CAST((SELECT COUNT(*) FROM p) AS BIGINT) AS n_view_click_buy
    """,
)
def user_funnel_counts(sf_dir: str):
    """Conversion funnel (view → click → purchase, time-ordered per user) —
    the canonical behavioral-analytics shape: how many users viewed, then
    clicked AT OR AFTER their first view, then purchased at or after that
    first qualifying click.

    ONE user-hash shuffle: the map side prunes to the three funnel types
    and projects (user, type_code, ts); every user's rows co-locate,
    so the in-bucket scan is three vectorized merge+filter+min passes (no
    per-user Python), and each bucket emits ONE partial-count row — the
    final exchange sums ≤B rows."""
    from ray.data.aggregate import Sum

    from .tabular import bucket_groups, n_buckets

    ds = read(sf_dir, "events", ["user_id", "event_type", "ts"])
    B = n_buckets(size_bytes=ds.size_bytes())
    CODES = {"view": 0, "click": 1, "purchase": 2}

    def prep(b: pd.DataFrame) -> pa.Table:
        m = b["event_type"].isin(CODES)
        b = b[m]
        code = b["event_type"].map(CODES).to_numpy(np.int64)
        u = b["user_id"].to_numpy(np.int64)
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(u, pa.int64()),
                "code": pa.array(code, pa.int64()),
                "ts": pa.array(
                    b["ts"].to_numpy().astype("datetime64[us]").astype("int64"),
                    pa.int64(),
                ),
            }
        )

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        v = g.loc[g["code"] == 0].groupby("user_id")["ts"].min().rename("tv")
        c_all = g.loc[g["code"] == 1].merge(v, on="user_id")
        c = c_all.loc[c_all["ts"] >= c_all["tv"]].groupby("user_id")["ts"].min().rename("tc")
        p_all = g.loc[g["code"] == 2].merge(c, on="user_id")
        p = p_all.loc[p_all["ts"] >= p_all["tc"]].groupby("user_id")["ts"].min()
        return pd.DataFrame({"p_view": [len(v)], "p_click": [len(c)], "p_buy": [len(p)]})

    counts = {"p_view": pa.int64(), "p_click": pa.int64(), "p_buy": pa.int64()}
    row = (
        bucket_groups(ds.map_batches(prep, batch_format="pandas"), "user_id", B, funnel, counts)
        .aggregate(  # global fold of ≤B one-row partials → a dict row
            Sum("p_view", alias_name="n_view"),
            Sum("p_click", alias_name="n_view_click"),
            Sum("p_buy", alias_name="n_view_click_buy"),
        )
    )
    return pa.Table.from_pydict(
        {
            "n_view": pa.array([int(row["n_view"] or 0)], pa.int64()),
            "n_view_click": pa.array([int(row["n_view_click"] or 0)], pa.int64()),
            "n_view_click_buy": pa.array(
                [int(row["n_view_click_buy"] or 0)], pa.int64()
            ),
        }
    )


@register(
    "customer_order_counts",
    sql="""
    SELECT c_custkey, c_name,
           CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
    FROM customer LEFT JOIN orders ON o_custkey = c_custkey
    GROUP BY c_custkey, c_name
    """,
)
def customer_order_counts(sf_dir: str):
    """LEFT OUTER JOIN + zero-fill aggregate — the join family's outer
    shape (inner / broadcast / as-of / range / anti / semi are elsewhere):
    every customer with their order count, INCLUDING the zero-order
    customers an inner join would drop. One `tabular.bucket_join` by
    custkey, like the anti/semi pair: the probe side folds to per-batch
    (custkey, n) count partials (map-side combine — the shuffle carries one
    row per distinct key per batch, not one per order), and the per-bucket
    fold is one vectorized partial sum + left merge with fillna(0)."""
    from .tabular import bucket_join, n_buckets

    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = read(sf_dir, "orders", ["o_custkey"])
    nb = n_buckets(size_bytes=cust.size_bytes() + orders.size_bytes())

    def order_counts(b: pa.Table) -> pa.Table:
        vc = b["o_custkey"].combine_chunks().value_counts()
        return pa.table({"c_custkey": vc.field("values"), "pn": vc.field("counts")})

    def outer(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        cnt = o.groupby("c_custkey", as_index=False)["pn"].sum()
        m = c.merge(cnt, on="c_custkey", how="left")
        m["n_orders"] = m["pn"].fillna(0)
        return m

    return bucket_join(
        (cust, CUSTOMER_NAME),
        (
            orders.map_batches(order_counts, batch_format="pyarrow"),
            {"c_custkey": pa.int64(), "pn": pa.int64()},
        ),
        "c_custkey",
        nb,
        outer,
        {**CUSTOMER_NAME, "n_orders": pa.int64()},
    )


@register(
    "events_rollup",
    sql="""
    WITH base AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, user_id
                  FROM events)
    SELECT COALESCE(event_type, 'ALL') AS event_type,
           COALESCE(day, 'ALL') AS day,
           COUNT(*) AS n_events,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
    FROM base
    GROUP BY ROLLUP (event_type, day)
    """,
)
def events_rollup(sf_dir: str):
    """ROLLUP / grouping-sets aggregate — (type, day), (type), () levels in
    one result, each with an event count AND a distinct-user count (the
    aggregate that is NOT summable from finer levels). Single-exchange plan:
    because n_users = COUNT(DISTINCT user_id), partitioning by hash(user)
    makes every level's distinct-user count exact WITHIN a partition and
    SUMMABLE across partitions (each user lives in exactly one). So: one
    map-side (type, day, user) count partial, ONE shuffle on the user
    bucket, all three rollup levels computed vectorized per partition, then
    a tiny keyed sum over ≤ types×days + types + 1 rows. (A previous
    version shuffled five times — triples, pairs, and once per level — and
    was ~7× slower at sf0.1; the rollup itself never needs events
    co-located by (type, day), only by user.)"""
    from ray.data.aggregate import Sum

    from .tabular import bucket_groups, from_pandas_clean, n_buckets

    ds = read(sf_dir, "events", ["ts", "event_type", "user_id"])
    B = n_buckets(size_bytes=ds.size_bytes())

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str

        c = (
            pd.DataFrame(
                {
                    "event_type": b["event_type"].to_numpy(),
                    "day": day_str(b["ts"]),
                    "user_id": b["user_id"].to_numpy(),
                }
            )
            .groupby(["event_type", "day", "user_id"], sort=False)
            .size()
            .rename("pn")
            .reset_index()
        )
        return from_pandas_clean(c)

    def rollup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # g holds ALL rows of its users
        t = (
            g.groupby(["event_type", "day", "user_id"], sort=False)["pn"]
            .sum()
            .reset_index()
        )
        lvl2 = (
            t.groupby(["event_type", "day"], sort=False)
            .agg(pe=("pn", "sum"), pu=("user_id", "nunique"))
            .reset_index()
        )
        p = t.groupby(["event_type", "user_id"], sort=False)["pn"].sum().reset_index()
        lvl1 = (
            p.groupby("event_type", sort=False)
            .agg(pe=("pn", "sum"), pu=("user_id", "nunique"))
            .reset_index()
        )
        lvl1["day"] = "ALL"
        lvl0 = pd.DataFrame(
            {
                "event_type": ["ALL"],
                "day": ["ALL"],
                "pe": [int(t["pn"].sum())],
                "pu": [int(t["user_id"].nunique())],
            }
        )
        return pd.concat(
            [lvl2, lvl1[["event_type", "day", "pe", "pu"]], lvl0], ignore_index=True
        )

    def final(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": b["event_type"],
                "day": b["day"],
                "n_events": pc.cast(b["n_events"], pa.int64()),
                "n_users": pc.cast(b["n_users"], pa.int64()),
            }
        )

    levels = {"event_type": pa.string(), "day": pa.string(), "pe": pa.int64(), "pu": pa.int64()}
    return (
        bucket_groups(
            ds.map_batches(partial, batch_format="pandas"), "user_id", B, rollup_bucket, levels
        )
        .groupby(["event_type", "day"])
        .aggregate(Sum("pe", alias_name="n_events"), Sum("pu", alias_name="n_users"))
        .map_batches(final, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# FULL OUTER join — the join family's last shape (inner / broadcast / as-of /
# range / anti / semi / left-outer live elsewhere in this module)
# ---------------------------------------------------------------------------

FULL_OUTER_SEGMENT = "BUILDING"


@register(
    "user_activity_full",
    sql=f"""
    WITH ev AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events
                FROM events GROUP BY user_id),
    cu AS (SELECT c_custkey, c_acctbal FROM customer
           WHERE c_mktsegment = '{FULL_OUTER_SEGMENT}')
    SELECT COALESCE(ev.user_id, cu.c_custkey) AS ukey,
           CAST(COALESCE(ev.n_events, 0) AS BIGINT) AS n_events,
           cu.c_acctbal AS acctbal,
           (ev.user_id IS NOT NULL) AS has_events,
           (cu.c_custkey IS NOT NULL) AS is_customer
    FROM ev FULL OUTER JOIN cu ON ev.user_id = cu.c_custkey
    """,
)
def user_activity_full(sf_dir: str):
    """FULL OUTER JOIN: per-user event counts against one customer segment
    — keys unmatched on EITHER side survive (active non-segment users keep
    a NULL acctbal; segment customers with no events keep a zero count),
    which neither the inner nor either one-sided outer shape can produce.
    One `tabular.bucket_join` by key, like the left-outer/anti/semi family:
    the event side folds to per-batch (key, n) count partials, and the
    per-bucket fold is one vectorized partial sum + OUTER merge with an
    indicator for the two presence flags."""
    from .tabular import bucket_join, n_buckets

    ev = read(sf_dir, "events", ["user_id"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])
    nb = n_buckets(size_bytes=ev.size_bytes() + cust.size_bytes())

    def ev_counts(b: pa.Table) -> pa.Table:
        vc = b["user_id"].combine_chunks().value_counts()
        return pa.table({"ukey": vc.field("values"), "pn": vc.field("counts")})

    def segment(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["c_mktsegment"], FULL_OUTER_SEGMENT))
        return pa.table({"ukey": b["c_custkey"], "acctbal": b["c_acctbal"]})

    def outer(e: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        evp = e.groupby("ukey", as_index=False)["pn"].sum()
        m = evp.merge(c, on="ukey", how="outer", indicator=True)
        m["n_events"] = m["pn"].fillna(0)
        m["has_events"] = m["_merge"] != "right_only"
        m["is_customer"] = m["_merge"] != "left_only"
        return m  # acctbal's NaN fill for non-customers casts to SQL NULL

    return bucket_join(
        (ev.map_batches(ev_counts, batch_format="pyarrow"), {"ukey": pa.int64(), "pn": pa.int64()}),
        (
            cust.map_batches(segment, batch_format="pyarrow"),
            {"ukey": pa.int64(), "acctbal": pa.float64()},
        ),
        "ukey",
        nb,
        outer,
        {
            "ukey": pa.int64(),
            "n_events": pa.int64(),
            "acctbal": pa.float64(),
            "has_events": pa.bool_(),
            "is_customer": pa.bool_(),
        },
    )


# ---------------------------------------------------------------------------
# calendar RANGE-frame moving aggregate (the time-window family member the
# ROWS-frame `events_window_funcs` doesn't cover)
# ---------------------------------------------------------------------------


@register(
    "daily_events_7d_ma",
    sql="""
    WITH d AS (SELECT CAST(ts AS DATE) AS dd, CAST(COUNT(*) AS BIGINT) AS n
               FROM events GROUP BY dd)
    SELECT CAST(dd AS VARCHAR) AS day, n,
           ROUND(AVG(CAST(n AS DOUBLE)) OVER (
             ORDER BY dd RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW
           ), 4) AS ma7
    FROM d
    """,
)
def daily_events_7d_ma(sf_dir: str):
    """7-day CALENDAR moving average of the daily event count — a RANGE
    (interval) frame, which averages over the days that EXIST within
    [day−6, day], not over 7 physical rows: gaps in the calendar shrink the
    divisor, the semantics a ROWS frame gets wrong. Distributed shape:
    per-batch (day, n) count partials → one tiny groupby → the O(days)
    daily series (small BY CONSTRUCTION at any corpus scale — aggregation
    reduces 10^10 rows to ~10^3 days) → vectorized prefix-sum +
    searchsorted window on the driver, the `pack_sequences` O(K)-driver
    pattern."""
    from ray.data.aggregate import Sum

    ds = read(sf_dir, "events", ["ts"])

    def partial(b: pd.DataFrame) -> pa.Table:
        from .tabular import day_str, from_pandas_clean

        vc = pd.Series(day_str(b["ts"])).value_counts()
        return from_pandas_clean(
            pd.DataFrame(
                {"day": vc.index.to_numpy(), "pn": vc.to_numpy().astype("int64")}
            )
        )

    daily = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()  # O(days) rows — the series is small by construction
        .sort_values("day")
    )
    days = daily["day"].to_numpy()
    n = daily["n"].to_numpy().astype(np.int64)
    ords = np.array(days, dtype="datetime64[D]").astype(np.int64)
    lo = np.searchsorted(ords, ords - 6, side="left")
    csum = np.concatenate([[0], np.cumsum(n)])
    idx = np.arange(len(n), dtype=np.int64)
    ma = (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)
    from .tabular import round_col

    return round_col(
        pa.table(
            {
                "day": pa.array(days, pa.string()),
                "n": pa.array(n, pa.int64()),
                "ma7": pa.array(ma, pa.float64()),
            }
        ),
        "ma7",
        4,
    )
