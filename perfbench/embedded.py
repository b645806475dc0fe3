"""The ``embedded`` workload: the library in this process, no server.

A 500k-key ``ShardedEmbedder`` (default config, 8 shards, L = 16,
capacity = resident keys) is built with ``bulk_load``. Each round of the
timed phase is one ``lookup_batch`` of 4096 keys drawn uniformly from keys
no write touches, then 8 single-key ``insert``s of fresh keys, 8
``update``s and 8 ``delete``s of the keys inserted ``DELETE_LAG`` rounds
earlier, so the table size holds steady.

The table is built ``PARTS`` times; each build is timed as one set-up and
then serves one part of the timed phase, so the measured work is spread
over the whole run instead of its last seconds.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench import inputs, trace
from perfbench.common import (
    Tally, median, metric, now, quantile, rss_bytes,
)

RESIDENT = 500_000
LOOKUP_KEYS = 4096
WRITES = 8
#: Rounds between a key's insert and its delete.
DELETE_LAG = 4
#: Keys the updates draw from; lookups never touch them. Large, so its mix
#: of short changes and long repair walks matches the whole table's.
UPDATE_POOL = 65536
#: Timed rounds per ``--seconds``: sized so the phase lasts about that
#: long at the seed commit on a 2-core Xeon VM. A fixed count, not a
#: clock, ends the phase, so every run does the same work.
ROUNDS_PER_SECOND = 200
#: Builds per run: each is one set-up sample and one part of the phase.
PARTS = 3
_COUNTERS = ("updates", "repair_steps", "cost_cache_hits",
             "cost_cache_misses", "reconstructions")


def run(seed: int, seconds: int, recorder: Optional[trace.Recorder] = None,
        resident: int = RESIDENT) -> Dict[str, Any]:
    """One pass; spans land in ``recorder`` when tracing is installed."""
    rounds = max(1, int(seconds * ROUNDS_PER_SECOND) // PARTS)
    keys, vals = inputs.resident_pairs(resident, seed)
    update_pool = min(UPDATE_POOL, resident // 4)
    lookup_keys = keys[update_pool:]
    lookup_vals = vals[update_pool:]
    fresh = inputs.fresh_keys(WRITES * (rounds + DELETE_LAG), keys, seed)
    fresh_list = fresh.tolist()
    pairs = list(zip(keys.tolist(), vals.tolist()))
    tally = Tally()
    setup_times: List[float] = []
    rss_growth: List[float] = []
    samples: Dict[str, List[float]] = {
        "lookup": [], "insert": [], "update": [], "delete": []}
    windows = []
    deltas = dict.fromkeys(_COUNTERS, 0.0)

    gc.collect()
    rss_before = rss_bytes()
    table: Any = None
    for part in range(PARTS):
        rng = np.random.default_rng([seed, part, 0xE3BEDDED])
        fresh_vals = inputs.values(rng, fresh.size).tolist()
        table = None
        gc.collect()
        # Set-up: construction and bulk load, to the first correct answer.
        started = now()
        table = inputs.build_table(pairs)
        first = table.lookup_batch(keys[:64])
        setup_times.append(now() - started)
        tally.check(bool(np.array_equal(first, vals[:64])),
                    "set-up lookup returned wrong values")

        # Warm-up inserts, so the first timed round has keys to delete.
        for i in range(WRITES * DELETE_LAG):
            table.insert(fresh_list[i], fresh_vals[i])
        expected = dict(zip(keys[:update_pool].tolist(),
                            vals[:update_pool].tolist()))
        before = _counters(table)
        start = now()
        for r in range(rounds):
            picks = rng.integers(0, lookup_keys.size, size=LOOKUP_KEYS)
            query = lookup_keys[picks]
            started = now()
            answer = table.lookup_batch(query)
            samples["lookup"].append(1e3 * (now() - started))
            tally.check(bool(np.array_equal(answer, lookup_vals[picks])),
                        f"lookup_batch round {r} returned wrong values")
            base = WRITES * (r + DELETE_LAG)
            _writes(table.insert, [(fresh_list[i], fresh_vals[i])
                                   for i in range(base, base + WRITES)],
                    samples["insert"], tally)
            updates = [(int(keys[pick]), int(value)) for pick, value in zip(
                rng.integers(0, update_pool, size=WRITES),
                inputs.values(rng, WRITES))]
            done = _writes(table.update, updates, samples["update"], tally)
            expected.update(u for u, ok in zip(updates, done) if ok)
            _writes(table.delete, [(fresh_list[i],) for i in range(
                base - WRITES * DELETE_LAG, base - WRITES * (DELETE_LAG - 1))],
                samples["delete"], tally)
        windows.append((start, now()))
        after = _counters(table)
        for name in _COUNTERS:
            deltas[name] += after[name] - before[name]

        # Read back the whole resident set plus the live inserts.
        live = slice(WRITES * rounds, WRITES * (rounds + DELETE_LAG))
        all_keys = np.concatenate([keys, fresh[live]])
        want = np.concatenate(
            [vals, np.asarray(fresh_vals[live], dtype=np.uint64)])
        want[:update_pool] = [expected[k] for k in keys[:update_pool].tolist()]
        for lo in range(0, all_keys.size, 65536):
            got = table.lookup_batch(all_keys[lo:lo + 65536])
            tally.check(bool(np.array_equal(got, want[lo:lo + 65536])),
                        f"read-back mismatch in keys {lo}..{lo + 65536}")
        tally.check(len(table) == all_keys.size,
                    f"table holds {len(table)} keys, expected "
                    f"{all_keys.size}")
        rss_growth.append(rss_bytes() - rss_before)

    timed = sum(end - start for start, end in windows)
    e2e = {
        "setup_s": metric(median(setup_times), "s"),
        "rss_mb": metric(median(rss_growth) / 1e6, "MB"),
        "bits_per_key": metric(table.space_bits / len(table), "bits"),
        "kops": metric(PARTS * rounds * (LOOKUP_KEYS + 3 * WRITES)
                       / timed / 1e3, "kops"),
        "lookup_p50_ms": metric(quantile(samples["lookup"], 0.5), "ms"),
        "lookup_p90_ms": metric(quantile(samples["lookup"], 0.9), "ms"),
    }
    for kind in ("update", "insert", "delete"):
        e2e[f"{kind}_p50_ms"] = metric(quantile(samples[kind], 0.5), "ms")
    counts = _ratios(deltas)
    layers = None
    if recorder is not None:
        layers = trace.layer_metrics([recorder.dump()], windows, {}, counts)
    return {
        "tally": tally, "e2e": e2e, "layers": layers,
        "diagnostics": {
            "workload": "embedded", "resident_keys": resident,
            "plane_bytes": 8 * table.num_cells, "rounds": PARTS * rounds,
            "phase_s": timed, "setup_s_each": setup_times,
            "rss_mb_each": [g / 1e6 for g in rss_growth],
            "samples": {k: len(v) for k, v in samples.items()},
            "counts": counts,
        },
    }


def _writes(call: Any, calls: List[tuple], samples: List[float],
            tally: Tally) -> List[bool]:
    """Run one round's single-key writes of one kind; the sample is their
    mean time per call. One call's latency is bimodal (a short change or a
    repair walk) with its median at the cliff between the modes, so a
    one-call p50 swings with a percent of mix; the round's mean, like a
    served 16-key request, does not. A raise counts as a failed operation.
    """
    done = []
    started = now()
    for args in calls:
        try:
            call(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            tally.fail(f"{call.__name__}{args!r} raised {exc!r}")
            done.append(False)
        else:
            tally.ok()
            done.append(True)
    samples.append(1e3 * (now() - started) / len(calls))
    return done


def _counters(table: Any) -> Dict[str, float]:
    stats = table.stats
    return {name: float(getattr(stats, name)) for name in _COUNTERS}


def _ratios(d: Dict[str, float]) -> Dict[str, float]:
    """The layer metrics' counter ratios over the timed phase."""
    probes = d["cost_cache_hits"] + d["cost_cache_misses"]
    return {
        "repair_steps_per_update":
            d["repair_steps"] / d["updates"] if d["updates"] else 0.0,
        "cost_cache_hit_rate":
            d["cost_cache_hits"] / probes if probes else 0.0,
        "reconstructions": d["reconstructions"],
    }
