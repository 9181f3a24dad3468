"""Per-layer split of one traced op.

Span layers come from each process's Chrome trace (`--trace-out`): the
self time of a span is its duration minus the part its child spans on the
same thread cover, summed per layer over every thread of every process.
Layers without spans (store, graph, journal, CLI start) are timed from
outside by perfbench_probe on the op's own store, journal and shape. All
of it is joined with the registry counters of every process
(`--metrics-out`).

For span layers, time_s is self time summed over threads and wall_share
is the share of the op's wall time during which the layer is the innermost
open span on at least one thread. For probe layers, time_s is the probe's
single-threaded re-measurement and wall_share is time_s over the op's wall
time; store publishes hold one store-wide lock, so for store.write that is
also the share of wall time with a publish in flight. Span self times still
include the un-spanned store and graph calls made inside those spans, so
shares overlap and need not sum to 1.
"""

from collections import defaultdict

# Span-name prefix -> module (layer) name.
SPAN_LAYERS = {
    "sim": "sim",
    "kernels": "kernels",
    "campaign": "core",
    "report": "core",
    "analysis": "analysis",
    "replay": "replay",
}

# Table order; "source" says where a row's time comes from. "glue" rows are
# span layers whose self time also holds waits on the thread pool and the
# un-spanned store and graph work done inside their spans.
TABLE = [
    ("cli", "probe"),
    ("core", "glue"),
    ("sim", "spans"),
    ("graph", "probe"),
    ("kernels", "spans"),
    ("analysis", "glue"),
    ("replay", "glue"),
    ("store.write", "probe"),
    ("store.read", "probe"),
    ("journal", "probe"),
    ("net", "counters"),
]


def span_layer(name):
    return SPAN_LAYERS.get(name.split(".", 1)[0], "other")


def exclusive_spans(events):
    """(name, dur_us, exclusive intervals) for every complete ("X") event.

    A span's exclusive intervals are the parts of it that no child span on
    the same thread covers; their total length is the span's self time."""
    by_thread = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            by_thread[event["tid"]].append(event)
    spans = []
    for thread_events in by_thread.values():
        thread_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_spans = []  # [name, start, end, child intervals]
        for event in thread_events:
            span = [event["name"], event["ts"], event["ts"] + event["dur"], []]
            while open_spans and open_spans[-1][2] <= span[1]:
                open_spans.pop()
            if open_spans:
                open_spans[-1][3].append((span[1], span[2]))
            open_spans.append(span)
            spans.append(span)
    result = []
    for name, start, end, children in spans:
        gaps, cursor = [], start
        for lo, hi in children:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if end > cursor:
            gaps.append((cursor, end))
        result.append((name, end - start, gaps))
    return result


def union_us(intervals):
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def summed_counters(processes):
    counters = defaultdict(float)
    for process in processes:
        for name, value in process["metrics"].get("counters", {}).items():
            counters[name] += value
    return counters


def attribute(op):
    """Per-layer metrics and table rows of one traced op.

    `op` holds: wall_s; processes, each {"trace": events, "metrics": doc,
    "offset_s": spawn time relative to the op's start, "role": name};
    probe, the merged perfbench_probe results; rounds (bisect only);
    cli_start_ms.
    """
    wall_s = op["wall_s"]
    probe = op["probe"]
    counters = summed_counters(op["processes"])
    c = lambda name: counters.get(name, 0.0)  # noqa: E731

    self_s = defaultdict(float)
    total_s = defaultdict(float)
    intervals = defaultdict(list)
    for process in op["processes"]:
        offset_us = process["offset_s"] * 1e6
        for name, dur, gaps in exclusive_spans(process["trace"]):
            layer = span_layer(name)
            self_s[layer] += sum(hi - lo for lo, hi in gaps) / 1e6
            total_s[name] += dur / 1e6
            intervals[layer] += [(offset_us + lo, offset_us + hi) for lo, hi in gaps]
    wall_share = {
        layer: union_us(spans) / 1e6 / wall_s for layer, spans in intervals.items()
    }

    runs = c("sim.engine.runs")
    calls = c("sim.engine.calls")
    candidates = c("replay.bisect_candidates")
    hits = c("store.hits")
    lookups = hits + c("store.misses")
    scheduler = next(
        (p["metrics"] for p in op["processes"] if p["role"] == "serve"), {}
    )
    unit_ms = scheduler.get("histograms", {}).get("net.unit_ms", {})
    get_ms = probe["load_ms_per_object"] * hits
    build_ms = probe["build_ms"] * runs

    metrics = {
        "sim.runs": runs,
        "sim.mpi_calls": calls,
        "sim.thread_s": self_s["sim"],
        "sim.us_per_call": self_s["sim"] * 1e6 / calls if calls else 0.0,
        "sim.wall_share": wall_share.get("sim", 0.0),
        "graph.builds": runs,
        "graph.build_ms": build_ms,
        "kernels.features": c("kernels.wl.feature_extractions"),
        "kernels.distances": c("kernels.distances_computed"),
        "kernels.thread_s": self_s["kernels"],
        "store.objects_written": probe["objects_written"],
        "store.bytes_written": c("store.bytes_written"),
        "store.index_writes": probe["index_writes"],
        "store.index_kb": probe["index_kb"],
        "store.put_ms": probe["put_ms"],
        "store.hits": hits,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.bytes_read": c("store.bytes_read"),
        "store.get_ms": get_ms,
        "store.open_ms": probe["open_ms"],
        "core.units": c("resilience.units"),
        "core.retries": c("resilience.retries"),
        "core.quarantined": c("resilience.runs_quarantined")
        + c("resilience.pairs_quarantined"),
        "core.simulate_s": total_s["campaign.simulate"],
        "core.reference_s": total_s["campaign.reference_run"],
        "core.measure_s": total_s["campaign.measure"],
        "core.journal_records": c("resilience.journal_units_recorded"),
        "core.journal_ms": probe["journal_ms"],
        "replay.candidates": candidates,
        "replay.rounds": op.get("rounds", 0),
        "replay.sims_per_candidate": runs / candidates if candidates else 0.0,
        "net.units_dispatched": c("net.units_dispatched"),
        "net.units_cached": c("net.units_cached"),
        "net.unit_ms.p50": unit_ms.get("p50", 0.0),
        "net.frames": c("net.frames_sent"),
        "net.bytes": c("net.bytes_sent"),
        "net.objects_shipped": c("net.objects_shipped"),
        "net.redispatches": c("net.redispatches"),
        "net.unit_failures": c("net.unit_failures"),
        "cli.start_ms": op["cli_start_ms"],
    }

    processes = len(op["processes"])
    layer_s = {
        "cli": op["cli_start_ms"] * processes / 1e3,
        "graph": build_ms / 1e3,
        "store.write": probe["put_ms"] / 1e3,
        "store.read": (get_ms + probe["open_ms"] * processes) / 1e3,
        "journal": probe["journal_ms"] / 1e3,
        "net": 0.0,
        **{layer: self_s[layer] for layer in ("core", "sim", "kernels", "analysis", "replay")},
    }
    detail = {
        "cli": f"{processes} process start(s)",
        "core": f"units={c('resilience.units'):.0f} retries={c('resilience.retries'):.0f}",
        "sim": f"runs={runs:.0f} calls={calls:.0f}",
        "graph": f"builds={runs:.0f}",
        "kernels": f"features={metrics['kernels.features']:.0f} "
        f"distances={metrics['kernels.distances']:.0f}",
        "analysis": "",
        "replay": f"candidates={candidates:.0f} rounds={metrics['replay.rounds']}",
        "store.write": f"objects={probe['objects_written']} "
        f"index_writes={probe['index_writes']} index_kb={probe['index_kb']:.0f}",
        "store.read": f"hits={hits:.0f} ratio={metrics['store.hit_ratio']:.2f}",
        "journal": f"records={metrics['core.journal_records']:.0f}",
        "net": f"units={metrics['net.units_dispatched']:.0f} "
        f"frames={metrics['net.frames']:.0f} unit_ms.p50={metrics['net.unit_ms.p50']:.1f}",
    }
    rows = [
        {
            "layer": layer,
            "source": source,
            "time_s": layer_s[layer],
            "wall_share": wall_share.get(layer, 0.0) if source != "probe"
            else layer_s[layer] / wall_s,
            "detail": detail[layer],
        }
        for layer, source in TABLE
    ]
    return metrics, rows


def render(workload, rows, op_wall_s, overhead_s, traced_ops):
    lines = [
        f"per-layer split of {workload}: the median-wall op of {traced_ops} traced "
        f"op(s), op wall {op_wall_s:.3f} s, tracing overhead {overhead_s:+.4f} s/op",
        f"{'layer':<12} {'source':<8} {'time_s':>9} {'wall_share':>10}  detail",
    ]
    for row in rows:
        lines.append(
            f"{row['layer']:<12} {row['source']:<8} {row['time_s']:>9.4f} "
            f"{row['wall_share']:>10.3f}  {row['detail']}"
        )
    return "\n".join(lines)
