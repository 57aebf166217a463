"""What the traced run wraps, and how its spans become per-layer metrics.

Each layer is one module of ``src/sparsekit``.  Spans are recorded at the
calls into it; the metric list below says which end-to-end figure each one
should move, and on which workload (see README.md).
"""

from __future__ import annotations

from sparsekit import (
    afn,
    aipe,
    expdesign,
    hashing,
    io,
    kadison_singer,
    linalg,
    minip,
    psearch,
    sketch,
    sortedlist,
    sparsifier,
)

from tracer import Site, Tracer

#: (metric name, unit) in the order they are printed; every one is reported
#: on every workload, 0 where the workload never enters the layer.
PER_LAYER = [
    ("io.parse_matrix_file.self_s", "s/setup"),
    ("linalg.whiten.self_s", "s/setup"),
    ("linalg.eigendecompose.self_s", "s/round"),
    ("linalg.eigendecompose.calls", "count/round"),
    ("psearch.vector_tree.build_s", "s/round"),
    ("psearch.vector_tree.query_s", "s/round"),
    ("psearch.vector_tree.ips_per_query", "count"),
    ("psearch.matrix_tree.build_s", "s/round"),
    ("psearch.matrix_tree.query_s", "s/round"),
    ("psearch.matrix_tree.ips_per_query", "count"),
    ("sparsifier.sparsify_fast.self_s", "s/round"),
    ("sparsifier.bss_reference.self_s", "s/round"),
    ("sparsifier.verify_sparsifier.self_s", "s/round"),
    ("sparsifier.iterations", "count/solve"),
    ("sparsifier.fallbacks", "count/solve"),
    ("sparsifier.matrix_tree_frac", "fraction"),
    ("kadison_singer.ks_select.self_s", "s/round"),
    ("kadison_singer.ks_query_matrix.self_s", "s/round"),
    ("kadison_singer.fallbacks", "count/solve"),
    ("kadison_singer.propose_accept_frac", "fraction"),
    ("minip.build.self_s", "s/round"),
    ("minip.query.self_s", "s/round"),
    ("minip.delete.self_s", "s/round"),
    ("minip.insert.self_s", "s/round"),
    ("minip.structures", "count/build"),
    ("minip.query_hit_frac", "fraction"),
    ("afn.build.self_s", "s/round"),
    ("afn.query.self_s", "s/round"),
    ("afn.query_hit_frac", "fraction"),
    ("sortedlist.inserts", "count/round"),
    ("sortedlist.deletes", "count/round"),
    ("sketch.ensemble_build.self_s", "s/round"),
    ("sketch.apply_flat.self_s", "s/round"),
    ("sketch.apply_flat.calls", "count/round"),
    ("hashing.grid.self_s", "s/round"),
    ("aipe.build.self_s", "s/round"),
    ("aipe.query_min.self_s", "s/round"),
    ("aipe.query_min.calls", "count/round"),
    ("aipe.insert.self_s", "s/round"),
    ("aipe.delete.self_s", "s/round"),
    ("expdesign.swap_round.self_s", "s/round"),
    ("expdesign.find_ct.self_s", "s/round"),
    ("expdesign.swaps", "count/solve"),
    ("expdesign.fallbacks", "count/solve"),
    ("expdesign.propose_accept_frac", "fraction"),
    ("expdesign.start_lambda_min", "lambda"),
    ("bench.oracle.self_s", "s/round"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
]

def _count_ips(kind):
    def after(tracer, args, result):
        tracer.counts[f"psearch.{kind}.ips"] += args[0].last_query_ip_count

    return after


def _count_hit(name):
    def after(tracer, args, result):
        tracer.counts[name + ".hits"] += result is not None

    return after


def _count_structures(tracer, args, result):
    desc = args[0].descriptor()
    tracer.counts["minip.structures"] += desc["ensemble"]["k"] * desc["kappa"]


SETUP_SITES = [
    Site("io.parse_matrix_file", io, "parse_matrix_file"),
    Site("linalg.whiten", linalg, "whiten"),
    Site("linalg.eigendecompose", linalg, "eigendecompose"),
]

SOLVE_SITES = [
    Site("linalg.eigendecompose", linalg, "eigendecompose"),
    Site("psearch.vector_tree.build", psearch.BatchedVectorSearchTree, "__init__"),
    Site(
        "psearch.vector_tree.query",
        psearch.BatchedVectorSearchTree,
        "query_positive",
        after=_count_ips("vector_tree"),
    ),
    Site("psearch.matrix_tree.build", psearch.MatrixSearchTree, "__init__"),
    Site(
        "psearch.matrix_tree.query",
        psearch.MatrixSearchTree,
        "query_positive",
        after=_count_ips("matrix_tree"),
    ),
    Site("sparsifier.sparsify_fast", sparsifier, "sparsify_fast"),
    Site("sparsifier.bss_reference", sparsifier, "bss_reference"),
    Site("sparsifier.verify_sparsifier", sparsifier, "verify_sparsifier"),
    Site("kadison_singer.ks_select", kadison_singer, "ks_select"),
    Site("kadison_singer.ks_query_matrix", kadison_singer, "ks_query_matrix"),
    Site(
        "minip.build", minip.RobustMinIpIndex, "__init__", after=_count_structures
    ),
    Site("minip.query", minip.RobustMinIpIndex, "query", after=_count_hit("minip.query")),
    Site("minip.delete", minip.RobustMinIpIndex, "delete"),
    Site("minip.insert", minip.RobustMinIpIndex, "insert"),
    Site("afn.build", afn.AfnStructure, "__init__"),
    Site("afn.build", afn.DfnStructure, "__init__"),
    Site("afn.query", afn.AfnStructure, "query", after=_count_hit("afn.query")),
    # ~10^5 calls per solve on ks-afn: counted, never timed
    Site("sortedlist.insert", sortedlist.SortedKeyList, "insert", timed=False),
    Site("sortedlist.delete", sortedlist.SortedKeyList, "delete", timed=False),
    Site("sketch.ensemble_build", sketch.SketchEnsemble, "__init__"),
    Site("sketch.apply_flat", sketch.TensorSparseSketch, "apply_flat"),
    Site("sketch.apply_flat", sketch.TensorSrhtSketch, "apply_flat"),
    Site("hashing.grid", hashing.PolyHash, "grid"),
    Site("aipe.build", aipe.InnerProductEstimator, "__init__"),
    Site("aipe.query_min", aipe.InnerProductEstimator, "query_min"),
    Site("aipe.insert", aipe.InnerProductEstimator, "insert"),
    Site("aipe.delete", aipe.InnerProductEstimator, "delete"),
    Site("expdesign.swap_round", expdesign, "swap_round"),
    Site("expdesign.find_ct", expdesign, "find_ct"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    setup: Tracer,
    solve: Tracer,
    rounds: int,
    solver_counters: dict,
    overhead_frac: float,
) -> dict[str, float]:
    """All PER_LAYER values: span times per set-up or per traced round, plus
    the counters the workload read off solver results (workloads.py)."""
    setup_sum = setup.summary()
    solve_sum = solve.summary()
    counts = solve.counts

    def self_s(summary, name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return solve_sum.get(name, {}).get("calls", 0)

    values = {
        "io.parse_matrix_file.self_s": self_s(setup_sum, "io.parse_matrix_file"),
        "linalg.whiten.self_s": self_s(setup_sum, "linalg.whiten"),
        "psearch.vector_tree.ips_per_query": _ratio(
            counts["psearch.vector_tree.ips"], calls("psearch.vector_tree.query")
        ),
        "psearch.matrix_tree.ips_per_query": _ratio(
            counts["psearch.matrix_tree.ips"], calls("psearch.matrix_tree.query")
        ),
        "minip.structures": _ratio(counts["minip.structures"], calls("minip.build")),
        "minip.query_hit_frac": _ratio(counts["minip.query.hits"], calls("minip.query")),
        "afn.query_hit_frac": _ratio(counts["afn.query.hits"], calls("afn.query")),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": _ratio(solve.unattributed_s(), solve.window_s),
    }
    per_round = {
        "linalg.eigendecompose.calls": calls("linalg.eigendecompose"),
        "sortedlist.inserts": counts["sortedlist.insert"],
        "sortedlist.deletes": counts["sortedlist.delete"],
        "sketch.apply_flat.calls": calls("sketch.apply_flat"),
        "aipe.query_min.calls": calls("aipe.query_min"),
    }
    for metric, _ in PER_LAYER:
        if metric.endswith(".self_s") and metric not in values:
            per_round[metric] = self_s(solve_sum, metric[: -len(".self_s")])
        elif metric.endswith((".build_s", ".query_s")):
            per_round[metric] = self_s(solve_sum, metric[: -len("_s")])
    for metric, total in per_round.items():
        values[metric] = _ratio(total, rounds)
    values.update(solver_counters)
    return {metric: float(values.get(metric, 0.0)) for metric, _ in PER_LAYER}
