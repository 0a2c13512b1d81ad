#include "workloads.h"

#include "src/common/log.h"
#include "workloads_impl.h"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "core_ilp", "core_memstall", "sweep_fig4", "explore_space"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &opts)
{
    if (opts.workload == "core_ilp")
        return makeCoreWorkload("gzip", "constant", opts.seed);
    if (opts.workload == "core_memstall")
        return makeCoreWorkload("mcf", "dram", opts.seed);
    if (opts.workload == "sweep_fig4")
        return makeSweepWorkload(opts.seed, opts.threads);
    if (opts.workload == "explore_space")
        return makeExploreWorkload(opts.seed, opts.threads);
    wsrs::fatal("unknown workload '%s'", opts.workload.c_str());
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"workload.gen_ns_per_uop", "ns"},
        {"workload.replay_ns_per_uop", "ns"},
        {"bpred.lookups_per_kuop", "count"},
        {"bpred.ns_per_lookup", "ns"},
        {"bpred.mispredict_rate", "ratio"},
        {"core.ns_per_uop.RR-256", "ns"},
        {"core.ns_per_uop.WSRS-RC-512", "ns"},
        {"core.ns_per_cycle", "ns"},
        {"core.warmup_s", "s"},
        {"core.measure_s", "s"},
        {"core.stage_share.fetch", "ratio"},
        {"core.stage_share.rename", "ratio"},
        {"core.stage_share.issue", "ratio"},
        {"core.stage_share.agen", "ratio"},
        {"core.stage_share.store_data", "ratio"},
        {"core.stage_share.commit", "ratio"},
        {"core.stepped_per_sim_cycle", "ratio"},
        {"core.sim_cycles_per_uop", "cycles/uop"},
        {"core.sim_ipc", "uops/cycle"},
        {"core.commit_idle_share", "ratio"},
        {"memory.accesses_per_uop", "count"},
        {"memory.l1_miss_ratio", "ratio"},
        {"memory.l2_miss_ratio", "ratio"},
        {"memory.dram_row_hit_ratio", "ratio"},
        {"memory.dram_queue_full_waits", "count"},
        {"sim.construct_s", "s"},
        {"sim.run_s", "s"},
        {"sim.wsrs_rc512_vs_rr256_ipc", "ratio"},
        {"obs.stats_json_s", "s"},
        {"obs.stats_json_bytes", "bytes"},
        {"ckpt.warmup_build_s", "s"},
        {"ckpt.warmup_restore_s", "s"},
        {"ckpt.blob_bytes", "bytes"},
        {"ckpt.core_snapshot_s", "s"},
        {"ckpt.core_restore_s", "s"},
        {"ckpt.core_bytes", "bytes"},
        {"ckpt.warmup_hits", "count"},
        {"ckpt.warmup_misses", "count"},
        {"runner.job_latency_p50_s", "s"},
        {"runner.job_latency_p85_s", "s"},
        {"runner.busy_ratio", "ratio"},
        {"runner.drain_s", "s"},
        {"explore.parse_s", "s"},
        {"explore.decode_ns_per_config", "ns"},
        {"explore.ipc_estimate_ns_per_config", "ns"},
        {"explore.hw_estimate_ns_per_config", "ns"},
        {"explore.pareto_offer_ns", "ns"},
        {"explore.feasible_ratio", "ratio"},
        {"explore.frontier_size", "count"},
        {"oracle.ns_per_uop", "ns"},
        {"trace.overhead_ratio", "ratio"},
    };
    return metrics;
}

} // namespace perfbench
