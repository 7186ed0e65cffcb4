#include "sched/cg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>

#include "common/logging.h"
#include "common/mathutil.h"
#include "common/strutil.h"
#include "graph/analysis.h"

namespace cimmlc {

namespace {

/**
 * CG-level duplication cap from the shared chip NoC / L0 port: replicas
 * made at this level live on different cores, so each adds its own
 * operand stream ("CIM-MLC will update the duplication number to keep
 * the data transfer amount within the NoC and buffer capability").
 * MVM-grained intra-core replicas are exempt: adjacent windows inside
 * one core share the sliding-window halo already resident in L1.
 */
std::int64_t
bandwidthDupCap(const NodeCost &cost, const CimArchitecture &arch)
{
    const double limit_bw = chipBandwidthLimit(arch);
    if (limit_bw <= 0.0 || cost.transfer_bits_per_window <= 0.0 ||
        cost.cycles_per_window <= 0.0) {
        return 0; // uncapped
    }
    const double per_replica_bw =
        cost.transfer_bits_per_window / cost.cycles_per_window;
    const std::int64_t cap = static_cast<std::int64_t>(
        std::floor(limit_bw / per_replica_bw));
    return std::max<std::int64_t>(1, cap);
}

/** Feasibility probe for the min-max binary search. */
bool
bottleneckFeasible(const std::vector<double> &latencies,
                   const std::vector<std::int64_t> &core_costs,
                   const std::vector<std::int64_t> &max_dup,
                   const std::vector<double> &floors,
                   std::int64_t budget, double target)
{
    std::int64_t used = 0;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        if (core_costs[i] <= 0)
            continue; // fixed stage
        // A stage never duplicates below its streaming floor: replicas
        // beyond that would starve on the shared bandwidth.
        const double stage_target =
            floors.empty() ? target : std::max(target, floors[i]);
        std::int64_t need = static_cast<std::int64_t>(
            std::ceil(latencies[i] / stage_target));
        need = std::max<std::int64_t>(need, 1);
        if (!max_dup.empty() && max_dup[i] > 0)
            need = std::min(need, max_dup[i]);
        used += need * core_costs[i];
        if (used > budget)
            return false;
    }
    return used <= budget;
}

} // namespace

std::vector<std::int64_t>
allocateDuplication(const std::vector<double> &latencies,
                    const std::vector<std::int64_t> &core_costs,
                    std::int64_t budget, bool pipelined,
                    const std::vector<std::int64_t> &max_dup,
                    const std::vector<double> &floors)
{
    const std::size_t n = latencies.size();
    CIMMLC_CHECK_EQ(core_costs.size(), n);
    std::vector<std::int64_t> dup(n, 1);

    std::int64_t min_cores = 0;
    for (std::size_t i = 0; i < n; ++i)
        min_cores += std::max<std::int64_t>(core_costs[i], 0);
    if (min_cores > budget) {
        // Caller segmented wrongly; fall back to no duplication.
        return dup;
    }

    auto cap_of = [&](std::size_t i) -> std::int64_t {
        if (max_dup.empty() || max_dup[i] <= 0)
            return std::numeric_limits<std::int64_t>::max();
        return max_dup[i];
    };
    auto floor_of = [&](std::size_t i) -> double {
        return floors.empty() ? 0.0 : floors[i];
    };
    // Duplication that reaches the streaming floor; more is wasted.
    auto floor_cap = [&](std::size_t i) -> std::int64_t {
        const double floor = floor_of(i);
        if (floor <= 0.0)
            return cap_of(i);
        const std::int64_t by_floor = static_cast<std::int64_t>(
            std::ceil(latencies[i] / floor));
        return std::min(cap_of(i), std::max<std::int64_t>(by_floor, 1));
    };

    if (pipelined) {
        // Binary-search the achievable bottleneck latency.
        double high = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            high = std::max(high, latencies[i]);
        if (high <= 0.0)
            return dup;
        double low = high * static_cast<double>(min_cores) /
                     std::max<double>(1.0, static_cast<double>(budget));
        low = std::max(low, 1e-6);
        // Fixed (non-duplicable) stages bound the bottleneck from below.
        for (std::size_t i = 0; i < n; ++i) {
            if (core_costs[i] <= 0)
                low = std::max(low, latencies[i]);
        }
        for (int iter = 0; iter < 64 && high - low > 1e-6 * high;
             ++iter) {
            const double mid = 0.5 * (low + high);
            if (bottleneckFeasible(latencies, core_costs, max_dup,
                                   floors, budget, mid)) {
                high = mid;
            } else {
                low = mid;
            }
        }
        std::int64_t used = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (core_costs[i] <= 0)
                continue;
            const double stage_target = std::max(high, floor_of(i));
            std::int64_t d = static_cast<std::int64_t>(
                std::ceil(latencies[i] / stage_target));
            d = clampInt(d, 1, floor_cap(i));
            dup[i] = d;
            used += d * core_costs[i];
        }
        // Spend leftover cores on whatever stage is now the bottleneck.
        bool improved = true;
        while (improved) {
            improved = false;
            double worst = -1.0;
            std::size_t worst_i = n;
            for (std::size_t i = 0; i < n; ++i) {
                if (core_costs[i] <= 0 || dup[i] >= floor_cap(i))
                    continue;
                const double s =
                    latencies[i] / static_cast<double>(dup[i]);
                if (s > worst) {
                    worst = s;
                    worst_i = i;
                }
            }
            if (worst_i < n && used + core_costs[worst_i] <= budget) {
                ++dup[worst_i];
                used += core_costs[worst_i];
                improved = true;
            }
        }
        return dup;
    }

    // Serial objective: marginal-gain-per-core greedy (optimal for the
    // convex L/D curve).
    struct Candidate {
        double gain_per_core;
        std::size_t index;
        bool operator<(const Candidate &other) const
        {
            return gain_per_core < other.gain_per_core;
        }
    };
    auto gain = [&](std::size_t i) {
        const double d = static_cast<double>(dup[i]);
        const double floor = floor_of(i);
        const double now = std::max(latencies[i] / d, floor);
        const double next = std::max(latencies[i] / (d + 1.0), floor);
        return (now - next) / static_cast<double>(core_costs[i]);
    };
    std::priority_queue<Candidate> heap;
    std::int64_t used = min_cores;
    for (std::size_t i = 0; i < n; ++i) {
        if (core_costs[i] > 0 && dup[i] < floor_cap(i))
            heap.push({gain(i), i});
    }
    while (!heap.empty()) {
        const Candidate top = heap.top();
        heap.pop();
        const std::size_t i = top.index;
        if (top.gain_per_core <= 0.0)
            continue; // at the floor: more replicas bring nothing
        if (used + core_costs[i] > budget)
            continue; // this stage no longer fits; others may
        // Stale entry guard: recompute and requeue when outdated.
        const double current = gain(i);
        if (current < top.gain_per_core * (1.0 - 1e-12)) {
            heap.push({current, i});
            continue;
        }
        ++dup[i];
        used += core_costs[i];
        if (dup[i] < floor_cap(i))
            heap.push({gain(i), i});
    }
    return dup;
}

namespace {

/** Working record for one segment during construction. */
struct SegmentBuild {
    std::vector<std::size_t> members; //!< indices into costs vector
    std::int64_t min_cores = 0;
};

/** Stage latencies/costs for the allocator, honouring options. */
struct SegmentPlan {
    std::vector<std::size_t> members;
    std::vector<double> latencies;
    std::vector<std::int64_t> core_costs;
    std::vector<std::int64_t> caps;
    std::vector<std::int64_t> dup;
    SegmentLatency latency;
};

SegmentPlan
planSegment(const std::vector<NodeCost> &costs,
            const std::vector<std::size_t> &members,
            const CimArchitecture &arch, const ScheduleOptions &options,
            std::int64_t budget)
{
    SegmentPlan plan;
    plan.members = members;
    for (std::size_t idx : members) {
        const NodeCost &cost = costs[idx];
        const double effective_cpw =
            bandwidthBoundCyclesPerWindow(cost, arch);
        const double latency =
            cost.is_cim ? static_cast<double>(cost.windows) *
                              effective_cpw *
                              static_cast<double>(cost.chip_splits)
                        : cost.alu_cycles;
        plan.latencies.push_back(latency);
        plan.core_costs.push_back(cost.is_cim ? cost.cores_per_replica
                                              : 0);
        std::int64_t cap =
            cost.is_cim ? std::max<std::int64_t>(cost.windows, 1) : 1;
        const std::int64_t bw_cap = bandwidthDupCap(cost, arch);
        if (cost.is_cim && bw_cap > 0)
            cap = std::min(cap, bw_cap);
        plan.caps.push_back(cap);
    }

    auto evaluate = [&](const std::vector<std::int64_t> &dup) {
        std::vector<StageCost> stages;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const NodeCost &cost = costs[members[i]];
            if (!cost.is_stage)
                continue;
            StageCost stage;
            stage.node = cost.node;
            stage.stage_latency =
                plan.latencies[i] / static_cast<double>(dup[i]);
            stage.fill_fraction = cost.fill_fraction;
            stages.push_back(stage);
        }
        return segmentLatency(stages);
    };

    if (options.cg_duplication) {
        plan.dup = allocateDuplication(plan.latencies, plan.core_costs,
                                       budget, options.cg_pipeline,
                                       plan.caps);
        plan.latency = evaluate(plan.dup);
        if (options.cg_pipeline) {
            // Fill-dominated graphs (chains of full-input stages such as
            // transformer blocks) behave serially even when pipelined;
            // the min-sum allocation can then beat the min-max one. Try
            // both and keep the better schedule.
            std::vector<std::int64_t> serial_dup = allocateDuplication(
                plan.latencies, plan.core_costs, budget,
                /*pipelined=*/false, plan.caps);
            const SegmentLatency serial_eval = evaluate(serial_dup);
            if (serial_eval.pipelined < plan.latency.pipelined) {
                plan.dup = std::move(serial_dup);
                plan.latency = serial_eval;
            }
        }
    } else {
        plan.dup.assign(members.size(), 1);
        plan.latency = evaluate(plan.dup);
    }
    if (!options.cg_pipeline)
        plan.latency.pipelined = plan.latency.serial;
    return plan;
}

/**
 * Hybrid host/CIM offload: prices every maximal run of consecutive
 * digital nodes against the host model and moves it to the host when
 * launch + boundary transfer + host compute beats the chip ALU time.
 * Offloaded nodes keep their pipeline-stage role — alu_cycles carries
 * the host time (the first node of a region also pays the launch and
 * the link transfer), so segmentation prices them transparently.
 */
std::vector<HostRegion>
offloadHostRegions(const Graph &graph, const CimArchitecture &arch,
                   const HostModel &host, std::vector<NodeCost> &costs)
{
    std::vector<HostRegion> regions;
    // Producers/consumers by cost index, for boundary accounting.
    std::map<TensorId, std::size_t> producer;
    std::map<TensorId, std::vector<std::size_t>> consumers;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        const Node &node = graph.node(costs[i].node);
        producer[node.output] = i;
        for (TensorId input : node.inputs)
            consumers[input].push_back(i);
    }
    const std::set<TensorId> graph_outputs(graph.outputs().begin(),
                                           graph.outputs().end());

    for (std::size_t begin = 0; begin < costs.size();) {
        if (costs[begin].is_cim) {
            ++begin;
            continue;
        }
        std::size_t end = begin;
        while (end < costs.size() && !costs[end].is_cim)
            ++end;
        const auto inside = [begin, end](std::size_t i) {
            return i >= begin && i < end;
        };

        double chip_cycles = 0.0;
        double host_compute = 0.0;
        double boundary_bits = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const Node &node = graph.node(costs[i].node);
            chip_cycles += costs[i].alu_cycles;
            host_compute += hostComputeCycles(
                host,
                static_cast<double>(aluOpCount(graph, costs[i].node)));
            for (TensorId input : node.inputs) {
                const auto pit = producer.find(input);
                if (pit != producer.end() && inside(pit->second))
                    continue; // produced inside the region
                boundary_bits +=
                    static_cast<double>(graph.tensor(input).numel()) *
                    static_cast<double>(arch.activation_bits);
            }
            bool escapes = graph_outputs.count(node.output) > 0;
            const auto cit = consumers.find(node.output);
            if (!escapes && cit != consumers.end()) {
                for (std::size_t user : cit->second)
                    escapes = escapes || !inside(user);
            }
            if (escapes) {
                boundary_bits +=
                    static_cast<double>(
                        graph.tensor(node.output).numel()) *
                    static_cast<double>(arch.activation_bits);
            }
        }

        const double transfer = hostTransferCycles(host, boundary_bits);
        const double host_cycles =
            host.launch_overhead_cycles + transfer + host_compute;
        if (chip_cycles > 0.0 && host_cycles < chip_cycles) {
            HostRegion region;
            region.host_cycles = host_cycles;
            region.chip_cycles = chip_cycles;
            region.transfer_bits = boundary_bits;
            for (std::size_t i = begin; i < end; ++i) {
                NodeCost &cost = costs[i];
                region.nodes.push_back(cost.node);
                cost.on_host = true;
                cost.alu_cycles = hostComputeCycles(
                    host, static_cast<double>(
                              aluOpCount(graph, cost.node)));
                if (i == begin) {
                    cost.alu_cycles +=
                        host.launch_overhead_cycles + transfer;
                }
                if (cost.alu_cycles > 0.0) {
                    cost.is_stage = true;
                    cost.base_latency = cost.alu_cycles;
                }
            }
            regions.push_back(std::move(region));
        }
        begin = end;
    }
    return regions;
}

} // namespace

StatusOr<CgResult>
runCgOptimization(const Graph &graph, const CimArchitecture &arch,
                  const ScheduleOptions &options, const HostModel &host)
{
    CIMMLC_RETURN_IF_ERROR(graph.validate());
    CIMMLC_RETURN_IF_ERROR(arch.validate());

    CgResult result;
    CIMMLC_RETURN_IF_ERROR(options.binding.validate());
    result.costs = computeGraphCosts(graph, arch, options.binding);
    if (options.host_offload) {
        CIMMLC_RETURN_IF_ERROR(host.validate());
        result.host_regions =
            offloadHostRegions(graph, arch, host, result.costs);
    }
    const std::int64_t budget = arch.chip.coreNumber();

    // ----- resource-adaptive segmentation -------------------------------
    // Greedily grow maximal subgraphs in topological order; when a
    // segment closes, pop trailing nodes while that strictly improves the
    // segment's (pipelined or serial) latency — the Figure 9(b)
    // refinement loop.
    std::vector<SegmentBuild> builds;
    SegmentBuild current;
    for (std::size_t idx = 0; idx < result.costs.size(); ++idx) {
        const NodeCost &cost = result.costs[idx];
        const std::int64_t need =
            cost.is_cim ? cost.cores_per_replica : 0;
        if (need > budget) {
            return resourceExhausted(strformat(
                "operator '%s' exceeds the chip even after splitting",
                graph.node(cost.node).name.c_str()));
        }
        const bool over_budget = current.min_cores + need > budget;
        const bool over_cap =
            options.segment_max_nodes > 0 &&
            static_cast<std::int64_t>(current.members.size())
                >= options.segment_max_nodes;
        if ((over_budget || over_cap) && !current.members.empty()) {
            builds.push_back(std::move(current));
            current = SegmentBuild{};
        }
        current.members.push_back(idx);
        current.min_cores += need;
    }
    if (!current.members.empty())
        builds.push_back(std::move(current));

    // Refinement: pop trailing CIM nodes while latency improves and the
    // popped nodes still fit in a following segment.
    if (builds.size() > 1 && options.cg_duplication) {
        for (std::size_t s = 0; s + 1 < builds.size(); ++s) {
            while (builds[s].members.size() > 1) {
                SegmentPlan with_all =
                    planSegment(result.costs, builds[s].members, arch,
                                options, budget);
                std::vector<std::size_t> fewer = builds[s].members;
                const std::size_t moved = fewer.back();
                fewer.pop_back();
                SegmentPlan without_last =
                    planSegment(result.costs, fewer, arch, options,
                                budget);
                const double before = options.cg_pipeline
                                          ? with_all.latency.pipelined
                                          : with_all.latency.serial;
                const double after = options.cg_pipeline
                                         ? without_last.latency.pipelined
                                         : without_last.latency.serial;
                // Moving a node to the next segment adds its solo cost
                // there; only pop when the improvement beats that and
                // the next segment can still hold the node.
                const NodeCost &moved_cost = result.costs[moved];
                const double moved_solo =
                    moved_cost.is_cim
                        ? moved_cost.base_latency
                        : moved_cost.alu_cycles;
                const std::int64_t moved_cores =
                    moved_cost.is_cim ? moved_cost.cores_per_replica : 0;
                if (builds[s + 1].min_cores + moved_cores > budget)
                    break;
                if (before - after > moved_solo) {
                    builds[s].members.pop_back();
                    builds[s].min_cores -=
                        moved_cost.is_cim ? moved_cost.cores_per_replica
                                          : 0;
                    builds[s + 1].members.insert(
                        builds[s + 1].members.begin(), moved);
                    builds[s + 1].min_cores +=
                        moved_cost.is_cim ? moved_cost.cores_per_replica
                                          : 0;
                } else {
                    break;
                }
            }
        }
    }

    // ----- dual-mode resident pinning ------------------------------------
    // "Be CIM or Be Memory": permanently claim a later segment's minimum
    // cores so its crossbars stay programmed across segment switches
    // (its per-inference reload disappears), at the price of a smaller
    // duplication budget for every other segment. Greedy: per round,
    // pin the one segment whose pinning most improves total latency;
    // stop when nothing strictly improves. Segment 0 never pays a
    // reload, so it is never a candidate.
    std::vector<bool> resident(builds.size(), false);
    std::int64_t claimed = 0;
    // Per-segment reload volume: a core's shared write drivers serialize
    // its own crossbars, so a segment whose replicas pack many crossbars
    // per core pays proportionally more to reprogram — pinning such a
    // segment removes real volume, not a flat constant.
    std::vector<double> seg_reload(builds.size(), 0.0);
    double max_reload = 0.0;
    for (std::size_t s = 0; s < builds.size(); ++s) {
        std::vector<const NodeCost *> members;
        members.reserve(builds[s].members.size());
        for (std::size_t idx : builds[s].members)
            members.push_back(&result.costs[idx]);
        seg_reload[s] = segmentReloadCycles(arch, members);
        max_reload = std::max(max_reload, seg_reload[s]);
    }
    if (options.dual_mode && builds.size() > 1 && max_reload > 0.0) {
        // Members stay fixed while pinning, so a segment's latency
        // depends only on its core budget; memoize it. A resident
        // segment always runs on its own minimum cores (one slot per
        // segment); every non-resident segment of a trial shares the
        // remaining budget (one row of slots per remaining budget).
        // Summing the cached values in segment order keeps every total
        // bit-identical to re-planning each segment per trial.
        using LatencySlots = std::vector<std::optional<double>>;
        LatencySlots resident_latency(builds.size());
        std::map<std::int64_t, LatencySlots> shared_latency;
        auto segmentLatency = [&](std::optional<double> &slot,
                                  std::size_t s,
                                  std::int64_t seg_budget) -> double {
            if (!slot) {
                const SegmentPlan plan =
                    planSegment(result.costs, builds[s].members, arch,
                                options, seg_budget);
                slot = options.cg_pipeline ? plan.latency.pipelined
                                           : plan.latency.serial;
            }
            return *slot;
        };
        auto totalLatency = [&](const std::vector<bool> &res,
                                std::int64_t res_claimed) -> double {
            const std::int64_t remaining = budget - res_claimed;
            if (remaining <= 0)
                return std::numeric_limits<double>::infinity();
            LatencySlots &shared =
                shared_latency.try_emplace(remaining, builds.size())
                    .first->second;
            double total = 0.0;
            for (std::size_t s = 0; s < builds.size(); ++s) {
                if (!res[s] && builds[s].min_cores > remaining)
                    return std::numeric_limits<double>::infinity();
                total += res[s] ? segmentLatency(resident_latency[s], s,
                                                 builds[s].min_cores)
                                : segmentLatency(shared[s], s, remaining);
                if (s > 0 && !res[s])
                    total += seg_reload[s];
            }
            return total;
        };
        double best_total = totalLatency(resident, claimed);
        bool improved = true;
        while (improved) {
            improved = false;
            std::size_t best_s = builds.size();
            double best_candidate = best_total;
            for (std::size_t s = 1; s < builds.size(); ++s) {
                if (resident[s] || builds[s].min_cores <= 0)
                    continue;
                std::vector<bool> trial = resident;
                trial[s] = true;
                const double total = totalLatency(
                    trial, claimed + builds[s].min_cores);
                if (total < best_candidate) {
                    best_candidate = total;
                    best_s = s;
                }
            }
            if (best_s < builds.size()) {
                resident[best_s] = true;
                claimed += builds[best_s].min_cores;
                best_total = best_candidate;
                improved = true;
            }
        }
    }

    // ----- per-segment duplication + assignment -------------------------
    // Resident segments claim core ranges stacked at the top of the core
    // space (starting at `remaining`), so they never collide with the
    // per-segment ranges that non-resident segments reuse from core 0.
    const std::int64_t remaining = budget - claimed;
    std::int64_t resident_cursor = remaining;
    for (std::size_t s = 0; s < builds.size(); ++s) {
        const std::int64_t seg_budget =
            resident[s] ? builds[s].min_cores : remaining;
        SegmentPlan plan = planSegment(result.costs, builds[s].members,
                                       arch, options, seg_budget);

        Segment segment;
        segment.resident = resident[s];
        const std::int64_t core_origin =
            resident[s] ? resident_cursor : 0;
        std::int64_t next_core = 0;
        for (std::size_t i = 0; i < plan.members.size(); ++i) {
            const NodeCost &cost = result.costs[plan.members[i]];
            CgDecision decision;
            decision.duplication = plan.dup[i];
            decision.cg_duplication = plan.dup[i];
            decision.cores_per_replica =
                cost.is_cim ? cost.cores_per_replica : 0;
            decision.chip_splits = cost.chip_splits;
            decision.segment = static_cast<std::int64_t>(s);
            decision.resident = resident[s];
            decision.effective_cpw =
                cost.is_cim ? bandwidthBoundCyclesPerWindow(cost, arch)
                            : 0.0;
            decision.stage_latency =
                plan.latencies[i] / static_cast<double>(plan.dup[i]);
            if (cost.is_cim) {
                decision.core_base = core_origin + next_core;
                next_core +=
                    decision.duplication * decision.cores_per_replica;
            }
            result.decisions[cost.node] = decision;
            segment.nodes.push_back(cost.node);
        }
        if (resident[s])
            resident_cursor += next_core;
        segment.cores_used = next_core;
        segment.bottleneck_cycles = plan.latency.bottleneck;
        segment.latency_cycles = options.cg_pipeline
                                     ? plan.latency.pipelined
                                     : plan.latency.serial;
        // Weight programming: the first segment loads at init time,
        // resident segments program once at init and never again; every
        // other later segment reprograms the arrays before running.
        segment.reload_cycles =
            (s == 0 || resident[s]) ? 0.0 : seg_reload[s];
        builds[s].min_cores = next_core;
        result.segments.push_back(std::move(segment));
    }

    return result;
}

} // namespace cimmlc
