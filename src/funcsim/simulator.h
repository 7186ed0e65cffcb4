/**
 * @file
 * The CIM functional simulator (Section 4.1): executes a compiled
 * meta-operator flow against explicit crossbar, L0, and L1 state, so a
 * schedule's correctness can be checked bit-for-bit against the
 * reference executor (the paper verifies against PyTorch).
 *
 * State model:
 *  - L0/L1 buffers hold one 32-bit value per element (int8 activations
 *    occupy one slot; CIM accumulators use the full width);
 *  - each crossbar holds its *logical* weight matrix (one int8 weight per
 *    logical column — bit-slicing across `cellsPerWeight` physical cells
 *    is a latency/energy concern handled by the performance simulator,
 *    not a functional one);
 *  - cim.read* ops multiply a buffer slice with stored weights and
 *    accumulate into the destination; DCOM ops reuse the exact reference
 *    kernels from tensor/ops.h, guaranteeing bit-equality by
 *    construction.
 */
#ifndef CIMMLC_FUNCSIM_SIMULATOR_H
#define CIMMLC_FUNCSIM_SIMULATOR_H

#include <cstdint>
#include <map>
#include <vector>

#include "arch/arch.h"
#include "common/status.h"
#include "graph/graph.h"
#include "mop/program.h"
#include "sched/codegen.h"
#include "tensor/tensor.h"

namespace cimmlc {

/** Execution statistics of one functional run. */
struct FuncSimStats {
    std::int64_t ops_executed = 0;
    std::int64_t cim_reads = 0;
    std::int64_t cim_writes = 0;
    std::int64_t macs = 0;
    std::int64_t buffer_reads = 0;
    std::int64_t buffer_writes = 0;
    //! crossbars whose cell arrays were allocated (programmed at least once)
    std::int64_t crossbars_allocated = 0;
};

/** Executes compiled flows on simulated CIM hardware state. */
class FunctionalSimulator
{
  public:
    FunctionalSimulator(const CimArchitecture &arch,
                        const CodegenResult &code);

    /** Loads a graph input tensor into its L0 region. */
    Status loadInput(const Graph &graph, TensorId tensor,
                     const Int8Tensor &value);

    /** Executes the program's init then compute sections. */
    Status run();

    /** Reads a tensor's L0 region back as int8. */
    StatusOr<Int8Tensor> readTensor(const Graph &graph,
                                    TensorId tensor) const;

    const FuncSimStats &stats() const { return stats_; }

    /** Direct L0 access for white-box tests. */
    std::int32_t l0At(std::int64_t offset) const;

  private:
    Status execStmts(const std::vector<Stmt> &stmts);
    Status execOp(const MetaOp &op);
    Status execCimRead(const MetaOp &op);
    Status execReadCore(const MetaOp &op);
    Status execDcom(const MetaOp &op);
    Status execMov(const MetaOp &op);

    StatusOr<std::int32_t *> bufPtr(const BufAddr &addr,
                                    std::int64_t extent);
    StatusOr<const std::int32_t *> bufPtrConst(const BufAddr &addr,
                                               std::int64_t extent) const;

    const CimArchitecture &arch_;
    const CodegenResult &code_;

    std::vector<std::int32_t> l0_;
    std::vector<std::vector<std::int32_t>> l1_;
    //! logical weight state per crossbar, indexed core * xbN + xb;
    //! empty until the crossbar is first programmed (all-zero weights)
    std::vector<std::vector<std::int8_t>> xbars_;
    std::int64_t xb_logical_cols_ = 0;

    //! CM-mode weights installed per core by cim.writecore
    struct CoreState {
        CoreOpParams params;
        Int8Tensor weights;
        bool valid = false;
    };
    std::map<std::int64_t, CoreState> cores_;

    FuncSimStats stats_;
};

} // namespace cimmlc

#endif // CIMMLC_FUNCSIM_SIMULATOR_H
