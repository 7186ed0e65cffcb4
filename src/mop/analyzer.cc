#include "mop/analyzer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strutil.h"
#include "common/table.h"
#include "tensor/shape.h"

namespace cimmlc {

namespace {

namespace check {
inline constexpr const char *kUbdBuffer = "use-before-def-buffer";
inline constexpr const char *kUbdXbar = "use-before-def-xbar";
inline constexpr const char *kUbdCore = "use-before-def-core";
inline constexpr const char *kRaceWriteWrite = "race-write-write";
inline constexpr const char *kRaceReadWrite = "race-read-write";
inline constexpr const char *kRaceXbar = "race-xbar";
inline constexpr const char *kRaceCore = "race-core";
inline constexpr const char *kCapacityL0 = "capacity-l0";
inline constexpr const char *kCapacityL1 = "capacity-l1";
inline constexpr const char *kDeadStore = "dead-store";
inline constexpr const char *kXbarOverwrite = "xbar-overwrite";
inline constexpr const char *kXbarUnused = "xbar-unused-write";
inline constexpr const char *kCoreOverwrite = "core-overwrite";
inline constexpr const char *kCoreUnused = "core-unused-write";
} // namespace check

struct Interval {
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/** A sorted set of disjoint half-open element intervals. */
class IntervalSet
{
  public:
    void
    add(std::int64_t begin, std::int64_t end)
    {
        if (begin >= end)
            return;
        // Find the run of intervals overlapping or adjacent to [b, e).
        const std::size_t lo = static_cast<std::size_t>(
            std::lower_bound(iv_.begin(), iv_.end(), begin,
                             [](const Interval &i, std::int64_t p) {
                                 return i.end < p;
                             }) -
            iv_.begin());
        std::size_t hi = lo;
        while (hi < iv_.size() && iv_[hi].begin <= end) {
            begin = std::min(begin, iv_[hi].begin);
            end = std::max(end, iv_[hi].end);
            ++hi;
        }
        if (hi == lo + 1) { // merged into one slot: no tail shuffle
            iv_[lo] = Interval{begin, end};
            return;
        }
        iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(lo),
                  iv_.begin() + static_cast<std::ptrdiff_t>(hi));
        iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(lo),
                   Interval{begin, end});
    }

    void
    addSet(const IntervalSet &other)
    {
        for (const Interval &i : other.iv_)
            add(i.begin, i.end);
    }

    void
    subtract(std::int64_t begin, std::int64_t end)
    {
        if (begin >= end)
            return;
        std::vector<Interval> out;
        out.reserve(iv_.size() + 1);
        for (const Interval &i : iv_) {
            if (i.end <= begin || i.begin >= end) {
                out.push_back(i);
                continue;
            }
            if (i.begin < begin)
                out.push_back(Interval{i.begin, begin});
            if (i.end > end)
                out.push_back(Interval{end, i.end});
        }
        iv_ = std::move(out);
    }

    bool
    intersects(std::int64_t begin, std::int64_t end) const
    {
        if (begin >= end)
            return false;
        const auto it = firstReaching(begin);
        return it != iv_.end() && it->begin < end;
    }

    /** First overlapping interval with @p other, if any. */
    std::optional<Interval>
    firstOverlap(const IntervalSet &other) const
    {
        std::size_t a = 0, b = 0;
        while (a < iv_.size() && b < other.iv_.size()) {
            const Interval &x = iv_[a];
            const Interval &y = other.iv_[b];
            const std::int64_t lo = std::max(x.begin, y.begin);
            const std::int64_t hi = std::min(x.end, y.end);
            if (lo < hi)
                return Interval{lo, hi};
            if (x.end < y.end)
                ++a;
            else
                ++b;
        }
        return std::nullopt;
    }

    /** Parts of [begin, end) not covered by this set. */
    IntervalSet
    uncovered(std::int64_t begin, std::int64_t end) const
    {
        IntervalSet missing;
        if (begin >= end)
            return missing;
        std::int64_t cursor = begin;
        for (auto it = firstReaching(begin);
             it != iv_.end() && it->begin < end; ++it) {
            if (it->begin > cursor)
                missing.iv_.push_back(Interval{cursor, it->begin});
            cursor = std::max(cursor, it->end);
            if (cursor >= end)
                break;
        }
        if (cursor < end)
            missing.iv_.push_back(Interval{cursor, end});
        return missing;
    }

    void
    subtractSet(const IntervalSet &other)
    {
        for (const Interval &i : other.iv_)
            subtract(i.begin, i.end);
    }

    bool empty() const { return iv_.empty(); }
    const std::vector<Interval> &intervals() const { return iv_; }

    Interval
    first() const
    {
        return iv_.empty() ? Interval{} : iv_.front();
    }

  private:
    /** First interval whose end extends past @p pos (they are sorted
     * and disjoint, so this is the only one that can cover pos). */
    std::vector<Interval>::const_iterator
    firstReaching(std::int64_t pos) const
    {
        return std::lower_bound(iv_.begin(), iv_.end(), pos,
                                [](const Interval &i, std::int64_t p) {
                                    return i.end <= p;
                                });
    }

    std::vector<Interval> iv_;
};

/** Buffer identity: the L0 global buffer or one core's L1 bank. */
struct BufKey {
    MemSpace space = MemSpace::kL0;
    std::int64_t core = 0; //!< 0 for L0

    bool
    operator<(const BufKey &other) const
    {
        if (space != other.space)
            return space < other.space;
        return core < other.core;
    }
    bool operator==(const BufKey &) const = default;
};

BufKey
keyOf(const BufAddr &addr)
{
    BufKey key;
    key.space = addr.space;
    key.core = addr.space == MemSpace::kL1 ? addr.core : 0;
    return key;
}

std::string
bufKeyName(const BufKey &key)
{
    if (key.space == MemSpace::kL0)
        return "L0";
    return strformat("L1c%lld", static_cast<long long>(key.core));
}

std::string
regionName(const BufKey &key, const Interval &i)
{
    return strformat("%s[%lld, %lld)", bufKeyName(key).c_str(),
                     static_cast<long long>(i.begin),
                     static_cast<long long>(i.end));
}

std::string
xbName(std::int64_t core, std::int64_t xb)
{
    return strformat("c%lld.x%lld", static_cast<long long>(core),
                     static_cast<long long>(xb));
}

/** One buffer-region access of an op. */
struct RegionRef {
    BufKey key;
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/** One crossbar row-range access of an op. */
struct XbRef {
    std::int64_t core = 0;
    std::int64_t xb = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/**
 * The memory footprint of one op, mirroring the functional simulator's
 * semantics (funcsim/simulator.cc): CIM reads *accumulate* into their
 * destination, kReadCore assigns per-window strided intervals, kMov is
 * a strided block copy, DCOM extents are per-function.
 */
struct OpEffects {
    std::vector<RegionRef> reads;
    std::vector<RegionRef> writes; //!< plain assignments
    std::vector<RegionRef> accums; //!< commutative read-modify-write
    std::vector<XbRef> xb_reads;
    std::vector<XbRef> xb_writes;
    std::vector<std::int64_t> core_reads;  //!< core-state uses
    std::vector<std::int64_t> core_writes; //!< core-state installs
};

void
addRegion(std::vector<RegionRef> *out, const BufAddr &addr,
          std::int64_t begin, std::int64_t end)
{
    if (addr.offset < 0 || begin >= end)
        return;
    out->push_back(RegionRef{keyOf(addr), addr.offset + begin,
                             addr.offset + end});
}

void
addExtent(std::vector<RegionRef> *out, const BufAddr &addr,
          std::int64_t extent)
{
    addRegion(out, addr, 0, extent);
}

//! strided movs beyond this many blocks fall back to their hull
constexpr std::int64_t kMaxMovBlocks = 1024;

void
addStrided(std::vector<RegionRef> *out, const BufAddr &addr,
           std::int64_t len, std::int64_t count, std::int64_t stride)
{
    if (len <= 0 || count <= 0)
        return;
    if (count <= kMaxMovBlocks && stride >= 0) {
        for (std::int64_t b = 0; b < count; ++b) {
            BufAddr block = addr;
            block.offset += b * stride;
            addExtent(out, block, len);
        }
        return;
    }
    const std::int64_t span = stride * (count - 1);
    const std::int64_t lo = std::min<std::int64_t>(0, span);
    const std::int64_t hi = std::max<std::int64_t>(0, span) + len;
    addRegion(out, addr, lo, hi);
}

OpEffects
computeEffects(const MetaOp &op, const CimArchitecture &arch)
{
    OpEffects fx;
    switch (op.kind) {
      case MetaOpKind::kWriteCore:
        fx.core_writes.push_back(op.core);
        break;
      case MetaOpKind::kReadCore: {
        fx.core_reads.push_back(op.core);
        const CoreOpParams &p = op.core_params;
        if (p.is_conv) {
            const std::int64_t OH =
                convOutDim(p.in_h, p.kernel, p.stride, p.padding);
            const std::int64_t OW =
                convOutDim(p.in_w, p.kernel, p.stride, p.padding);
            if (OH <= 0 || OW <= 0)
                break;
            addExtent(&fx.reads, op.src,
                      p.in_channels * p.in_h * p.in_w);
            const std::int64_t w0 = p.win_begin;
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : OH;
            for (std::int64_t o = 0; o < p.out_channels; ++o) {
                addRegion(&fx.writes, op.dst, (o * OH + w0) * OW,
                          (o * OH + w1) * OW);
            }
        } else {
            const std::int64_t w0 = p.win_begin;
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : 1;
            addRegion(&fx.reads, op.src, w0 * p.in_features,
                      w1 * p.in_features);
            addRegion(&fx.writes, op.dst, w0 * p.out_features,
                      w1 * p.out_features);
        }
        break;
      }
      case MetaOpKind::kReadXb: {
        fx.xb_reads.push_back(XbRef{op.core, op.xb, 0, op.rows});
        addExtent(&fx.reads, op.src, op.rows);
        addExtent(&fx.accums, op.dst, op.cols);
        break;
      }
      case MetaOpKind::kReadRow: {
        fx.xb_reads.push_back(
            XbRef{op.core, op.xb, op.row, op.row + op.len});
        addExtent(&fx.reads, op.src, op.len);
        addExtent(&fx.accums, op.dst, op.cols);
        break;
      }
      case MetaOpKind::kWriteXb:
      case MetaOpKind::kWriteRow: {
        const std::int64_t row_base =
            op.kind == MetaOpKind::kWriteRow ? op.row : 0;
        // With a payload the programmed rows are its rows; compressed
        // flows omit payloads, so fall back to the op's row count.
        std::int64_t rows = op.len;
        if (op.payload && op.payload->shape().rank() > 0)
            rows = op.payload->shape().dim(0);
        if (rows > 0) {
            fx.xb_writes.push_back(
                XbRef{op.core, op.xb, row_base, row_base + rows});
        }
        break;
      }
      case MetaOpKind::kDcom: {
        const DcomParams &p = op.dcom_params;
        if (op.func == dcomfunc::kZero) {
            addExtent(&fx.writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kRelu ||
                   op.func == dcomfunc::kRequant ||
                   op.func == dcomfunc::kSoftmax ||
                   op.func == dcomfunc::kLayerNorm ||
                   op.func == dcomfunc::kGelu) {
            addExtent(&fx.reads, op.src, op.len);
            addExtent(&fx.writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kAdd) {
            addExtent(&fx.reads, op.src, op.len);
            addExtent(&fx.reads, op.src2, op.len);
            addExtent(&fx.writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kMaxPool ||
                   op.func == dcomfunc::kAvgPool) {
            addExtent(&fx.reads, op.src,
                      p.channels * p.in_h * p.in_w);
            const std::int64_t oh =
                convOutDim(p.in_h, p.kernel, p.stride, p.padding);
            const std::int64_t ow =
                convOutDim(p.in_w, p.kernel, p.stride, p.padding);
            if (oh > 0 && ow > 0)
                addExtent(&fx.writes, op.dst, p.channels * oh * ow);
        } else if (op.func == dcomfunc::kGlobalAvgPool) {
            addExtent(&fx.reads, op.src,
                      p.channels * p.in_h * p.in_w);
            addExtent(&fx.writes, op.dst, p.channels);
        } else if (op.func == dcomfunc::kMatMul) {
            const std::int64_t m = p.in_h, k = p.in_w, n = p.channels;
            addExtent(&fx.reads, op.src, m * k);
            addExtent(&fx.reads, op.src2, k * n);
            addExtent(&fx.writes, op.dst, m * n);
        }
        // Unknown functions are reported by the structural pass.
        break;
      }
      case MetaOpKind::kMov: {
        addStrided(&fx.reads, op.src, op.len, op.count, op.src_stride);
        addStrided(&fx.writes, op.dst, op.len, op.count, op.dst_stride);
        break;
      }
    }
    (void)arch;
    return fx;
}

/** Aggregated accesses of one parallel arm, for race detection. Records
 * point at their op; its text is rendered only for a finding. */
struct ArmSummary {
    struct Access {
        BufKey key;
        IntervalSet set;
        const MetaOp *op = nullptr; //!< representative op
    };
    struct XbAccess {
        std::int64_t core = 0, xb = 0;
        IntervalSet set;
        const MetaOp *op = nullptr;
    };
    std::vector<Access> reads, writes, accums;
    std::vector<XbAccess> xb_reads, xb_writes;
    std::vector<std::pair<std::int64_t, const MetaOp *>> core_reads;
    std::vector<std::pair<std::int64_t, const MetaOp *>> core_writes;
};

bool
sameAddrText(const BufAddr &a, const BufAddr &b)
{
    // An L0 address prints no core.
    return a.space == b.space && a.offset == b.offset &&
           (a.space == MemSpace::kL0 || a.core == b.core);
}

bool
sameCoreParamsText(const CoreOpParams &a, const CoreOpParams &b)
{
    if (a.is_conv != b.is_conv || a.win_begin != b.win_begin ||
        a.win_end != b.win_end)
        return false;
    if (!a.is_conv) {
        return a.in_features == b.in_features &&
               a.out_features == b.out_features;
    }
    return a.in_channels == b.in_channels && a.in_h == b.in_h &&
           a.in_w == b.in_w && a.out_channels == b.out_channels &&
           a.kernel == b.kernel && a.stride == b.stride &&
           a.padding == b.padding;
}

bool
samePayloadText(const std::shared_ptr<const Int8Tensor> &a,
                const std::shared_ptr<const Int8Tensor> &b)
{
    if (a && b)
        return a->shape() == b->shape();
    if (!a && !b)
        return true;
    // A missing payload prints "[]", like a rank-0 shape.
    return (a ? a : b)->shape().rank() == 0;
}

/**
 * Whether two ops render the same MetaOp::toString() text, decided on
 * the fields it prints, so the check costs no formatting.
 */
bool
samePrintedText(const MetaOp &a, const MetaOp &b)
{
    if (&a == &b)
        return true;
    if (a.kind != b.kind ||
        (a.kind == MetaOpKind::kDcom && a.func != b.func)) {
        // Every rendering opens with its mnemonic (a DCOM's function
        // name) and '(', so different heads print different text unless
        // a function name contains '(' or spells another op's mnemonic.
        const auto odd = [](const MetaOp &x, const MetaOp &y) {
            return x.kind == MetaOpKind::kDcom &&
                   (x.func.find('(') != std::string::npos ||
                    (y.kind != MetaOpKind::kDcom &&
                     x.func == metaOpKindName(y.kind)));
        };
        return (odd(a, b) || odd(b, a)) && a.toString() == b.toString();
    }
    switch (a.kind) {
      case MetaOpKind::kReadCore:
        return a.core == b.core &&
               sameCoreParamsText(a.core_params, b.core_params) &&
               sameAddrText(a.src, b.src) && sameAddrText(a.dst, b.dst);
      case MetaOpKind::kWriteCore:
        return a.core == b.core &&
               sameCoreParamsText(a.core_params, b.core_params) &&
               samePayloadText(a.payload, b.payload);
      case MetaOpKind::kReadXb:
        return a.core == b.core && a.xb == b.xb && a.len == b.len &&
               a.rows == b.rows && a.cols == b.cols &&
               sameAddrText(a.src, b.src) && sameAddrText(a.dst, b.dst);
      case MetaOpKind::kWriteXb:
        return a.core == b.core && a.xb == b.xb &&
               samePayloadText(a.payload, b.payload);
      case MetaOpKind::kReadRow:
        return a.core == b.core && a.xb == b.xb && a.row == b.row &&
               a.len == b.len && a.cols == b.cols &&
               sameAddrText(a.src, b.src) && sameAddrText(a.dst, b.dst);
      case MetaOpKind::kWriteRow:
        return a.core == b.core && a.xb == b.xb && a.row == b.row &&
               a.len == b.len && samePayloadText(a.payload, b.payload);
      case MetaOpKind::kDcom: {
        if (a.host != b.host || a.len != b.len ||
            !sameAddrText(a.src, b.src) || !sameAddrText(a.dst, b.dst))
            return false;
        const DcomParams &p = a.dcom_params, &q = b.dcom_params;
        if (a.func == dcomfunc::kAdd || a.func == dcomfunc::kMatMul)
            return sameAddrText(a.src2, b.src2);
        if (a.func == dcomfunc::kRequant)
            return p.shift == q.shift;
        if (a.func == dcomfunc::kMaxPool || a.func == dcomfunc::kAvgPool ||
            a.func == dcomfunc::kGlobalAvgPool) {
            return p.kernel == q.kernel && p.stride == q.stride &&
                   p.padding == q.padding && p.channels == q.channels &&
                   p.in_h == q.in_h && p.in_w == q.in_w;
        }
        if (a.func == dcomfunc::kSoftmax || a.func == dcomfunc::kLayerNorm)
            return p.in_w == q.in_w;
        return true;
      }
      case MetaOpKind::kMov:
        if (a.host != b.host || a.len != b.len ||
            !sameAddrText(a.src, b.src) || !sameAddrText(a.dst, b.dst) ||
            (a.count > 1) != (b.count > 1))
            return false;
        return a.count <= 1 ||
               (a.count == b.count && a.src_stride == b.src_stride &&
                a.dst_stride == b.dst_stride);
    }
    return a.toString() == b.toString();
}

/** The two ops' texts, the lexicographically smaller first, so race
 * messages do not depend on arm order. */
std::pair<std::string, std::string>
sortedTexts(const MetaOp &a, const MetaOp &b)
{
    std::string lo = a.toString(), hi = b.toString();
    if (hi < lo)
        std::swap(lo, hi);
    return {std::move(lo), std::move(hi)};
}

/** The program section a statement sits in. Live-in regions are
 * defined before either section and report none. */
enum class Section : std::uint8_t { kLiveIn, kInit, kCompute };

const char *
sectionName(Section section)
{
    switch (section) {
      case Section::kLiveIn: return "";
      case Section::kInit: return "init";
      case Section::kCompute: return "compute";
    }
    return "";
}

/** Counts the statement and op nodes under @p stmts, once each. */
void
countStmts(const std::vector<Stmt> &stmts, std::int64_t *statements,
           std::int64_t *ops)
{
    for (const Stmt &stmt : stmts) {
        ++*statements;
        if (stmt.kind == Stmt::Kind::kOp)
            ++*ops;
        else
            countStmts(stmt.body, statements, ops);
    }
}

class Analyzer
{
  public:
    Analyzer(const CimArchitecture &arch, const AnalyzeOptions &options)
        : arch_(arch), options_(options)
    {
    }

    void
    run(const MopProgram &program, AnalyzeResult *result)
    {
        for (const LiveInRegion &region : options_.live_in) {
            BufKey key;
            key.space = region.space;
            key.core = region.space == MemSpace::kL1 ? region.core : 0;
            defined_[key].add(region.begin, region.end);
            if (region.begin < region.end) {
                events_[key].push_back(Event{-1, true, region.begin,
                                             region.end, Section::kLiveIn,
                                             -1});
            }
        }

        section_ = Section::kInit;
        walkStmts(program.init(), 0);
        section_ = Section::kCompute;
        walkStmts(program.compute(), 0);

        countStmts(program.init(), &result->statements, &result->ops);
        countStmts(program.compute(), &result->statements, &result->ops);
        finish(result);
    }

  private:
    struct Event {
        std::int64_t t = 0;
        bool is_def = false;
        std::int64_t begin = 0, end = 0;
        Section section = Section::kLiveIn;
        std::int64_t index = -1;
    };

    /** A plain write whose value is not yet fully overwritten. The
     * still-pending element ranges live in the per-buffer slice map;
     * the store just counts them so retirement is O(overlap). */
    struct PendingStore {
        std::int64_t remaining = 0; //!< pending elements left
        bool any_read = false;
        const MetaOp *op = nullptr;
        Section section = Section::kLiveIn;
        std::int64_t index = -1;
    };

    /** Contiguous pending range [map key, end) owned by one store. */
    struct StoreSlice {
        std::int64_t end = 0;
        std::size_t store = 0; //!< index into store_pool_
    };

    struct XbStore {
        IntervalSet pending; //!< programmed rows not yet overwritten
        bool any_read = false;
        const MetaOp *op = nullptr;
        Section section = Section::kLiveIn;
        std::int64_t index = -1;
    };

    struct CoreStore {
        bool any_read = false;
        const MetaOp *op = nullptr;
        Section section = Section::kLiveIn;
        std::int64_t index = -1;
    };

    /** Snapshot-based definition view for parallel arms: reads check
     * the pre-block state plus the arm's own defs, never a sibling's. */
    struct ArmCtx {
        const std::map<BufKey, IntervalSet> *base_defined = nullptr;
        std::map<BufKey, IntervalSet> *arm_defined = nullptr;
        const std::map<std::pair<std::int64_t, std::int64_t>,
                       IntervalSet> *base_xb = nullptr;
        std::map<std::pair<std::int64_t, std::int64_t>, IntervalSet>
            *arm_xb = nullptr;
        const std::set<std::int64_t> *base_cores = nullptr;
        std::set<std::int64_t> *arm_cores = nullptr;
        std::int64_t anchor = -1;
    };

    /** Walks @p stmts whose first statement has pre-order index
     * @p index within the section; returns the index after them. */
    std::int64_t
    walkStmts(const std::vector<Stmt> &stmts, std::int64_t index)
    {
        for (const Stmt &stmt : stmts) {
            switch (stmt.kind) {
              case Stmt::Kind::kOp:
                processOp(stmt.op, index++, nullptr);
                ++time_;
                break;
              case Stmt::Kind::kParallel:
                index = walkParallel(stmt, index);
                break;
              case Stmt::Kind::kRepeat: {
                // Two passes expose loop-carried dataflow (a store at
                // the end of the body read at the start of the next
                // iteration) without unrolling; both passes number the
                // body alike, so findings dedup.
                const int passes = stmt.repeat > 1 ? 2 : 1;
                std::int64_t next = index + 1;
                for (int p = 0; p < passes; ++p)
                    next = walkStmts(stmt.body, index + 1);
                index = next;
                break;
              }
            }
        }
        return index;
    }

    /** Walks one arm's statement tree; returns its node count. */
    std::int64_t
    walkArm(const Stmt &stmt, ArmCtx *ctx)
    {
        if (stmt.kind == Stmt::Kind::kOp) {
            processOp(stmt.op, ctx->anchor, ctx);
            return 1;
        }
        // Nested blocks are structurally rejected; recurse anyway.
        std::int64_t nodes = 1;
        for (const Stmt &sub : stmt.body)
            nodes += walkArm(sub, ctx);
        return nodes;
    }

    void
    summarizeArm(const Stmt &stmt, ArmSummary *out)
    {
        if (stmt.kind != Stmt::Kind::kOp) {
            for (const Stmt &sub : stmt.body)
                summarizeArm(sub, out);
            return;
        }
        const MetaOp &op = stmt.op;
        const OpEffects fx = computeEffects(op, arch_);
        auto addAccesses = [&](const std::vector<RegionRef> &refs,
                               std::vector<ArmSummary::Access> *dst) {
            for (const RegionRef &r : refs) {
                ArmSummary::Access access;
                access.key = r.key;
                access.set.add(r.begin, r.end);
                access.op = &op;
                // Merge consecutive accesses of the same key by ops of
                // the same text, so a strided mov stays one record.
                if (!dst->empty() && dst->back().key == r.key &&
                    samePrintedText(*dst->back().op, op)) {
                    dst->back().set.add(r.begin, r.end);
                } else {
                    dst->push_back(std::move(access));
                }
            }
        };
        addAccesses(fx.reads, &out->reads);
        addAccesses(fx.writes, &out->writes);
        addAccesses(fx.accums, &out->accums);
        for (const XbRef &x : fx.xb_reads) {
            ArmSummary::XbAccess access;
            access.core = x.core;
            access.xb = x.xb;
            access.set.add(x.begin, x.end);
            access.op = &op;
            out->xb_reads.push_back(std::move(access));
        }
        for (const XbRef &x : fx.xb_writes) {
            ArmSummary::XbAccess access;
            access.core = x.core;
            access.xb = x.xb;
            access.set.add(x.begin, x.end);
            access.op = &op;
            out->xb_writes.push_back(std::move(access));
        }
        for (std::int64_t core : fx.core_reads)
            out->core_reads.emplace_back(core, &op);
        for (std::int64_t core : fx.core_writes)
            out->core_writes.emplace_back(core, &op);
    }

    // ----- diagnostics plumbing ---------------------------------------

    void
    finalize(MopDiagnostic diag)
    {
        const std::string dedup_key =
            strformat("%d|%s|%s|%lld|%s",
                      static_cast<int>(diag.severity), diag.check.c_str(),
                      diag.section.c_str(),
                      static_cast<long long>(diag.stmt_index),
                      diag.message.c_str());
        if (!seen_.insert(dedup_key).second)
            return;
        diags_.push_back(std::move(diag));
    }

    void
    record(MopDiagnostic diag)
    {
        if (block_diags_ != nullptr)
            block_diags_->push_back(std::move(diag));
        else
            finalize(std::move(diag));
    }

    MopDiagnostic
    makeDiag(DiagSeverity severity, const char *check_id, StatusCode code,
             std::int64_t index, std::string message)
    {
        MopDiagnostic diag;
        diag.severity = severity;
        diag.check = check_id;
        diag.section = sectionName(section_);
        diag.stmt_index = index;
        diag.code = code;
        diag.message = std::move(message);
        return diag;
    }

    // ----- per-op dataflow --------------------------------------------

    /** Split the slice straddling @p pos so no slice crosses it. */
    static void
    splitSliceAt(std::map<std::int64_t, StoreSlice> &slices,
                 std::int64_t pos)
    {
        auto it = slices.upper_bound(pos);
        if (it == slices.begin())
            return;
        --it;
        if (it->first >= pos || it->second.end <= pos)
            return;
        StoreSlice tail = it->second;
        it->second.end = pos;
        slices.emplace(pos, tail);
    }

    /** Dataflow of one op. Findings anchor at statement index @p at,
     * which inside a parallel arm is the block's index. */
    void
    processOp(const MetaOp &op, std::int64_t at, ArmCtx *ctx)
    {
        const OpEffects fx = computeEffects(op, arch_);

        // 1. use-before-def on buffer regions (executable flows only:
        //    compressed templates only show window 0, so cross-window
        //    region dataflow is not statically meaningful).
        if (options_.executable) {
            auto checkDefined = [&](const RegionRef &r,
                                    const char *verb) {
                IntervalSet missing = definedView(r, ctx);
                if (missing.empty())
                    return;
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdBuffer,
                    StatusCode::kFailedPrecondition, at,
                    strformat("%s %s %s which is never written",
                              op.toString().c_str(), verb,
                              regionName(r.key, missing.first())
                                  .c_str())));
            };
            for (const RegionRef &r : fx.reads)
                checkDefined(r, "reads");
            for (const RegionRef &r : fx.accums)
                checkDefined(r, "accumulates into");
        }

        // 2. use-before-def on crossbar weights.
        for (const XbRef &x : fx.xb_reads) {
            IntervalSet missing = xbView(x, ctx);
            if (!missing.empty()) {
                const Interval gap = missing.first();
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdXbar,
                    StatusCode::kFailedPrecondition, at,
                    strformat("%s activates rows [%lld, %lld) of "
                              "crossbar %s but rows [%lld, %lld) were "
                              "never programmed",
                              op.toString().c_str(),
                              static_cast<long long>(x.begin),
                              static_cast<long long>(x.end),
                              xbName(x.core, x.xb).c_str(),
                              static_cast<long long>(gap.begin),
                              static_cast<long long>(gap.end))));
            }
            // The read consumes pending programming.
            auto stores = xb_stores_.find({x.core, x.xb});
            if (stores != xb_stores_.end()) {
                for (XbStore &store : stores->second) {
                    if (store.pending.intersects(x.begin, x.end))
                        store.any_read = true;
                }
            }
        }

        // 3. use-before-def on core state.
        for (std::int64_t core : fx.core_reads) {
            const bool programmed =
                ctx != nullptr
                    ? (ctx->base_cores->count(core) > 0 ||
                       ctx->arm_cores->count(core) > 0)
                    : cores_programmed_.count(core) > 0;
            if (!programmed) {
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdCore,
                    StatusCode::kFailedPrecondition, at,
                    strformat("%s runs on core %lld whose weights were "
                              "never installed",
                              op.toString().c_str(),
                              static_cast<long long>(core))));
            }
            auto it = core_stores_.find(core);
            if (it != core_stores_.end())
                it->second.any_read = true;
        }

        // 4. dead-store bookkeeping: reads acquit pending stores,
        //    plain writes retire them. The slice maps keep every
        //    operation proportional to the ranges actually overlapped.
        if (options_.executable) {
            auto markReads = [&](const std::vector<RegionRef> &refs) {
                for (const RegionRef &r : refs) {
                    auto it = stores_.find(r.key);
                    if (it == stores_.end())
                        continue;
                    auto &slices = it->second;
                    auto s = slices.upper_bound(r.begin);
                    if (s != slices.begin() &&
                        std::prev(s)->second.end > r.begin)
                        --s;
                    for (; s != slices.end() && s->first < r.end; ++s)
                        store_pool_[s->second.store].any_read = true;
                }
            };
            markReads(fx.reads);
            markReads(fx.accums);
            for (const RegionRef &w : fx.writes) {
                auto it = stores_.find(w.key);
                if (it == stores_.end())
                    continue;
                auto &slices = it->second;
                splitSliceAt(slices, w.begin);
                splitSliceAt(slices, w.end);
                auto s = slices.lower_bound(w.begin);
                while (s != slices.end() && s->first < w.end) {
                    PendingStore &store = store_pool_[s->second.store];
                    store.remaining -= s->second.end - s->first;
                    if (store.remaining == 0 && !store.any_read) {
                        MopDiagnostic diag;
                        diag.severity = DiagSeverity::kWarning;
                        diag.check = check::kDeadStore;
                        diag.section = sectionName(store.section);
                        diag.stmt_index = store.index;
                        diag.code = StatusCode::kFailedPrecondition;
                        diag.message = strformat(
                            "%s is fully overwritten by %s before any "
                            "read",
                            store.op->toString().c_str(),
                            op.toString().c_str());
                        record(std::move(diag));
                    }
                    s = slices.erase(s);
                }
            }
            // Each plain write opens a pending store per buffer.
            std::map<BufKey, IntervalSet> written;
            for (const RegionRef &w : fx.writes)
                written[w.key].add(w.begin, w.end);
            for (auto &[key, set] : written) {
                PendingStore store;
                for (const Interval &iv : set.intervals())
                    store.remaining += iv.end - iv.begin;
                store.op = &op;
                store.section = section_;
                store.index = at;
                const std::size_t id = store_pool_.size();
                store_pool_.push_back(std::move(store));
                auto &slices = stores_[key];
                for (const Interval &iv : set.intervals())
                    slices.insert_or_assign(iv.begin,
                                            StoreSlice{iv.end, id});
            }
        }

        // 5. writes and accumulates define their regions.
        {
            auto *defs = ctx != nullptr ? ctx->arm_defined : &defined_;
            for (const RegionRef &w : fx.writes)
                (*defs)[w.key].add(w.begin, w.end);
            for (const RegionRef &a : fx.accums)
                (*defs)[a.key].add(a.begin, a.end);
        }

        // 6. crossbar programming: retire older unread programming of
        //    the same rows (weights replaced between program and use).
        for (const XbRef &x : fx.xb_writes) {
            xbars_programmed_count_.insert({x.core, x.xb});
            std::vector<XbStore> &list = xb_stores_[{x.core, x.xb}];
            for (XbStore &store : list) {
                if (!store.pending.intersects(x.begin, x.end))
                    continue;
                store.pending.subtract(x.begin, x.end);
                // Compressed templates only activate the representative
                // replica's crossbars, so "never used" is only provable
                // on executable flows.
                if (options_.executable && store.pending.empty() &&
                    !store.any_read) {
                    MopDiagnostic diag;
                    diag.severity = DiagSeverity::kError;
                    diag.check = check::kXbarOverwrite;
                    diag.section = sectionName(store.section);
                    diag.stmt_index = store.index;
                    diag.code = StatusCode::kFailedPrecondition;
                    diag.message = strformat(
                        "%s programs crossbar %s but is overwritten by "
                        "%s before the weights are ever used",
                        store.op->toString().c_str(),
                        xbName(x.core, x.xb).c_str(),
                        op.toString().c_str());
                    record(std::move(diag));
                }
            }
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [](const XbStore &s) {
                                          return s.pending.empty();
                                      }),
                       list.end());
            XbStore store;
            store.pending.add(x.begin, x.end);
            store.op = &op;
            store.section = section_;
            store.index = at;
            list.push_back(std::move(store));

            auto *xb = ctx != nullptr ? ctx->arm_xb : &xb_programmed_;
            (*xb)[{x.core, x.xb}].add(x.begin, x.end);
        }

        // 7. core-state installs.
        for (std::int64_t core : fx.core_writes) {
            auto it = core_stores_.find(core);
            if (options_.executable && it != core_stores_.end() &&
                !it->second.any_read) {
                MopDiagnostic diag;
                diag.severity = DiagSeverity::kWarning;
                diag.check = check::kCoreOverwrite;
                diag.section = sectionName(it->second.section);
                diag.stmt_index = it->second.index;
                diag.code = StatusCode::kFailedPrecondition;
                diag.message = strformat(
                    "%s installs weights on core %lld that %s replaces "
                    "before any use",
                    it->second.op->toString().c_str(),
                    static_cast<long long>(core), op.toString().c_str());
                record(std::move(diag));
            }
            CoreStore store;
            store.op = &op;
            store.section = section_;
            store.index = at;
            core_stores_[core] = std::move(store);
            if (ctx != nullptr)
                ctx->arm_cores->insert(core);
            else
                cores_programmed_.insert(core);
        }

        // 8. capacity events: defs and uses at this op's timestamp.
        for (const RegionRef &w : fx.writes)
            events_[w.key].push_back(
                Event{time_, true, w.begin, w.end, section_, at});
        for (const RegionRef &a : fx.accums) {
            events_[a.key].push_back(
                Event{time_, true, a.begin, a.end, section_, at});
            events_[a.key].push_back(
                Event{time_, false, a.begin, a.end, section_, at});
        }
        for (const RegionRef &r : fx.reads)
            events_[r.key].push_back(
                Event{time_, false, r.begin, r.end, section_, at});
    }

    /** Missing parts of a read region given the active definition view. */
    IntervalSet
    definedView(const RegionRef &r, const ArmCtx *ctx) const
    {
        const auto &base = ctx != nullptr ? *ctx->base_defined : defined_;
        IntervalSet missing;
        auto it = base.find(r.key);
        if (it != base.end())
            missing = it->second.uncovered(r.begin, r.end);
        else
            missing.add(r.begin, r.end);
        if (ctx != nullptr) {
            auto own = ctx->arm_defined->find(r.key);
            if (own != ctx->arm_defined->end())
                missing.subtractSet(own->second);
        }
        return missing;
    }

    /** Missing rows of a crossbar read given the active view. */
    IntervalSet
    xbView(const XbRef &x, const ArmCtx *ctx) const
    {
        const auto &base = ctx != nullptr ? *ctx->base_xb : xb_programmed_;
        IntervalSet missing;
        auto it = base.find({x.core, x.xb});
        if (it != base.end())
            missing = it->second.uncovered(x.begin, x.end);
        else
            missing.add(x.begin, x.end);
        if (ctx != nullptr) {
            auto own = ctx->arm_xb->find({x.core, x.xb});
            if (own != ctx->arm_xb->end())
                missing.subtractSet(own->second);
        }
        return missing;
    }

    // ----- parallel blocks --------------------------------------------

    /** Access category for the conflict sweep. */
    enum class Cat { kWrite, kAccum, kRead };

    /** One interval endpoint in the conflict sweep. */
    struct SweepEv {
        std::int64_t pos = 0;
        int delta = 0; //!< +1 opens an interval, -1 closes it
        int arm = 0;
        Cat cat = Cat::kRead;
    };

    /**
     * True if any two records from different arms overlap in a racy
     * combination: write/write, write/accum, write/read, accum/read
     * (accum/accum commutes, read/read is harmless). Endpoint sweep
     * with closes ordered before opens, so half-open adjacency does
     * not count as overlap.
     */
    static bool
    sweepConflict(std::vector<SweepEv> &evs)
    {
        std::sort(evs.begin(), evs.end(),
                  [](const SweepEv &a, const SweepEv &b) {
                      if (a.pos != b.pos)
                          return a.pos < b.pos;
                      return a.delta < b.delta;
                  });
        std::map<int, int> w, a, r; // arm -> open interval count
        auto touch = [](std::map<int, int> &m, int arm, int d) {
            auto it = m.emplace(arm, 0).first;
            it->second += d;
            if (it->second == 0)
                m.erase(it);
        };
        for (const SweepEv &ev : evs) {
            switch (ev.cat) {
              case Cat::kWrite: touch(w, ev.arm, ev.delta); break;
              case Cat::kAccum: touch(a, ev.arm, ev.delta); break;
              case Cat::kRead: touch(r, ev.arm, ev.delta); break;
            }
            if (ev.delta < 0)
                continue; // state can only turn racy on an open
            if (w.size() >= 2)
                return true;
            if (w.size() == 1) {
                const int warm = w.begin()->first;
                if (!a.empty() &&
                    (a.size() >= 2 || a.begin()->first != warm))
                    return true;
                if (!r.empty() &&
                    (r.size() >= 2 || r.begin()->first != warm))
                    return true;
            } else if (!a.empty() && !r.empty()) {
                if (a.size() >= 2 || r.size() >= 2 ||
                    a.begin()->first != r.begin()->first)
                    return true;
            }
        }
        return false;
    }

    /** Whether any pair of arms has a racy overlap anywhere: buffer
     * regions, crossbar rows, or core state. Detection only — the
     * pairwise pass renders the actual diagnostics. */
    static bool
    mayConflict(const std::vector<ArmSummary> &summaries)
    {
        std::map<BufKey, std::vector<SweepEv>> buf;
        std::map<std::pair<std::int64_t, std::int64_t>,
                 std::vector<SweepEv>>
            xb;
        std::map<std::int64_t, std::set<int>> core_w, core_r;
        for (std::size_t i = 0; i < summaries.size(); ++i) {
            const int arm = static_cast<int>(i);
            const ArmSummary &s = summaries[i];
            auto addBuf = [&](const std::vector<ArmSummary::Access> &as,
                              Cat cat) {
                for (const ArmSummary::Access &acc : as) {
                    auto &evs = buf[acc.key];
                    for (const Interval &iv : acc.set.intervals()) {
                        evs.push_back(SweepEv{iv.begin, 1, arm, cat});
                        evs.push_back(SweepEv{iv.end, -1, arm, cat});
                    }
                }
            };
            addBuf(s.writes, Cat::kWrite);
            addBuf(s.accums, Cat::kAccum);
            addBuf(s.reads, Cat::kRead);
            auto addXb = [&](const std::vector<ArmSummary::XbAccess> &xs,
                             Cat cat) {
                for (const ArmSummary::XbAccess &acc : xs) {
                    auto &evs = xb[{acc.core, acc.xb}];
                    for (const Interval &iv : acc.set.intervals()) {
                        evs.push_back(SweepEv{iv.begin, 1, arm, cat});
                        evs.push_back(SweepEv{iv.end, -1, arm, cat});
                    }
                }
            };
            addXb(s.xb_writes, Cat::kWrite);
            addXb(s.xb_reads, Cat::kRead);
            for (const auto &[core, op] : s.core_writes)
                core_w[core].insert(arm);
            for (const auto &[core, op] : s.core_reads)
                core_r[core].insert(arm);
        }
        for (const auto &[core, writers] : core_w) {
            if (writers.size() >= 2)
                return true;
            const auto readers = core_r.find(core);
            if (readers != core_r.end() &&
                (readers->second.size() >= 2 ||
                 *readers->second.begin() != *writers.begin()))
                return true;
        }
        for (auto &[key, evs] : buf) {
            if (sweepConflict(evs))
                return true;
        }
        for (auto &[key, evs] : xb) {
            if (sweepConflict(evs))
                return true;
        }
        return false;
    }

    /** Walks the parallel @p block at index @p anchor; returns the
     * index after its subtree. */
    std::int64_t
    walkParallel(const Stmt &block, std::int64_t anchor)
    {
        std::int64_t next = anchor + 1;
        std::vector<MopDiagnostic> local;
        std::vector<MopDiagnostic> *saved = block_diags_;
        block_diags_ = &local;

        // Race detection over aggregated arm footprints. A linear
        // endpoint sweep decides whether any conflicting overlap
        // exists at all; only then does the quadratic pairwise pass
        // run to produce the canonical (arm-order-invariant) report.
        // Clean blocks — the overwhelming majority — stay O(E log E).
        std::vector<ArmSummary> summaries(block.body.size());
        for (std::size_t i = 0; i < block.body.size(); ++i)
            summarizeArm(block.body[i], &summaries[i]);
        if (mayConflict(summaries)) {
            for (std::size_t i = 0; i < summaries.size(); ++i) {
                for (std::size_t j = i + 1; j < summaries.size(); ++j)
                    checkArmPair(summaries[i], summaries[j], anchor);
            }
        }

        // Dataflow per arm against the pre-block state: arms may
        // execute in any order, so no arm may depend on a sibling.
        // Sibling defs are staged and merged only after every arm has
        // run, so the global maps stay the pre-block view throughout
        // (no per-block snapshot copies).
        std::map<BufKey, IntervalSet> merged_defined;
        std::map<std::pair<std::int64_t, std::int64_t>, IntervalSet>
            merged_xb;
        std::set<std::int64_t> merged_cores;
        for (const Stmt &arm : block.body) {
            std::map<BufKey, IntervalSet> arm_defined;
            std::map<std::pair<std::int64_t, std::int64_t>, IntervalSet>
                arm_xb;
            std::set<std::int64_t> arm_cores;
            ArmCtx ctx;
            ctx.base_defined = &defined_;
            ctx.arm_defined = &arm_defined;
            ctx.base_xb = &xb_programmed_;
            ctx.arm_xb = &arm_xb;
            ctx.base_cores = &cores_programmed_;
            ctx.arm_cores = &arm_cores;
            ctx.anchor = anchor;
            next += walkArm(arm, &ctx);
            for (auto &[key, set] : arm_defined)
                merged_defined[key].addSet(set);
            for (auto &[key, set] : arm_xb)
                merged_xb[key].addSet(set);
            merged_cores.insert(arm_cores.begin(), arm_cores.end());
        }
        for (auto &[key, set] : merged_defined)
            defined_[key].addSet(set);
        for (auto &[key, set] : merged_xb)
            xb_programmed_[key].addSet(set);
        cores_programmed_.insert(merged_cores.begin(),
                                 merged_cores.end());
        ++time_; // all arms share one timestamp

        // Canonical order: findings inside a block are invariant under
        // arm permutation.
        block_diags_ = saved;
        std::sort(local.begin(), local.end(),
                  [](const MopDiagnostic &a, const MopDiagnostic &b) {
                      return std::tie(a.check, a.message, a.section,
                                      a.stmt_index) <
                             std::tie(b.check, b.message, b.section,
                                      b.stmt_index);
                  });
        for (MopDiagnostic &diag : local)
            record(std::move(diag));
        return next;
    }

    /** Lexicographically smallest conflict message between two arms'
     * access lists, so the report is arm-order invariant. */
    template <typename A, typename B, typename Render>
    std::optional<std::string>
    bestConflict(const std::vector<A> &lhs, const std::vector<B> &rhs,
                 const Render &render) const
    {
        std::optional<std::string> best;
        for (const A &a : lhs) {
            for (const B &b : rhs) {
                std::optional<std::string> message = render(a, b);
                if (message && (!best || *message < *best))
                    best = std::move(message);
            }
        }
        return best;
    }

    void
    checkArmPair(const ArmSummary &a, const ArmSummary &b,
                 std::int64_t anchor)
    {
        auto regionConflict = [&](const ArmSummary::Access &x,
                                  const ArmSummary::Access &y,
                                  const char *what)
            -> std::optional<std::string> {
            if (!(x.key == y.key))
                return std::nullopt;
            auto overlap = x.set.firstOverlap(y.set);
            if (!overlap)
                return std::nullopt;
            const auto [lo, hi] = sortedTexts(*x.op, *y.op);
            return strformat("parallel arms %s on %s: %s vs %s", what,
                             regionName(x.key, *overlap).c_str(),
                             lo.c_str(), hi.c_str());
        };
        auto raceDiag = [&](const char *check_id, std::string message) {
            record(makeDiag(DiagSeverity::kError, check_id,
                            StatusCode::kInvalidArgument, anchor,
                            std::move(message)));
        };

        // Plain writes conflict with everything except reads they do
        // not overlap; accumulates commute with each other but not
        // with plain writes or reads.
        auto ww = [&](const ArmSummary::Access &x,
                      const ArmSummary::Access &y) {
            return regionConflict(x, y, "overlapping writes");
        };
        auto wa = [&](const ArmSummary::Access &x,
                      const ArmSummary::Access &y) {
            return regionConflict(x, y, "write vs accumulate");
        };
        auto wr = [&](const ArmSummary::Access &x,
                      const ArmSummary::Access &y) {
            return regionConflict(x, y, "write vs read");
        };
        auto ar = [&](const ArmSummary::Access &x,
                      const ArmSummary::Access &y) {
            return regionConflict(x, y, "accumulate vs read");
        };
        if (auto m = bestConflict(a.writes, b.writes, ww))
            raceDiag(check::kRaceWriteWrite, std::move(*m));
        if (auto m = bestConflict(a.writes, b.accums, wa))
            raceDiag(check::kRaceWriteWrite, std::move(*m));
        if (auto m = bestConflict(a.accums, b.writes, wa))
            raceDiag(check::kRaceWriteWrite, std::move(*m));
        if (auto m = bestConflict(a.writes, b.reads, wr))
            raceDiag(check::kRaceReadWrite, std::move(*m));
        if (auto m = bestConflict(a.reads, b.writes, wr))
            raceDiag(check::kRaceReadWrite, std::move(*m));
        if (auto m = bestConflict(a.accums, b.reads, ar))
            raceDiag(check::kRaceReadWrite, std::move(*m));
        if (auto m = bestConflict(a.reads, b.accums, ar))
            raceDiag(check::kRaceReadWrite, std::move(*m));

        auto xbConflict = [&](const ArmSummary::XbAccess &x,
                              const ArmSummary::XbAccess &y,
                              const char *what)
            -> std::optional<std::string> {
            if (x.core != y.core || x.xb != y.xb)
                return std::nullopt;
            auto overlap = x.set.firstOverlap(y.set);
            if (!overlap)
                return std::nullopt;
            const auto [lo, hi] = sortedTexts(*x.op, *y.op);
            return strformat(
                "parallel arms %s on crossbar %s rows [%lld, %lld): %s "
                "vs %s",
                what, xbName(x.core, x.xb).c_str(),
                static_cast<long long>(overlap->begin),
                static_cast<long long>(overlap->end), lo.c_str(),
                hi.c_str());
        };
        auto xww = [&](const ArmSummary::XbAccess &x,
                       const ArmSummary::XbAccess &y) {
            return xbConflict(x, y, "both program");
        };
        auto xwr = [&](const ArmSummary::XbAccess &x,
                       const ArmSummary::XbAccess &y) {
            return xbConflict(x, y, "program vs activate");
        };
        if (auto m = bestConflict(a.xb_writes, b.xb_writes, xww))
            raceDiag(check::kRaceXbar, std::move(*m));
        if (auto m = bestConflict(a.xb_writes, b.xb_reads, xwr))
            raceDiag(check::kRaceXbar, std::move(*m));
        if (auto m = bestConflict(a.xb_reads, b.xb_writes, xwr))
            raceDiag(check::kRaceXbar, std::move(*m));

        using CoreRec = std::pair<std::int64_t, const MetaOp *>;
        auto coreConflict = [&](const CoreRec &x, const CoreRec &y,
                                const char *what)
            -> std::optional<std::string> {
            if (x.first != y.first)
                return std::nullopt;
            const auto [lo, hi] = sortedTexts(*x.second, *y.second);
            return strformat("parallel arms %s core %lld state: %s vs %s",
                             what, static_cast<long long>(x.first),
                             lo.c_str(), hi.c_str());
        };
        auto cww = [&](const CoreRec &x, const CoreRec &y) {
            return coreConflict(x, y, "both install");
        };
        auto cwr = [&](const CoreRec &x, const CoreRec &y) {
            return coreConflict(x, y, "install vs use of");
        };
        if (auto m = bestConflict(a.core_writes, b.core_writes, cww))
            raceDiag(check::kRaceCore, std::move(*m));
        if (auto m = bestConflict(a.core_writes, b.core_reads, cwr))
            raceDiag(check::kRaceCore, std::move(*m));
        if (auto m = bestConflict(a.core_reads, b.core_writes, cwr))
            raceDiag(check::kRaceCore, std::move(*m));
    }

    // ----- end-of-program reporting -----------------------------------

    void
    finish(AnalyzeResult *result)
    {
        // Unused programming: only meaningful for executable flows —
        // compressed templates activate just the representative
        // replica's crossbars.
        if (options_.executable) {
            for (const auto &[xbkey, list] : xb_stores_) {
                for (const XbStore &store : list) {
                    if (store.any_read)
                        continue;
                    MopDiagnostic diag;
                    diag.severity = DiagSeverity::kWarning;
                    diag.check = check::kXbarUnused;
                    diag.section = sectionName(store.section);
                    diag.stmt_index = store.index;
                    diag.code = StatusCode::kFailedPrecondition;
                    diag.message = strformat(
                        "%s programs crossbar %s but it is never "
                        "activated",
                        store.op->toString().c_str(),
                        xbName(xbkey.first, xbkey.second).c_str());
                    finalize(std::move(diag));
                }
            }
            for (const auto &[core, store] : core_stores_) {
                if (store.any_read)
                    continue;
                MopDiagnostic diag;
                diag.severity = DiagSeverity::kWarning;
                diag.check = check::kCoreUnused;
                diag.section = sectionName(store.section);
                diag.stmt_index = store.index;
                diag.code = StatusCode::kFailedPrecondition;
                diag.message = strformat(
                    "%s installs weights on core %lld but it never "
                    "computes",
                    store.op->toString().c_str(),
                    static_cast<long long>(core));
                finalize(std::move(diag));
            }
        }

        sweepCapacity(result);
        result->crossbars_programmed =
            static_cast<std::int64_t>(xbars_programmed_count_.size());
        for (MopDiagnostic &diag : diags_)
            result->diagnostics.push_back(std::move(diag));
    }

    /** Live-range sweep: per buffer, a region is live from each def to
     * its last use before the next def (defs with no later use stay
     * live to the end — program outputs are read externally). Streamed
     * through an interval map of open def chains, so cost scales with
     * the event count, not with region widths. */
    void
    sweepCapacity(AnalyzeResult *result)
    {
        const std::int64_t t_end = time_ + 1;
        // One open def chain per maximal element range with uniform
        // state; the map key is the range begin.
        struct Chain {
            std::int64_t end = 0;       //!< element range end
            std::int64_t def_t = 0;     //!< defining timestamp
            std::int64_t last_use = -2; //!< latest use, < def_t if none
            std::size_t ev = 0;         //!< defining event (diag anchor)
        };
        struct Delta {
            std::int64_t t;
            std::int64_t amount;
            std::size_t ev; //!< defining event (for +)
        };
        for (const auto &[key, events] : events_) {
            std::map<std::int64_t, Chain> open;
            std::vector<Delta> deltas;
            const auto splitAt = [&open](std::int64_t pos) {
                auto it = open.upper_bound(pos);
                if (it == open.begin())
                    return;
                --it;
                if (it->first >= pos || it->second.end <= pos)
                    return;
                Chain tail = it->second;
                it->second.end = pos;
                open.emplace(pos, tail);
            };
            const auto closeChain = [&deltas](std::int64_t begin,
                                              const Chain &c) {
                const std::int64_t width = c.end - begin;
                const std::int64_t live_end =
                    c.last_use >= c.def_t ? c.last_use : c.def_t;
                deltas.push_back(Delta{c.def_t, width, c.ev});
                deltas.push_back(Delta{live_end + 1, -width, c.ev});
            };
            for (std::size_t e = 0; e < events.size(); ++e) {
                const Event &ev = events[e];
                if (ev.begin >= ev.end)
                    continue;
                splitAt(ev.begin);
                splitAt(ev.end);
                if (!ev.is_def) {
                    // Uses outside any chain are use-before-def —
                    // reported elsewhere, ignored here.
                    for (auto it = open.lower_bound(ev.begin);
                         it != open.end() && it->first < ev.end; ++it)
                        it->second.last_use = ev.t;
                    continue;
                }
                std::int64_t cursor = ev.begin;
                std::vector<std::pair<std::int64_t, std::int64_t>> gaps;
                for (auto it = open.lower_bound(ev.begin);
                     it != open.end() && it->first < ev.end; ++it) {
                    if (it->first > cursor)
                        gaps.emplace_back(cursor, it->first);
                    cursor = it->second.end;
                    // Defs at the same timestamp (parallel arms)
                    // extend the same chain; a later def closes it and
                    // opens a fresh one over the overlap.
                    if (it->second.def_t == ev.t)
                        continue;
                    closeChain(it->first, it->second);
                    it->second.def_t = ev.t;
                    it->second.last_use = -2;
                    it->second.ev = e;
                }
                if (cursor < ev.end)
                    gaps.emplace_back(cursor, ev.end);
                for (const auto &gap : gaps)
                    open.emplace(gap.first,
                                 Chain{gap.second, ev.t, -2, e});
            }
            // Chains never redefined stay live to the program end.
            for (const auto &[begin, chain] : open) {
                deltas.push_back(
                    Delta{chain.def_t, chain.end - begin, chain.ev});
                deltas.push_back(
                    Delta{t_end + 1, begin - chain.end, chain.ev});
            }

            std::sort(deltas.begin(), deltas.end(),
                      [](const Delta &a, const Delta &b) {
                          if (a.t != b.t)
                              return a.t < b.t;
                          return a.amount < b.amount; // frees first
                      });
            std::int64_t live = 0, peak = 0;
            std::size_t peak_ev = 0;
            bool have_peak = false;
            for (const Delta &d : deltas) {
                live += d.amount;
                if (live > peak) {
                    peak = live;
                    peak_ev = d.ev;
                    have_peak = true;
                }
            }

            std::int64_t capacity = 0;
            const char *check_id = check::kCapacityL0;
            double size_kib = 0.0;
            if (key.space == MemSpace::kL0) {
                size_kib = arch_.chip.l0_size_kib;
                result->l0_peak_live_elems =
                    std::max(result->l0_peak_live_elems, peak);
            } else {
                size_kib = arch_.core.l1_size_kib;
                check_id = check::kCapacityL1;
                result->l1_peak_live_elems =
                    std::max(result->l1_peak_live_elems, peak);
            }
            if (size_kib > 0)
                capacity =
                    static_cast<std::int64_t>(size_kib * 1024.0 / 4.0);
            // The L0 footprint check follows the same knob as the
            // structural L0 address bound: emitted flows address a
            // virtual L0 space (see ValidateOptions).
            const bool enforce =
                key.space != MemSpace::kL0
                || options_.validate.enforce_l0_capacity;
            if (enforce && capacity > 0 && peak > capacity
                && have_peak) {
                const Event &ev = events[peak_ev];
                MopDiagnostic diag;
                diag.severity = DiagSeverity::kError;
                diag.check = check_id;
                diag.section = sectionName(ev.section);
                diag.stmt_index = ev.index;
                diag.code = StatusCode::kResourceExhausted;
                diag.message = strformat(
                    "peak live %s footprint %lld elems (%lld bytes) "
                    "exceeds capacity %lld elems (%.5g KiB)",
                    bufKeyName(key).c_str(),
                    static_cast<long long>(peak),
                    static_cast<long long>(peak * 4),
                    static_cast<long long>(capacity), size_kib);
                finalize(std::move(diag));
            }
        }
    }

    const CimArchitecture &arch_;
    AnalyzeOptions options_;
    Section section_ = Section::kLiveIn;
    std::int64_t time_ = 0;

    std::vector<MopDiagnostic> diags_;
    std::vector<MopDiagnostic> *block_diags_ = nullptr;
    std::set<std::string> seen_;

    std::map<BufKey, IntervalSet> defined_;
    std::vector<PendingStore> store_pool_;
    std::map<BufKey, std::map<std::int64_t, StoreSlice>> stores_;
    std::map<std::pair<std::int64_t, std::int64_t>, IntervalSet>
        xb_programmed_;
    std::map<std::pair<std::int64_t, std::int64_t>, std::vector<XbStore>>
        xb_stores_;
    std::set<std::pair<std::int64_t, std::int64_t>>
        xbars_programmed_count_;
    std::map<std::int64_t, CoreStore> core_stores_;
    std::set<std::int64_t> cores_programmed_;
    std::map<BufKey, std::vector<Event>> events_;
};

} // namespace

std::int64_t
AnalyzeResult::errors() const
{
    return countDiagnostics(diagnostics, DiagSeverity::kError);
}

std::int64_t
AnalyzeResult::warnings() const
{
    return countDiagnostics(diagnostics, DiagSeverity::kWarning);
}

std::string
AnalyzeResult::summary() const
{
    const std::string stats = strformat(
        "%lld statements, peak live L0 %lld / L1 %lld elems, "
        "%lld crossbars programmed",
        static_cast<long long>(statements),
        static_cast<long long>(l0_peak_live_elems),
        static_cast<long long>(l1_peak_live_elems),
        static_cast<long long>(crossbars_programmed));
    if (clean())
        return "mopcheck: clean (" + stats + ")";
    return strformat("mopcheck: %lld errors, %lld warnings (%s)",
                     static_cast<long long>(errors()),
                     static_cast<long long>(warnings()), stats.c_str());
}

std::string
AnalyzeResult::table() const
{
    return renderDiagnosticsTable(diagnostics);
}

AnalyzeResult
analyzeProgram(const MopProgram &program, const CimArchitecture &arch,
               const AnalyzeOptions &options)
{
    AnalyzeResult result;
    if (options.structural) {
        result.diagnostics =
            collectProgramDiagnostics(program, arch, options.validate);
    }
    Analyzer analyzer(arch, options);
    analyzer.run(program, &result);
    return result;
}

} // namespace cimmlc
