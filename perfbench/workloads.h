#ifndef GIGASCOPE_PERFBENCH_WORKLOADS_H_
#define GIGASCOPE_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "workload/traffic_gen.h"

namespace perfbench {

enum class Kind { kPassthruFilter, kSplitAgg, kRegexThreads };

/// One benchmark workload: a GSQL query, the traffic it runs on, how the
/// engine pumps it, and the fixed offered rate of its open-loop latency run.
struct Workload {
  Kind kind;
  const char* name;
  /// Full GSQL text; the query is always named `q`.
  const char* query;
  gigascope::workload::TrafficConfig traffic;  // seed is set per run
  /// 0 pumps inline on the driving thread; N starts N HFTA worker threads.
  size_t hfta_workers;
  /// Open-loop injection rate in packets per second. A constant, so a
  /// parent and a change are paced identically: about half the closed-loop
  /// rate the engine held, when the benchmark was written, in the slowest
  /// host conditions seen, so the paced run stays below saturation even
  /// when other tenants slow the host down.
  double open_loop_pps;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// The rows one replay pass of the pool must produce, computed from the
/// packets without the engine: decoded with net::DecodePacket, filtered and
/// grouped by hand. Values are row-major, `arity` per row, in the order the
/// query's SELECT list names them.
struct Expected {
  size_t arity = 0;
  std::vector<uint64_t> values;
  /// Per row: index in the pool of the packet whose arrival makes the row
  /// final. For the filters it is the row's own packet; for the aggregate,
  /// the first packet of a later time bucket (== pool size when that packet
  /// is the first one of the next pass).
  std::vector<uint32_t> closing_packet;
  /// Packets that pass the LFTA-side predicate of regex_threads (TCP to
  /// port 80); the input of the isolated regex timing.
  std::vector<uint32_t> regex_candidates;

  size_t rows() const { return closing_packet.size(); }
  const uint64_t* row(size_t i) const { return &values[i * arity]; }
};

Expected ComputeExpected(const Workload& workload,
                         const std::vector<gigascope::net::Packet>& pool);

}  // namespace perfbench

#endif  // GIGASCOPE_PERFBENCH_WORKLOADS_H_
