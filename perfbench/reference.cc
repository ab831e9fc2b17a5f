// Workload table and the independent output reference. The reference never
// calls the engine, the planner or udf::Regex: it decodes each packet with
// net::DecodePacket and applies the predicate and grouping in plain C++.

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "common/clock.h"
#include "net/headers.h"
#include "workloads.h"

namespace perfbench {

namespace {

gigascope::workload::TrafficConfig Traffic(uint32_t flows, double flow_skew,
                                           double offered_bits_per_sec,
                                           double port80_fraction,
                                           double http_fraction) {
  gigascope::workload::TrafficConfig config;
  config.num_flows = flows;
  config.flow_skew = flow_skew;
  config.offered_bits_per_sec = offered_bits_per_sec;
  config.port80_fraction = port80_fraction;
  config.http_fraction = http_fraction;
  return config;
}

// True when `payload` has "HTTP/1" before its first newline: what
// ^[^\n]*HTTP/1.* accepts, found without a regex engine.
bool HttpFirstLine(std::string_view payload) {
  const size_t newline = payload.find('\n');
  return payload.substr(0, newline).find("HTTP/1") != std::string_view::npos;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Nearly every packet survives, so every packet pays interpretation,
      // encode, the ring hop, select_project and the subscriber's decode.
      {Kind::kPassthruFilter, "passthru_filter",
       "DEFINE { query_name q; } "
       "SELECT timestamp, destIP, destPort, len FROM eth0.PKT "
       "WHERE ipVersion = 4 AND protocol = 6",
       Traffic(1000, 1.0, 100e6, 0.0, 0.0), 0, 150000},
      // More flows than the 4096-slot LFTA table, so it evicts; the
      // arithmetic keeps the predicate off the raw-byte matcher. The low
      // offered bit rate closes a time bucket every ~14k packets, several
      // times per wall-clock second.
      {Kind::kSplitAgg, "split_agg",
       "DEFINE { query_name q; } "
       "SELECT tb, destIP, count(*), sum(len * 8 + 14) FROM eth0.PKT "
       "WHERE len * 8 > 2000 AND protocol = 6 "
       "GROUP BY time AS tb, destIP",
       Traffic(20000, 1.0, 50e6, 0.0, 0.0), 0, 60000},
      // The only workload where a variable-length payload crosses a ring
      // and a worker thread parks and wakes on the result path. Port 80 and
      // HTTP are drawn per flow, so flow popularity is uniform here: with
      // Zipf flows one popular flow would decide the port-80 share (5-25%
      // across seeds) and with it the regex load.
      {Kind::kRegexThreads, "regex_threads",
       "DEFINE { query_name q; } "
       "SELECT timestamp, len FROM eth0.PKT "
       "WHERE protocol = 6 AND destPort = 80 "
       "AND match_regex(payload, '^[^\\n]*HTTP/1.*')",
       Traffic(1000, 0.0, 100e6, 0.1, 0.5), 1, 250000},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

Expected ComputeExpected(const Workload& workload,
                         const std::vector<gigascope::net::Packet>& pool) {
  using gigascope::net::DecodePacket;
  using gigascope::net::kIpProtoTcp;
  Expected expected;
  // (time bucket, destIP) -> (count, sum) for the aggregate.
  std::map<std::pair<uint64_t, uint32_t>, std::pair<uint64_t, uint64_t>>
      groups;
  for (size_t i = 0; i < pool.size(); ++i) {
    const gigascope::net::Packet& packet = pool[i];
    auto decoded = DecodePacket(packet.view());
    if (!decoded.ok() || !decoded->ip.has_value()) continue;
    const auto& ip = *decoded->ip;
    const uint64_t ts = static_cast<uint64_t>(packet.timestamp);
    const bool tcp = ip.protocol == kIpProtoTcp;
    const uint16_t dst_port = decoded->tcp ? decoded->tcp->dst_port
                              : decoded->udp ? decoded->udp->dst_port
                                             : 0;
    const uint32_t index = static_cast<uint32_t>(i);
    switch (workload.kind) {
      case Kind::kPassthruFilter:
        if (!tcp) break;
        expected.values.insert(expected.values.end(),
                               {ts, ip.dst_addr, dst_port, packet.orig_len});
        expected.closing_packet.push_back(index);
        break;
      case Kind::kSplitAgg:
        if (tcp && uint64_t{packet.orig_len} * 8 > 2000) {
          auto& group = groups[{static_cast<uint64_t>(
                                    gigascope::SimTimeToSeconds(
                                        packet.timestamp)),
                                ip.dst_addr}];
          group.first += 1;
          group.second += uint64_t{packet.orig_len} * 8 + 14;
        }
        break;
      case Kind::kRegexThreads: {
        if (!tcp || dst_port != 80) break;
        expected.regex_candidates.push_back(index);
        std::string_view payload(
            reinterpret_cast<const char*>(decoded->payload.data()),
            decoded->payload.size());
        if (!HttpFirstLine(payload)) break;
        expected.values.insert(expected.values.end(), {ts, packet.orig_len});
        expected.closing_packet.push_back(index);
        break;
      }
    }
  }
  switch (workload.kind) {
    case Kind::kPassthruFilter: expected.arity = 4; break;
    case Kind::kRegexThreads: expected.arity = 2; break;
    case Kind::kSplitAgg: {
      expected.arity = 4;
      // A bucket's groups become final with the first packet of a later
      // bucket; packet times are non-decreasing, so one forward scan finds
      // it for every bucket in order.
      size_t next = 0;
      for (const auto& [key, group] : groups) {
        while (next < pool.size() &&
               static_cast<uint64_t>(gigascope::SimTimeToSeconds(
                   pool[next].timestamp)) <= key.first) {
          ++next;
        }
        expected.values.insert(expected.values.end(),
                               {key.first, key.second, group.first,
                                group.second});
        expected.closing_packet.push_back(static_cast<uint32_t>(next));
      }
      break;
    }
  }
  return expected;
}

}  // namespace perfbench
