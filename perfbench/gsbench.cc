// gsbench: the measuring half of the repo benchmark (run.py builds it, runs
// it and prints the result line).
//
//   gsbench --workload NAME --seed N --seconds S --trace 0|1
//           --record FILE [--trace-out FILE] [--pool PACKETS]
//
// One process drives the engine through its public API only. Packets are
// generated once from the seed into a pool and replayed in passes; between
// passes every timestamp moves forward by a whole number of seconds, so
// ordered attributes keep increasing while the generator stays outside the
// timed window. Every output row is checked against an independent reference
// (reference.cc). The untraced run (--trace 0) measures the end-to-end
// metrics; the traced run (--trace 1) records spans around each call into
// the engine, times the lower layers alone on the same inputs, and reads the
// engine's own counters. Results go to the --record file as JSON.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "rts/tuple.h"
#include "probe.h"
#include "spans.h"
#include "telemetry/registry.h"
#include "udf/regex.h"
#include "workload/traffic_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gigascope::core::Engine;
using gigascope::core::TupleSubscription;
using gigascope::expr::Value;
using gigascope::gsql::DataType;
using gigascope::net::Packet;
using gigascope::rts::Row;

/// Packets injected between two pump-and-drain steps of the closed loop.
constexpr size_t kCadence = 1024;
/// Threaded workloads: how many packets the HFTA workers may trail the
/// inject thread in the closed loop before the loop waits for them. The
/// closed loop then measures what the whole pipeline sustains, and the
/// rings between the stages never fill up and drop.
constexpr uint64_t kMaxWorkerLag = 8 * kCadence;
/// Set-ups per run; setup_s and core.add_query_ms are their medians.
constexpr size_t kSetupRepeats = 101;
/// A paced run whose median injection was later than this fell behind its
/// schedule: its latencies describe a backlog, not the engine. (Single
/// late bursts are the engine's own stalls, e.g. a window closing, and
/// show in the latencies.)
constexpr double kLateLimitUs = 100;
/// Length of one paced segment between two host probes.
constexpr double kOpenSegmentSeconds = 0.25;
/// The open loop's rows are grouped by where in the pool their closing
/// packet sits, in this many equal ranges (see RunOpen).
constexpr size_t kLatencyPositions = 64;
/// Per pool range, the quantile over passes of the range's median latency.
constexpr double kLatencyPassQuantile = 0.1;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  size_t pool = 131072;
  std::string record;
  std::string trace_out;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t k = std::min(values.size() - 1,
                            static_cast<size_t>(q * values.size()));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double ElapsedS(int64_t since_ns) { return (NowNs() - since_ns) / 1e9; }

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

/// Resident set size of this process, in bytes.
double RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE);
}

// -- Pool --------------------------------------------------------------------

struct Pool {
  std::vector<Packet> packets;
  std::vector<int64_t> base_ts;
  /// Whole seconds between the starts of two passes; larger than a pass.
  int64_t pass_shift_ns = 0;

  void SetPass(uint64_t pass) {
    for (size_t i = 0; i < packets.size(); ++i) SetPacketPass(i, pass);
  }
  void SetPacketPass(size_t i, uint64_t pass) {
    packets[i].timestamp =
        base_ts[i] + static_cast<int64_t>(pass) * pass_shift_ns;
  }
};

Pool MakePool(const Workload& workload, uint64_t seed, size_t n) {
  gigascope::workload::TrafficConfig config = workload.traffic;
  config.seed = seed;
  gigascope::workload::TrafficGenerator generator(config);
  Pool pool;
  pool.packets.reserve(n);
  pool.base_ts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pool.packets.push_back(generator.Next());
    pool.base_ts.push_back(pool.packets.back().timestamp);
  }
  const int64_t first_s =
      gigascope::SimTimeToSeconds(pool.base_ts.front());
  const int64_t last_s = gigascope::SimTimeToSeconds(pool.base_ts.back());
  pool.pass_shift_ns = (last_s - first_s + 2) * gigascope::kNanosPerSecond;
  return pool;
}

// -- Output check ---------------------------------------------------------------

bool AsU64(const Value& value, uint64_t* out) {
  switch (value.type()) {
    case DataType::kUint: *out = value.uint_value(); return true;
    case DataType::kInt: *out = static_cast<uint64_t>(value.int_value()); return true;
    case DataType::kIp: *out = value.ip_value(); return true;
    default: return false;
  }
}

/// Compares engine rows with the reference: in order for the filters, as a
/// multiset per pass for the aggregate. Every missing, extra or different
/// row is one failure.
class Checker {
 public:
  Checker(const Workload& workload, const Expected& expected,
          const Pool& pool)
      : expected_(expected),
        ordered_(workload.kind != Kind::kSplitAgg),
        pool_size_(pool.packets.size()) {
    if (ordered_) {
      // Field 0 is the packet timestamp.
      field0_shift_ = static_cast<uint64_t>(pool.pass_shift_ns);
      return;
    }
    // Field 0 is the time bucket in seconds.
    field0_shift_ =
        static_cast<uint64_t>(pool.pass_shift_ns / gigascope::kNanosPerSecond);
    first_bucket_ = expected.rows() > 0 ? expected.row(0)[0] : 0;
    seen_pass_.assign(expected.rows(), 0);
    for (size_t i = 0; i < expected.rows(); ++i) {
      const uint64_t* row = expected.row(i);
      index_.emplace(Key(row[0] - first_bucket_, row[1]),
                     static_cast<uint32_t>(i));
    }
  }

  /// Checks one row. Returns the global index (pass * pool size + index)
  /// of the packet that made the row final, or -1 for a failed row.
  int64_t Check(const Row& row) {
    uint64_t values[8];
    if (row.size() != expected_.arity || row.size() > 8) return Fail();
    for (size_t f = 0; f < row.size(); ++f) {
      if (!AsU64(row[f], &values[f])) return Fail();
    }
    return ordered_ ? CheckOrdered(values) : CheckGrouped(values);
  }

  /// Counts the rows of passes [0, passes) that never arrived and rows
  /// that belong to no injected pass.
  void Finish(uint64_t passes) {
    if (ordered_) {
      const uint64_t want = passes * expected_.rows();
      failures_ += want > seen_ ? want - seen_ : seen_ - want;
      return;
    }
    for (uint64_t p = 0; p < matched_.size(); ++p) {
      if (p >= passes) failures_ += matched_[p];
    }
    for (uint64_t p = 0; p < passes; ++p) {
      const uint64_t got = p < matched_.size() ? matched_[p] : 0;
      failures_ += expected_.rows() - got;
    }
  }

  uint64_t failures() const { return failures_; }
  uint64_t rows_seen() const { return seen_; }

  /// Ordered workloads: rows that packets [0, g) of the replay make final.
  uint64_t RowsDueBefore(uint64_t g) const {
    const auto& closing = expected_.closing_packet;
    const uint64_t in_pass = static_cast<uint64_t>(
        std::lower_bound(closing.begin(), closing.end(), g % pool_size_) -
        closing.begin());
    return g / pool_size_ * expected_.rows() + in_pass;
  }

 private:
  static uint64_t Key(uint64_t bucket_offset, uint64_t ip) {
    return (bucket_offset << 32) | (ip & 0xffffffffu);
  }

  int64_t Fail() {
    ++failures_;
    return -1;
  }

  int64_t CheckOrdered(const uint64_t* values) {
    const uint64_t index = seen_++;
    if (expected_.rows() == 0) return Fail();
    const uint64_t pass = index / expected_.rows();
    const size_t i = index % expected_.rows();
    const uint64_t* want = expected_.row(i);
    if (values[0] != want[0] + pass * field0_shift_) return Fail();
    for (size_t f = 1; f < expected_.arity; ++f) {
      if (values[f] != want[f]) return Fail();
    }
    return static_cast<int64_t>(pass * pool_size_ +
                                expected_.closing_packet[i]);
  }

  int64_t CheckGrouped(const uint64_t* values) {
    ++seen_;
    if (expected_.rows() == 0 || values[0] < first_bucket_) return Fail();
    const uint64_t pass = (values[0] - first_bucket_) / field0_shift_;
    const uint64_t offset = values[0] - first_bucket_ - pass * field0_shift_;
    auto it = index_.find(Key(offset, values[1]));
    if (it == index_.end()) return Fail();
    const uint32_t i = it->second;
    const uint64_t* want = expected_.row(i);
    if (values[1] != want[1] || values[2] != want[2] || values[3] != want[3]) {
      return Fail();
    }
    // Buckets close in time order, so a group's rows arrive pass by pass
    // and one "last pass seen" per group detects a duplicate.
    if (seen_pass_[i] == pass + 1) return Fail();
    seen_pass_[i] = static_cast<uint32_t>(pass + 1);
    if (matched_.size() <= pass) matched_.resize(pass + 1);
    ++matched_[pass];
    return static_cast<int64_t>(pass * pool_size_ +
                                expected_.closing_packet[i]);
  }

  const Expected& expected_;
  const bool ordered_;
  const uint64_t pool_size_;
  uint64_t field0_shift_ = 0;
  uint64_t seen_ = 0;
  uint64_t failures_ = 0;
  uint64_t first_bucket_ = 0;
  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<uint32_t> seen_pass_;
  std::vector<uint64_t> matched_;  // rows matched per pass
};

// -- Engine set-up ---------------------------------------------------------------

struct Instance {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<TupleSubscription> sub;
  gigascope::core::QueryInfo info;
};

/// Builds a running engine for `workload`: construction, AddQuery,
/// Subscribe and (threaded workloads) StartThreads. With `spans`, each
/// step is recorded under one "setup" root span. Returns the set-up time
/// in seconds, or a negative value on failure.
double Setup(const Workload& workload, Instance* instance,
             SpanRecorder* spans) {
  const int64_t start = NowNs();
  const int32_t root = spans ? spans->Open("setup", -1, 0) : -1;
  int32_t span = spans ? spans->Open("core.engine_ctor", root, 0) : -1;
  instance->engine = std::make_unique<Engine>();
  instance->engine->AddInterface("eth0");
  if (spans) spans->Close(span);
  span = spans ? spans->Open("core.add_query", root, 0) : -1;
  auto info = instance->engine->AddQuery(workload.query);
  if (spans) spans->Close(span);
  if (!info.ok()) {
    std::fprintf(stderr, "AddQuery: %s\n", info.status().ToString().c_str());
    return -1;
  }
  instance->info = *info;
  span = spans ? spans->Open("core.subscribe", root, 0) : -1;
  auto sub = instance->engine->Subscribe("q");
  if (spans) spans->Close(span);
  if (!sub.ok()) {
    std::fprintf(stderr, "Subscribe: %s\n", sub.status().ToString().c_str());
    return -1;
  }
  instance->sub = std::move(*sub);
  if (workload.hfta_workers > 0) {
    span = spans ? spans->Open("core.start_threads", root, 0) : -1;
    auto status = instance->engine->StartThreads(workload.hfta_workers);
    if (spans) spans->Close(span);
    if (!status.ok()) {
      std::fprintf(stderr, "StartThreads: %s\n", status.ToString().c_str());
      return -1;
    }
  }
  if (spans) spans->Close(root);
  return (NowNs() - start) / 1e9;
}

/// Sum of every ring's dropped-message counter.
uint64_t RingDropped(const Engine& engine) {
  uint64_t dropped = 0;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    if (sample.metric.rfind("ring", 0) == 0 &&
        EndsWith(sample.metric, "_dropped")) {
      dropped += sample.value;
    }
  }
  return dropped;
}

// -- Replay loops -----------------------------------------------------------------

struct Tally {
  uint64_t offered = 0;
  uint64_t inject_errors = 0;
  uint64_t ring_dropped = 0;
};

/// Drains the subscription into the checker. With `spans`, rows are first
/// collected inside a core.subscription span and checked afterwards inside
/// a bench.verify span, so NextRow's cost is not mixed with the check's.
void Drain(Instance& instance, Checker& checker, SpanRecorder* spans,
           int32_t parent, uint32_t pass, std::vector<Row>* buffer) {
  if (spans == nullptr) {
    while (auto row = instance.sub->NextRow()) checker.Check(*row);
    return;
  }
  buffer->clear();
  int32_t span = spans->Open("core.subscription", parent, pass);
  while (auto row = instance.sub->NextRow()) buffer->push_back(std::move(*row));
  spans->Close(span, buffer->size());
  span = spans->Open("bench.verify", parent, pass);
  for (const Row& row : *buffer) checker.Check(row);
  spans->Close(span, buffer->size());
}

/// Drains until the rows of every packet more than kMaxWorkerLag behind
/// `injected` have arrived. Gives up after a second without progress: rows
/// that never come are counted as missing by the checker.
void WaitForWorkers(Instance& instance, Checker& checker, uint64_t injected) {
  if (injected <= kMaxWorkerLag) return;
  const uint64_t want = checker.RowsDueBefore(injected - kMaxWorkerLag);
  int64_t last_progress = NowNs();
  while (checker.rows_seen() < want) {
    bool progress = false;
    while (auto row = instance.sub->NextRow()) {
      checker.Check(*row);
      progress = true;
    }
    if (progress) {
      last_progress = NowNs();
    } else if (NowNs() - last_progress > 1000000000) {
      return;
    } else {
      std::this_thread::yield();
    }
  }
}

struct ClosedResult {
  std::vector<double> pps;         // untraced passes
  std::vector<double> traced_pps;  // traced passes
  /// Untraced passes' pps scaled to the probe's reference host speed.
  std::vector<double> normalized_pps;
  uint64_t passes = 0;
  double flush_ms = 0;
};

/// Closed loop: each packet is injected as soon as the previous call
/// returns; every kCadence packets the engine is pumped until idle and the
/// subscription drained. Whole passes run until `seconds` have elapsed.
/// With `spans`, odd passes are traced and even ones not, so the overhead
/// of tracing is measured on interleaved passes of one engine. With
/// `probe`, each pass runs on the CPU the probe finds fastest, and in an
/// untraced run the probe also runs after every pump-and-drain step,
/// outside the engine's timed share, to scale each pass's pps by the host
/// speed it saw.
ClosedResult RunClosed(Pool& pool, Instance& instance, Checker& checker,
                       double seconds, SpanRecorder* spans, HostProbe* probe,
                       Tally* tally, double* rss_peak) {
  ClosedResult result;
  Engine& engine = *instance.engine;
  const size_t n = pool.packets.size();
  std::vector<Row> buffer;
  const int64_t start = NowNs();
  // Pass 0 warms the engine up (tables fill, groups open) and is not
  // counted; after it, traced and untraced passes alternate when tracing.
  const uint64_t min_passes = spans ? 5 : 3;
  for (uint64_t pass = 0; pass < min_passes || ElapsedS(start) < seconds;
       ++pass) {
    pool.SetPass(pass);
    if (probe) probe->PinToFastestCpu();
    SpanRecorder* rec = (spans && pass % 2 == 1) ? spans : nullptr;
    // Probing between steps would disturb the traced/untraced comparison.
    HostProbe* step_probe = spans ? nullptr : probe;
    const uint32_t id = static_cast<uint32_t>(pass);
    int64_t engine_ns = 0;
    double probe_ns = 0;
    size_t probes = 0;
    const int32_t root = rec ? rec->Open("pass", -1, id) : -1;
    for (size_t i = 0; i < n; i += kCadence) {
      const size_t end = std::min(n, i + kCadence);
      const int64_t step_start = NowNs();
      int32_t span = rec ? rec->Open("core.inject", root, id) : -1;
      for (size_t j = i; j < end; ++j) {
        if (!engine.InjectPacket("eth0", pool.packets[j]).ok()) {
          ++tally->inject_errors;
        }
      }
      if (rec) rec->Close(span, end - i);
      span = rec ? rec->Open("core.pump", root, id) : -1;
      engine.PumpUntilIdle();
      if (rec) rec->Close(span, end - i);
      Drain(instance, checker, rec, root, id, &buffer);
      if (engine.threads_running()) {
        span = rec ? rec->Open("bench.wait_workers", root, id) : -1;
        WaitForWorkers(instance, checker, pass * n + end);
        if (rec) rec->Close(span);
      }
      engine_ns += NowNs() - step_start;
      if (step_probe) {
        probe_ns += step_probe->NsPerFrame();
        ++probes;
      }
    }
    if (rec) rec->Close(root, n);
    tally->offered += n;
    result.passes = pass + 1;
    *rss_peak = std::max(*rss_peak, RssBytes());
    if (pass == 0) continue;
    const double pps = n / (engine_ns / 1e9);
    (rec ? result.traced_pps : result.pps).push_back(pps);
    if (step_probe) {
      result.normalized_pps.push_back(
          pps * HostProbe::Slowdown(probe_ns / probes));
    }
  }
  if (probe) probe->Unpin();
  const int64_t flush_start = NowNs();
  const int32_t span = spans ? spans->Open("core.flush", -1, 0) : -1;
  engine.FlushAll();
  if (spans) spans->Close(span);
  result.flush_ms = (NowNs() - flush_start) / 1e6;
  Drain(instance, checker, nullptr, -1, 0, &buffer);
  checker.Finish(result.passes);
  tally->ring_dropped += RingDropped(engine);
  *rss_peak = std::max(*rss_peak, RssBytes());
  return result;
}

struct OpenResult {
  std::vector<double> latency_us;
  /// Per row: index of its closing packet in the paced packet sequence.
  std::vector<uint64_t> closing;
  /// Per pool range that closed any row: the kLatencyPassQuantile over
  /// passes of the median latency of the rows it closed in that pass.
  std::vector<double> position_p50_us;
  std::vector<double> late_us;
  uint64_t passes = 0;
  /// Rows that arrived before the packet that should have made them final
  /// was injected (would mean the closing-packet model is wrong).
  uint64_t early_rows = 0;
};

/// Open loop: packets are due at a fixed rate, whatever the engine does.
/// The loop injects every packet that is due (at most kCadence before
/// pumping), then pumps until idle and drains; when it is ahead of schedule
/// it keeps pumping and draining. A row's latency runs from the due time of
/// the packet that made it final to the NextRow call that returned it.
/// Runs `passes` whole passes, in segments of about kOpenSegmentSeconds.
/// With `probe`, the schedule pauses between segments (after draining) to
/// move the driving thread to the CPU the probe finds fastest.
///
/// Every pass replays the same packets, so the rows one pool range closes
/// cost the engine the same in every pass; only the host differs. Per range
/// the loop keeps the kLatencyPassQuantile over passes of that range's
/// median latency: a stretch that another tenant slowed down (on a shared
/// host the same rows then take up to twice as long, for seconds at a time)
/// moves it only when it covers nearly every pass. Ranges also separate
/// rows of unequal work, such as split_agg's windows of different sizes.
OpenResult RunOpen(const Workload& workload, Pool& pool, Instance& instance,
                   Checker& checker, uint64_t passes, HostProbe* probe,
                   Tally* tally) {
  OpenResult result;
  result.passes = passes;
  Engine& engine = *instance.engine;
  const size_t n = pool.packets.size();
  const uint64_t total = passes * n;
  const double period_ns = 1e9 / workload.open_loop_pps;
  const uint64_t segment = std::max<uint64_t>(
      kCadence, static_cast<uint64_t>(kOpenSegmentSeconds *
                                      workload.open_loop_pps));
  std::vector<int64_t> segment_t0;
  auto due = [&](uint64_t g) {
    return segment_t0[g / segment] +
           static_cast<int64_t>(static_cast<double>(g % segment) * period_ns);
  };
  // Rows are timed as NextRow returns them and checked afterwards, so the
  // check's own cost does not delay the rows drained after them.
  std::vector<Row> rows;
  std::vector<int64_t> returned_ns;
  auto drain = [&](uint64_t injected) {
    rows.clear();
    returned_ns.clear();
    while (auto row = instance.sub->NextRow()) {
      returned_ns.push_back(NowNs());
      rows.push_back(std::move(*row));
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      const int64_t closing = checker.Check(rows[k]);
      const int64_t returned = returned_ns[k];
      if (closing < 0) continue;
      if (static_cast<uint64_t>(closing) >= injected) {
        ++result.early_rows;
        continue;
      }
      result.latency_us.push_back(
          (returned - due(static_cast<uint64_t>(closing))) / 1e3);
      result.closing.push_back(static_cast<uint64_t>(closing));
    }
  };
  result.late_us.reserve(total);
  uint64_t i = 0;
  while (i < total) {
    if (i % segment == 0) {
      if (i > 0) {
        engine.PumpUntilIdle();
        drain(i);
      }
      if (probe) probe->PinToFastestCpu();
      segment_t0.push_back(NowNs());
    }
    const int64_t now = NowNs();
    const uint64_t segment_end = std::min(total, (i / segment + 1) * segment);
    for (size_t burst = 0;
         i < segment_end && due(i) <= now && burst < kCadence; ++burst, ++i) {
      const size_t j = i % n;
      pool.SetPacketPass(j, i / n);
      if (!engine.InjectPacket("eth0", pool.packets[j]).ok()) {
        ++tally->inject_errors;
      }
      result.late_us.push_back((NowNs() - due(i)) / 1e3);
    }
    engine.PumpUntilIdle();
    drain(i);
  }
  // A row closed by the first packet of the pass after the last one
  // belongs to that pass.
  const size_t cells_per_range = passes + 1;
  std::vector<std::vector<double>> cells(kLatencyPositions * cells_per_range);
  for (size_t k = 0; k < result.latency_us.size(); ++k) {
    const uint64_t g = result.closing[k];
    const size_t range = (g % n) * kLatencyPositions / n;
    cells[range * cells_per_range + g / n].push_back(result.latency_us[k]);
  }
  for (size_t range = 0; range < kLatencyPositions; ++range) {
    std::vector<double> by_pass;
    for (size_t pass = 0; pass < cells_per_range; ++pass) {
      const auto& cell = cells[range * cells_per_range + pass];
      if (!cell.empty()) by_pass.push_back(Median(cell));
    }
    if (!by_pass.empty()) {
      result.position_p50_us.push_back(
          Percentile(by_pass, kLatencyPassQuantile));
    }
  }
  if (probe) probe->Unpin();
  tally->offered += total;
  engine.FlushAll();
  std::vector<Row> buffer;
  Drain(instance, checker, nullptr, -1, 0, &buffer);
  checker.Finish(passes);
  tally->ring_dropped += RingDropped(engine);
  return result;
}

// -- Lower layers timed alone ----------------------------------------------------

/// Runs `rep` repeatedly for about `seconds` (at least three times) and
/// returns the median of its per-item nanoseconds.
template <typename Rep>
double TimeAlone(double seconds, size_t items, Rep rep) {
  if (items == 0) return 0;
  std::vector<double> ns_per_item;
  const int64_t start = NowNs();
  while (ns_per_item.size() < 3 || ElapsedS(start) < seconds) {
    const int64_t t = NowNs();
    rep();
    ns_per_item.push_back(static_cast<double>(NowNs() - t) / items);
  }
  return Median(ns_per_item);
}

Row MakeRow(const gigascope::gsql::StreamSchema& schema, const uint64_t* v) {
  Row row;
  for (size_t f = 0; f < schema.fields().size(); ++f) {
    switch (schema.fields()[f].type) {
      case DataType::kIp: row.push_back(Value::Ip(static_cast<uint32_t>(v[f]))); break;
      case DataType::kInt: row.push_back(Value::Int(static_cast<int64_t>(v[f]))); break;
      default: row.push_back(Value::Uint(v[f])); break;
    }
  }
  return row;
}

// -- Output -----------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::vector<double> samples;
  uint64_t sample_count = 0;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool WriteRecord(const Options& options, const Workload& workload,
                 const std::map<std::string, Metric>& metrics,
                 const Tally& tally, uint64_t mismatches,
                 const std::map<std::string, std::string>& notes,
                 const std::vector<gigascope::telemetry::MetricSample>& tel) {
  std::FILE* out = std::fopen(options.record.c_str(), "w");
  if (out == nullptr) return false;
  const uint64_t failed = tally.inject_errors + tally.ring_dropped + mismatches;
  std::fprintf(out, "{\n\"workload\": %s,\n\"query\": %s,\n",
               JsonString(workload.name).c_str(),
               JsonString(workload.query).c_str());
  std::fprintf(out,
               "\"seed\": %llu,\n\"seconds\": %s,\n\"trace\": %d,\n"
               "\"pool_packets\": %zu,\n\"open_loop_pps\": %s,\n"
               "\"hfta_workers\": %zu,\n",
               static_cast<unsigned long long>(options.seed),
               JsonNumber(options.seconds).c_str(), options.trace,
               options.pool, JsonNumber(workload.open_loop_pps).c_str(),
               workload.hfta_workers);
  std::fprintf(out,
               "\"attempted\": %llu,\n\"failed\": %llu,\n"
               "\"failures\": {\"inject_errors\": %llu, \"ring_dropped\": "
               "%llu, \"row_mismatches\": %llu},\n",
               static_cast<unsigned long long>(tally.offered),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(tally.inject_errors),
               static_cast<unsigned long long>(tally.ring_dropped),
               static_cast<unsigned long long>(mismatches));
  std::fprintf(out, "\"notes\": {");
  bool first = true;
  for (const auto& [key, value] : notes) {
    std::fprintf(out, "%s%s: %s", first ? "" : ", ", JsonString(key).c_str(),
                 JsonString(value).c_str());
    first = false;
  }
  std::fprintf(out, "},\n\"metrics\": {\n");
  first = true;
  for (const auto& [name, metric] : metrics) {
    std::fprintf(out, "%s  %s: {\"value\": %s, \"unit\": %s, \"count\": %llu",
                 first ? "" : ",\n", JsonString(name).c_str(),
                 JsonNumber(metric.value).c_str(),
                 JsonString(metric.unit).c_str(),
                 static_cast<unsigned long long>(metric.sample_count));
    if (!metric.samples.empty()) {
      std::fprintf(out, ", \"samples\": [");
      for (size_t i = 0; i < metric.samples.size(); ++i) {
        std::fprintf(out, "%s%s", i ? ", " : "",
                     JsonNumber(metric.samples[i]).c_str());
      }
      std::fprintf(out, "]");
    }
    std::fprintf(out, "}");
    first = false;
  }
  std::fprintf(out, "\n},\n\"telemetry\": [");
  for (size_t i = 0; i < tel.size(); ++i) {
    std::fprintf(out, "%s\n  [%s, %s, %llu]", i ? "," : "",
                 JsonString(tel[i].entity).c_str(),
                 JsonString(tel[i].metric).c_str(),
                 static_cast<unsigned long long>(tel[i].value));
  }
  std::fprintf(out, "\n]\n}\n");
  return std::fclose(out) == 0;
}

// -- Runs ----------------------------------------------------------------------------

void Put(std::map<std::string, Metric>* metrics, const std::string& name,
         double value, const char* unit, std::vector<double> samples = {},
         uint64_t count = 0) {
  Metric& m = (*metrics)[name];
  m.value = value;
  m.unit = unit;
  m.sample_count = count ? count : samples.size();
  m.samples = std::move(samples);
}

struct SetupSamples {
  std::vector<double> seconds;
  /// Each set-up's seconds scaled to the probe's reference host speed.
  std::vector<double> normalized_seconds;
  std::vector<double> add_query_ms;  // traced runs only
};

/// Repeated set-ups, each torn down before the next. With `probe`, the host
/// probe runs right before each set-up to scale its time.
bool RepeatSetup(const Workload& workload, SpanRecorder* spans,
                 HostProbe* probe, SetupSamples* out) {
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    const double probe_ns = probe ? probe->PinToFastestCpu() : 0;
    Instance instance;
    const size_t first_span = spans ? spans->spans().size() : 0;
    const double s = Setup(workload, &instance, spans);
    if (s < 0) return false;
    out->seconds.push_back(s);
    if (probe) {
      out->normalized_seconds.push_back(s / HostProbe::Slowdown(probe_ns));
    }
    if (spans) {
      for (size_t i = first_span; i < spans->spans().size(); ++i) {
        const Span& span = spans->spans()[i];
        if (std::strcmp(span.name, "core.add_query") == 0) {
          out->add_query_ms.push_back((span.end_ns - span.start_ns) / 1e6);
        }
      }
    }
  }
  if (probe) probe->Unpin();
  return true;
}

/// Everything one run measures, shared by the untraced and traced runs.
struct RunState {
  RunState(const Options& o, const Workload& w)
      : options(o),
        workload(w),
        pool(MakePool(w, o.seed, o.pool)),
        expected(ComputeExpected(w, pool.packets)) {}

  const Options& options;
  const Workload& workload;
  Pool pool;
  Expected expected;
  HostProbe probe;
  double rss_base = 0;
  double rss_peak = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;
  Tally tally;
  uint64_t mismatches = 0;
  std::vector<gigascope::telemetry::MetricSample> telemetry;

  /// Whole passes of the paced run that take about `share` of the run.
  uint64_t OpenPasses(double share) const {
    const double packets =
        options.seconds * share * workload.open_loop_pps;
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(
                                     packets / pool.packets.size())));
  }
};

/// The paced run on a fresh engine; records the latency metrics.
bool MeasureLatency(RunState& run, double share) {
  OpenResult open;
  {
    Instance instance;
    if (Setup(run.workload, &instance, nullptr) < 0) return false;
    Checker checker(run.workload, run.expected, run.pool);
    open = RunOpen(run.workload, run.pool, instance, checker,
                   run.OpenPasses(share), &run.probe, &run.tally);
    run.mismatches += checker.failures();
  }
  const uint64_t samples = open.latency_us.size();
  auto& m = run.metrics;
  // Median over pool ranges of each range's latency on its least disturbed
  // passes (RunOpen); the plain median over all rows is in the record too.
  Put(&m, "result_latency_p50_us", Median(open.position_p50_us), "us",
      open.position_p50_us, samples);
  Put(&m, "result_latency_p50_all_rows_us", Median(open.latency_us), "us",
      {}, samples);
  Put(&m, "result_latency_p99_us", Percentile(open.latency_us, 0.99), "us",
      {}, samples);
  Put(&m, "loadgen.latency_samples", static_cast<double>(samples), "count");
  Put(&m, "loadgen.late_p99_us", Percentile(open.late_us, 0.99), "us", {},
      open.late_us.size());
  const double late_p50 = Percentile(open.late_us, 0.5);
  Put(&m, "loadgen.late_p50_us", late_p50, "us", {}, open.late_us.size());
  run.notes["latency_valid"] = late_p50 <= kLateLimitUs ? "true" : "false";
  run.notes["latency_early_rows"] = std::to_string(open.early_rows);
  return true;
}

/// --trace 0: set-up time, closed-loop throughput, memory, then latency.
bool RunEndToEnd(RunState& run) {
  SetupSamples setup;
  if (!RepeatSetup(run.workload, nullptr, &run.probe, &setup)) return false;
  Put(&run.metrics, "setup_s", Median(setup.normalized_seconds), "s",
      setup.normalized_seconds);
  Put(&run.metrics, "setup_raw_s", Median(setup.seconds), "s", setup.seconds);

  ClosedResult closed;
  {
    Instance instance;
    if (Setup(run.workload, &instance, nullptr) < 0) return false;
    Checker checker(run.workload, run.expected, run.pool);
    closed = RunClosed(run.pool, instance, checker, run.options.seconds * 0.5,
                       nullptr, &run.probe, &run.tally, &run.rss_peak);
    run.mismatches += checker.failures();
  }
  Put(&run.metrics, "pps", Median(closed.normalized_pps), "1/s",
      closed.normalized_pps);
  Put(&run.metrics, "pps_raw", Median(closed.pps), "1/s", closed.pps);
  Put(&run.metrics, "engine_rss_mb", (run.rss_peak - run.rss_base) / 1e6,
      "MB");
  return MeasureLatency(run, 0.5);
}

SpanTotals Find(const std::map<std::string, SpanTotals>& totals,
                const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

double PerItem(const SpanTotals& t) {
  return t.items ? static_cast<double>(t.self_ns) / t.items : 0;
}

/// Per-layer metrics from the span ledger of the traced closed loop.
void PutSpanMetrics(RunState& run, const SpanRecorder& spans,
                    size_t first_span, const ClosedResult& closed) {
  int64_t wall_ns = 0;
  for (size_t i = first_span; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    if (std::strcmp(span.name, "pass") == 0) {
      wall_ns += span.end_ns - span.start_ns;
    }
  }
  const auto totals = spans.Totals(spans.spans()[first_span].start_ns);
  const SpanTotals inject = Find(totals, "core.inject");
  const SpanTotals pump = Find(totals, "core.pump");
  auto& m = run.metrics;
  Put(&m, "core.inject_ns_per_pkt", PerItem(inject), "ns", {}, inject.count);
  Put(&m, "core.pump_ns_per_pkt", PerItem(pump), "ns", {}, pump.count);
  const SpanTotals sub = Find(totals, "core.subscription");
  Put(&m, "core.subscription_ns_per_row", PerItem(sub), "ns", {}, sub.count);
  const SpanTotals wait = Find(totals, "bench.wait_workers");
  Put(&m, "bench.wait_workers_ns_per_pkt",
      inject.items ? static_cast<double>(wait.self_ns) / inject.items : 0,
      "ns", {}, wait.count);
  Put(&m, "core.flush_ms", closed.flush_ms, "ms");
  // Everything in a pass is inside some child span except the loop itself.
  Put(&m, "trace.coverage",
      wall_ns ? 1.0 - static_cast<double>(Find(totals, "pass").self_ns) /
                          wall_ns
              : 0,
      "ratio");
  Put(&m, "trace.overhead", Median(closed.traced_pps) / Median(closed.pps),
      "ratio");
  Put(&m, "trace.pps_traced", Median(closed.traced_pps), "1/s",
      closed.traced_pps);
  Put(&m, "trace.pps_untraced", Median(closed.pps), "1/s", closed.pps);
}

/// The lower layers' public functions timed alone on this run's inputs.
void PutIsolatedMetrics(RunState& run, const Instance& instance) {
  const double seconds = run.options.seconds;
  const std::vector<Packet>& packets = run.pool.packets;
  run.probe.PinToFastestCpu();
  const double decode_ns = TimeAlone(seconds * 0.08, packets.size(), [&] {
    size_t sink = 0;
    for (const Packet& p : packets) {
      auto decoded = gigascope::net::DecodePacket(p.view());
      sink += decoded.ok() ? decoded->payload.size() : 0;
    }
    if (sink == 1) std::fputc(' ', stderr);
  });
  auto& m = run.metrics;
  Put(&m, "net.decode_ns_per_pkt", decode_ns, "ns");
  const double inject_ns = m["core.inject_ns_per_pkt"].value;
  Put(&m, "core.inject_over_decode", decode_ns > 0 ? inject_ns / decode_ns : 0,
      "ratio");

  // The workload's own output rows, through the subscriber's codec.
  const gigascope::rts::TupleCodec codec(instance.sub->schema());
  std::vector<Row> rows;
  for (size_t i = 0; i < std::min<size_t>(run.expected.rows(), 65536); ++i) {
    rows.push_back(MakeRow(instance.sub->schema(), run.expected.row(i)));
  }
  Put(&m, "rts.codec_ns_per_tuple",
      TimeAlone(seconds * 0.06, rows.size(), [&] {
        gigascope::ByteBuffer buffer;
        size_t sink = 0;
        for (const Row& row : rows) {
          buffer.clear();
          codec.Encode(row, &buffer);
          auto back =
              codec.Decode(gigascope::ByteSpan(buffer.data(), buffer.size()));
          sink += back.ok() ? back->size() : 0;
        }
        if (sink == 1) std::fputc(' ', stderr);
      }),
      "ns");

  // match_regex's engine on the payloads that survive regex_threads' LFTA.
  double regex_ns = 0;
  auto regex = gigascope::udf::Regex::Compile("^[^\\n]*HTTP/1.*");
  if (run.workload.kind == Kind::kRegexThreads && regex.ok()) {
    std::vector<std::string_view> payloads;
    for (uint32_t index : run.expected.regex_candidates) {
      auto decoded = gigascope::net::DecodePacket(packets[index].view());
      if (!decoded.ok()) continue;
      payloads.emplace_back(
          reinterpret_cast<const char*>(decoded->payload.data()),
          decoded->payload.size());
    }
    regex_ns = TimeAlone(seconds * 0.06, payloads.size(), [&] {
      size_t sink = 0;
      for (std::string_view payload : payloads) sink += regex->Matches(payload);
      if (sink == 1) std::fputc(' ', stderr);
    });
  }
  Put(&m, "udf.regex_ns_per_call", regex_ns, "ns");
  run.probe.Unpin();
}

/// Per-layer metrics from the engine's own counters (telemetry Snapshot and
/// GetNodeStats of the traced engine after FlushAll).
void PutCounterMetrics(RunState& run, const Instance& instance) {
  const auto& telemetry = run.telemetry;
  auto counter = [&](const std::string& entity, const char* metric) {
    for (const auto& s : telemetry) {
      if (s.entity == entity && s.metric == metric) {
        return static_cast<double>(s.value);
      }
    }
    return 0.0;
  };
  // A query's nodes are named after it; the LFTA-side ones after its LFTA
  // stream ("q_lfta", "q_lfta#0"). An unsplit query runs whole on the LFTA
  // stage.
  const auto& info = instance.info;
  auto is_lfta = [&](const std::string& node) {
    if (!info.has_lfta) return !info.has_hfta;
    return node == info.lfta_name || node.rfind(info.lfta_name + "#", 0) == 0;
  };
  std::vector<Engine::NodeStats> lfta, hfta;
  for (auto& stats : instance.engine->GetNodeStats()) {
    (is_lfta(stats.name) ? lfta : hfta).push_back(stats);
  }
  // Stage selectivity: tuples leaving the stage's last node per tuple
  // entering its first (for the LFTA stage, per packet).
  auto selectivity = [](const std::vector<Engine::NodeStats>& stage) {
    if (stage.empty() || stage.front().tuples_in == 0) return 0.0;
    return static_cast<double>(stage.back().tuples_out) /
           stage.front().tuples_in;
  };
  // Busiest node of the stage by poll time.
  auto poll = [&](const std::vector<Engine::NodeStats>& stage,
                  const char* metric) {
    double most = 0;
    for (const auto& stats : stage) most = std::max(most, counter(stats.name, metric));
    return most;
  };
  auto sum = [&](const std::vector<Engine::NodeStats>& stage,
                 const char* metric) {
    double total = 0;
    for (const auto& stats : stage) total += counter(stats.name, metric);
    return total;
  };
  auto& m = run.metrics;
  Put(&m, "ops.lfta.selectivity", selectivity(lfta), "ratio");
  Put(&m, "ops.hfta.selectivity", selectivity(hfta), "ratio");
  Put(&m, "ops.lfta.poll_ns_p50", poll(lfta, "poll_ns_p50"), "ns");
  Put(&m, "ops.lfta.poll_ns_p99", poll(lfta, "poll_ns_p99"), "ns");
  Put(&m, "ops.hfta.poll_ns_p50", poll(hfta, "poll_ns_p50"), "ns");
  Put(&m, "ops.hfta.poll_ns_p99", poll(hfta, "poll_ns_p99"), "ns");
  const double updates = sum(lfta, "lfta_updates");
  Put(&m, "ops.lfta_agg.evictions_per_update",
      updates > 0 ? sum(lfta, "lfta_evictions") / updates : 0, "ratio");
  Put(&m, "ops.aggregate.groups_flushed", sum(hfta, "groups_flushed"),
      "count");

  // The ring the LFTA stage's output crosses: the first HFTA node's input,
  // or the subscriber's when the query is not split.
  double msgs_per_slot = 0, high_water = 0, dropped = 0, parse_errors = 0;
  const std::string hop = hfta.empty() ? "q#sub0" : hfta.front().name;
  for (const auto& s : telemetry) {
    if (s.entity == hop && EndsWith(s.metric, "_batch_size_p50")) {
      msgs_per_slot = static_cast<double>(s.value);
    }
    if (s.metric.rfind("ring", 0) == 0 && EndsWith(s.metric, "_high_water")) {
      high_water = std::max(high_water, static_cast<double>(s.value));
    }
    if (s.metric.rfind("ring", 0) == 0 && EndsWith(s.metric, "_dropped")) {
      dropped += static_cast<double>(s.value);
    }
    if (s.metric == "parse_errors") parse_errors += s.value;
  }
  Put(&m, "rts.msgs_per_slot_p50", msgs_per_slot, "count");
  Put(&m, "rts.ring_high_water", high_water, "count");
  Put(&m, "rts.ring_dropped", dropped, "count");
  Put(&m, "core.worker_park_ns_p50", counter("worker0", "park_ns_p50"), "ns");
  Put(&m, "core.worker_parks", counter("worker0", "park_ns_count"), "count");
  Put(&m, "core.parse_errors", parse_errors, "count");
}

/// --trace 1: spans around every engine call of a closed loop whose passes
/// alternate traced and untraced, the lower layers timed alone, the
/// engine's counters, and a short paced run for the generator's lateness.
bool RunTraced(RunState& run) {
  SpanRecorder spans;
  SetupSamples setup;
  if (!RepeatSetup(run.workload, &spans, nullptr, &setup)) return false;
  Put(&run.metrics, "core.add_query_ms", Median(setup.add_query_ms), "ms",
      setup.add_query_ms);
  Instance instance;
  if (Setup(run.workload, &instance, nullptr) < 0) return false;
  Checker checker(run.workload, run.expected, run.pool);
  const size_t first_span = spans.spans().size();
  const ClosedResult closed =
      RunClosed(run.pool, instance, checker, run.options.seconds * 0.55,
                &spans, &run.probe, &run.tally, &run.rss_peak);
  run.mismatches += checker.failures();
  run.telemetry = instance.engine->telemetry().Snapshot();
  PutSpanMetrics(run, spans, first_span, closed);
  PutIsolatedMetrics(run, instance);
  PutCounterMetrics(run, instance);
  if (!MeasureLatency(run, 0.2)) return false;
  if (!run.options.trace_out.empty() &&
      !spans.WriteChromeTrace(run.options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", run.options.trace_out.c_str());
    return false;
  }
  return true;
}

int Run(const Options& options) {
  const Workload* workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  RunState run(options, *workload);
  // engine_rss_mb counts what set-ups and the closed loop add on top of
  // this: the pool, the reference and the probe are already resident.
  run.rss_base = run.rss_peak = RssBytes();
  if (!(options.trace ? RunTraced(run) : RunEndToEnd(run))) return 1;

  const Tally& tally = run.tally;
  const uint64_t failed =
      tally.inject_errors + tally.ring_dropped + run.mismatches;
  Put(&run.metrics, "core.inject_errors",
      static_cast<double>(tally.inject_errors), "count");
  Put(&run.metrics, "failed_frac",
      tally.offered ? static_cast<double>(failed) / tally.offered : 1,
      "ratio");
  if (!WriteRecord(options, *workload, run.metrics, tally, run.mismatches,
                   run.notes, run.telemetry)) {
    std::fprintf(stderr, "cannot write %s\n", options.record.c_str());
    return 1;
  }
  for (const auto& [name, metric] : run.metrics) {
    std::printf("%-36s %16.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(tally.offered),
              static_cast<unsigned long long>(failed));
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--pool") {
      options->pool = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--record") {
      options->record = value;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->record.empty() && options->seconds > 0 &&
         options->pool >= 64 && (options->trace == 0 || options->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: gsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --record FILE [--trace-out FILE] "
                 "[--pool PACKETS]\n");
    return 2;
  }
  return perfbench::Run(options);
}
