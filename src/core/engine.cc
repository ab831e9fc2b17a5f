#include "core/engine.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/logging.h"
#include "core/compiled_query.h"
#include "gsql/parser.h"
#include "net/headers.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

using expr::Value;
using gsql::DataType;
namespace metric = telemetry::metric;

TupleSubscription::TupleSubscription(rts::Subscription channel,
                                     gsql::StreamSchema schema)
    : channel_(std::move(channel)), codec_(std::move(schema)) {}

std::optional<rts::Row> TupleSubscription::NextRow() {
  rts::StreamMessage message;
  while (channel_->TryPop(&message)) {
    if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
    auto row = codec_.Decode(
        ByteSpan(message.payload.data(), message.payload.size()));
    if (row.ok()) return std::move(row).value();
  }
  return std::nullopt;
}

Engine::Engine(EngineOptions options) : options_(options) {
  if (options_.functions == nullptr) {
    options_.functions = udf::FunctionRegistry::Default();
  }
  // Built-in protocols.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinNetflowSchema()).ok());
  // The self-telemetry stream: registered in both the catalog and the
  // stream registry up front, so any query can `FROM gs_stats` through the
  // normal planner path, exactly like a user-declared stream.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinStatsSchema()).ok());
  GS_CHECK(registry_.DeclareStream(gsql::Catalog::BuiltinStatsSchema()).ok());
  stats_source_ =
      std::make_unique<telemetry::StatsSource>(&telemetry_, &registry_);
  telemetry_.Register("engine", metric::kHeartbeats, &heartbeats_);
  telemetry_.Register("engine", metric::kStatsSnapshots,
                      stats_source_->snapshots_counter());
  if (options_.trace_sample > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(options_.trace_sample,
                                                  options_.trace_seed);
    tracer_->SetTrackName(0, "inject");
    telemetry_.Register("engine", metric::kTraceSampled,
                        tracer_->sampled_counter());
    telemetry_.Register("engine", metric::kTraceDroppedEvents,
                        tracer_->dropped_events_counter());
  }
  if (options_.shed.enabled) {
    shed_controller_ =
        std::make_unique<OverloadController>(options_.shed, &shed_state_);
    shed_controller_->RegisterTelemetry(&telemetry_, "engine");
    telemetry_.Register("engine", metric::kShedTuples, &shed_tuples_);
  }
  // Lets a CI leg run an existing test binary in process mode (shm-backed
  // rings + StartProcesses eligibility) without plumbing a flag through
  // every harness.
  if (const char* force = std::getenv("GS_PROCESS_FORCE")) {
    const std::string_view v(force);
    if (!v.empty() && v != "0" && v != "off") options_.process.enabled = true;
  }
  if (options_.process.enabled) {
    // Every subscription created from here on gets a shm-backed ring, so
    // the rings forked worker processes inherit are shared, not copied.
    rts::ShmRingOptions shm;
    shm.enabled = true;
    shm.max_slots = options_.process.shm_max_slots;
    shm.slot_bytes = options_.process.shm_slot_bytes;
    registry_.SetChannelOptions(shm);
    // Ring-health counters live in the shm control blocks, so the parent's
    // aggregate readers see child-side progress.
    telemetry_.RegisterReader("engine", metric::kTornSlots,
                              [this] { return registry_.TotalTornAll(); });
    telemetry_.RegisterReader("engine", metric::kResyncDropped, [this] {
      return registry_.TotalResyncDroppedAll();
    });
    telemetry_.RegisterReader("engine", metric::kOversizeDropped, [this] {
      return registry_.TotalOversizeDroppedAll();
    });
  }
}

Engine::~Engine() {
  StopProcesses();
  StopThreads();
}

Status Engine::CheckMutable(const char* operation) const {
  if (threads_running_) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": the worker pool is running; call StopThreads first");
  }
  if (processes_running_) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": worker processes are running; they fork-share the structures "
        "this call mutates");
  }
  return Status::Ok();
}

Status Engine::CheckAcceptingInput(const char* operation) const {
  if (flushed_) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": the engine is flushed (FlushAll is end-of-stream); no further "
        "input is accepted");
  }
  return Status::Ok();
}

void Engine::AddInterface(const std::string& name) {
  catalog_.AddInterface(name);
}

Status Engine::ExecuteDdl(std::string_view ddl) {
  GS_RETURN_IF_ERROR(CheckMutable("ExecuteDdl"));
  GS_ASSIGN_OR_RETURN(gsql::ParsedProgram program, gsql::Parse(ddl));
  for (const gsql::Statement& statement : program.statements) {
    const auto* create = std::get_if<gsql::CreateStmt>(&statement);
    if (create == nullptr) {
      return Status::InvalidArgument(
          "ExecuteDdl accepts only CREATE statements; use AddQuery for "
          "queries");
    }
    GS_RETURN_IF_ERROR(catalog_.AddSchema(create->schema));
  }
  return Status::Ok();
}

Status Engine::DeclareStream(const gsql::StreamSchema& schema) {
  GS_RETURN_IF_ERROR(CheckMutable("DeclareStream"));
  if (schema.kind() != gsql::StreamKind::kStream) {
    return Status::InvalidArgument(
        "DeclareStream declares Stream schemas; protocols come from DDL");
  }
  if (!catalog_.HasSchema(schema.name())) {
    GS_RETURN_IF_ERROR(catalog_.AddSchema(schema));
  }
  return registry_.DeclareStream(schema);
}

Status Engine::EnsureProtocolSource(const std::string& interface_name,
                                    const std::string& protocol) {
  std::string stream_name = ProtocolStreamName(interface_name, protocol);
  if (protocol_sources_.count(stream_name) > 0) return Status::Ok();
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      catalog_.GetSchema(protocol));
  // Built in place: the telemetry counters are neither movable nor
  // copyable, and map nodes are stable, so the registry can point at them.
  ProtocolSource& source = protocol_sources_[stream_name];
  source.stream_name = stream_name;
  source.schema = gsql::StreamSchema(stream_name, gsql::StreamKind::kStream,
                                     schema.fields());
  source.interpret = BuildInterpretPlan(source.schema);
  // Payload fields heap-copy packet bytes per interpretation; leave them
  // off until a consumer that reads them shows up (MarkProtocolFieldUses,
  // Subscribe, AddNode). With user nodes around, any stream may be read
  // through registry(), so keep everything on.
  if (!user_nodes_present_) {
    for (size_t f = 0; f < source.interpret.fields.size(); ++f) {
      if (source.interpret.fields[f] == InterpretPlan::Extract::kPayload ||
          source.interpret.fields[f] == InterpretPlan::Extract::kIpPayload) {
        source.interpret.wanted[f] = false;
      }
    }
  }
  source.codec = std::make_unique<rts::TupleCodec>(source.schema);
  Status declared = registry_.DeclareStream(source.schema);
  if (!declared.ok()) {
    protocol_sources_.erase(stream_name);
    return declared;
  }
  telemetry_.Register(stream_name, metric::kPackets, &source.packets);
  telemetry_.Register(stream_name, metric::kLastPunctSec,
                      &source.last_punct_sec);
  telemetry_.RegisterHistogram(stream_name, metric::kPunctLagNs,
                               &source.punct_lag);
  telemetry_.Register(stream_name, metric::kParseErrors,
                      &source.parse_errors);
  telemetry_.Register(stream_name, metric::kTimeRegressions,
                      &source.time_regressions);
  return Status::Ok();
}

Status Engine::EnsureSources(const plan::PlanPtr& plan) {
  if (plan == nullptr) return Status::Ok();
  if (plan->kind == plan::PlanKind::kSource && plan->source_is_protocol) {
    GS_RETURN_IF_ERROR(
        EnsureProtocolSource(plan->interface_name, plan->source_stream));
  }
  for (const plan::PlanPtr& child : plan->children) {
    GS_RETURN_IF_ERROR(EnsureSources(child));
  }
  return Status::Ok();
}

void Engine::MarkAllProtocolFields(ProtocolSource& source) {
  source.interpret.wanted.assign(source.interpret.wanted.size(), true);
}

void Engine::MarkProtocolFieldUses(const plan::PlanPtr& node) {
  if (node == nullptr || node->kind == plan::PlanKind::kSource) return;
  for (const plan::PlanPtr& child : node->children) {
    MarkProtocolFieldUses(child);
  }
  // (input, field) references of this operator's expressions; inputs that
  // resolve to protocol-source children mark the field wanted.
  std::vector<std::pair<size_t, size_t>> refs;
  auto collect = [&refs](const expr::IrPtr& ir) {
    if (ir != nullptr) expr::CollectFieldRefs(ir, &refs);
  };
  switch (node->kind) {
    case plan::PlanKind::kSelectProject:
      collect(node->predicate);
      for (const expr::IrPtr& projection : node->projections) {
        collect(projection);
      }
      break;
    case plan::PlanKind::kAggregate:
      for (const expr::IrPtr& key : node->group_keys) collect(key);
      for (const expr::AggregateSpec& agg : node->aggregates) {
        collect(agg.arg);
      }
      break;
    case plan::PlanKind::kJoin:
      collect(node->join_predicate);
      refs.emplace_back(0, node->left_window_field);
      refs.emplace_back(1, node->right_window_field);
      break;
    case plan::PlanKind::kMerge:
      for (size_t i = 0; i < node->children.size(); ++i) {
        refs.emplace_back(i, node->merge_field);
      }
      break;
    case plan::PlanKind::kSource:
      return;
  }
  for (const auto& [input, field] : refs) {
    if (input >= node->children.size()) continue;
    const plan::PlanPtr& child = node->children[input];
    if (child->kind != plan::PlanKind::kSource || !child->source_is_protocol) {
      continue;
    }
    auto it = protocol_sources_.find(
        ProtocolStreamName(child->interface_name, child->source_stream));
    if (it == protocol_sources_.end()) continue;
    if (field < it->second.interpret.wanted.size()) {
      it->second.interpret.wanted[field] = true;
    }
  }
}

Result<QueryInfo> Engine::AddQuery(
    std::string_view gsql_text,
    const std::map<std::string, expr::Value>& params) {
  GS_RETURN_IF_ERROR(CheckMutable("AddQuery"));
  // True-up stage and telemetry bookkeeping if an earlier instantiation
  // failed partway.
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  RegisterNewNodeTelemetry();
  const size_t first_new_node = nodes_.size();
  GS_ASSIGN_OR_RETURN(gsql::Statement statement,
                      gsql::ParseStatement(gsql_text));

  // Extract the DEFINE block (shared by SELECT and MERGE).
  const gsql::DefineBlock* define = nullptr;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    define = &select->define;
  } else if (const auto* merge = std::get_if<gsql::MergeStmt>(&statement)) {
    define = &merge->define;
  } else {
    return Status::InvalidArgument(
        "AddQuery accepts SELECT or MERGE statements; use ExecuteDdl for "
        "CREATE");
  }

  // Resolve declared parameters to slots and instantiation-time values.
  plan::PlannerOptions planner_options;
  planner_options.resolver = options_.functions;
  std::vector<Value> param_values;
  std::vector<std::string> param_names;
  for (const auto& decl : define->params) {
    planner_options.params.emplace_back(decl.name, decl.type);
    param_names.push_back(decl.name);
    auto it = params.find(decl.name);
    Value value;
    if (it != params.end()) {
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(it->second, decl.type));
    } else if (decl.default_value != nullptr) {
      const auto* literal =
          std::get_if<gsql::LiteralExpr>(&decl.default_value->node);
      if (literal == nullptr) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "' default must be a literal");
      }
      switch (literal->type) {
        case DataType::kInt:
          value = Value::Int(literal->int_value);
          break;
        case DataType::kUint:
        case DataType::kIp:
          value = Value::Uint(literal->uint_value);
          break;
        case DataType::kFloat:
          value = Value::Float(literal->float_value);
          break;
        case DataType::kString:
          value = Value::String(literal->string_value);
          break;
        case DataType::kBool:
          value = Value::Bool(literal->bool_value);
          break;
      }
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(value, decl.type));
    } else {
      return Status::InvalidArgument("parameter '" + decl.name +
                                     "' has no value and no default");
    }
    param_values.push_back(std::move(value));
  }

  // Plan.
  plan::PlannedQuery planned;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    GS_ASSIGN_OR_RETURN(gsql::ResolvedSelect resolved,
                        gsql::AnalyzeSelect(*select, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanSelect(resolved, planner_options));
  } else {
    const auto& merge = std::get<gsql::MergeStmt>(statement);
    GS_ASSIGN_OR_RETURN(gsql::ResolvedMerge resolved,
                        gsql::AnalyzeMerge(merge, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanMerge(resolved, planner_options));
  }
  if (registry_.HasStream(planned.name)) {
    return Status::AlreadyExists("a query named '" + planned.name +
                                 "' is already running");
  }

  // Split into LFTA/HFTA.
  GS_ASSIGN_OR_RETURN(plan::SplitQuery split, plan::SplitPlan(planned));

  QueryInfo info;
  info.name = split.name;
  info.lfta_name = split.lfta_name;
  info.has_lfta = split.lfta != nullptr;
  info.has_hfta = split.hfta != nullptr;
  info.split_aggregation = split.split_aggregation;
  info.unbounded_aggregation = planned.unbounded_aggregation;
  info.has_nic_program = split.has_nic_program;
  info.nic_program = split.nic_program;
  info.snap_len = split.snap_len;
  info.plan_text = "-- logical --\n" + planned.root->ToString();
  if (split.lfta != nullptr) {
    info.plan_text += "-- lfta --\n" + split.lfta->ToString();
  }
  if (split.hfta != nullptr) {
    info.plan_text += "-- hfta --\n" + split.hfta->ToString();
  }

  // Instantiate: LFTA first (it declares the mangled stream the HFTA
  // reads), then the HFTA.
  QueryParams query_params;
  query_params.block =
      std::make_shared<std::vector<Value>>(param_values);
  query_params.names = param_names;

  InstantiationContext ctx;
  ctx.registry = &registry_;
  ctx.params = query_params.block;
  ctx.param_values = param_values;
  ctx.channel_capacity = options_.channel_capacity;
  ctx.lfta_hash_log2 = options_.lfta_hash_log2;
  ctx.output_batch = options_.batch_max_size;
  // With shedding off, nodes keep a null pointer and pay nothing.
  ctx.shed = options_.shed.enabled ? &shed_state_ : nullptr;
  ctx.nodes = &nodes_;

  if (split.lfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.lfta));
    MarkProtocolFieldUses(split.lfta);
    ctx.use_lfta_table = split.split_aggregation;
    // LFTA-stage nodes run on the inject thread even in multi-process
    // mode, and the splitter guarantees their inputs are protocol sources
    // or streams internal to this same plan — all produced in the parent.
    // Keep those rings heap-backed: the per-packet source traffic must
    // not pay shm serialization for a process boundary it never crosses.
    ctx.parent_local = true;
    std::string lfta_output =
        split.hfta == nullptr ? split.name : split.lfta_name;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.lfta, lfta_output, &ctx));
    ctx.parent_local = false;
  }
  // Nodes instantiated so far belong to the LFTA plan and stay on the
  // inject thread in threaded mode; everything after runs on workers.
  node_stages_.resize(nodes_.size(), NodeStage::kLfta);
  if (split.hfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.hfta));
    MarkProtocolFieldUses(split.hfta);
    ctx.use_lfta_table = false;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.hfta, split.name, &ctx));
  }
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);

  // Register the query's output schema in the catalog so later queries can
  // compose over it (§2.2).
  catalog_.PutStreamSchema(planned.output_schema);
  query_params_.emplace(info.name, std::move(query_params));
  query_infos_.push_back(info);
  // Retained for EXPLAIN ANALYZE (plan trees are shared_ptr-backed, so
  // this is a cheap handle copy, not a deep clone).
  analyze_plans_.push_back({planned, split});
  // The node publishing under the query's public name is its terminal:
  // tuples it emits while processing a traced message record the
  // inject→emit latency. Marked before telemetry registration so the
  // e2e_latency_ns histogram is registered for it.
  for (size_t i = first_new_node; i < nodes_.size(); ++i) {
    if (nodes_[i]->name() == split.name) nodes_[i]->set_terminal(true);
  }
  RegisterNewNodeTelemetry();
  return info;
}

void Engine::RegisterNewNodeTelemetry() {
  for (; telemetry_registered_nodes_ < nodes_.size();
       ++telemetry_registered_nodes_) {
    rts::QueryNode* node = nodes_[telemetry_registered_nodes_].get();
    if (tracer_ != nullptr) {
      const uint32_t track = next_track_id_++;
      node->SetTracer(tracer_.get(), track);
      tracer_->SetTrackName(track, node->name());
    }
    node->RegisterTelemetry(&telemetry_);
    // Cache LFTA-table nodes so the overload controller's pressure checks
    // can read table occupancy without a scan-and-cast per check.
    if (const auto* lfta = dynamic_cast<const ops::LftaAggregateNode*>(node)) {
      lfta_agg_nodes_.push_back(lfta);
    }
  }
}

Status Engine::SetParam(const std::string& query_name,
                        const std::string& param_name, expr::Value value) {
  // The param block is read by worker-owned nodes without locks.
  GS_RETURN_IF_ERROR(CheckMutable("SetParam"));
  auto it = query_params_.find(query_name);
  if (it == query_params_.end()) {
    return Status::NotFound("no query named '" + query_name + "'");
  }
  for (size_t i = 0; i < it->second.names.size(); ++i) {
    if (it->second.names[i] == param_name) {
      DataType declared = (*it->second.block)[i].type();
      GS_ASSIGN_OR_RETURN(Value casted, expr::CastValue(value, declared));
      (*it->second.block)[i] = std::move(casted);
      return Status::Ok();
    }
  }
  return Status::NotFound("query '" + query_name + "' has no parameter '" +
                          param_name + "'");
}

Result<std::unique_ptr<TupleSubscription>> Engine::Subscribe(
    const std::string& stream_name, size_t capacity) {
  GS_RETURN_IF_ERROR(CheckMutable("Subscribe"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  // A raw subscriber to a protocol stream sees whole rows; materialize
  // every field from here on.
  auto source_it = protocol_sources_.find(stream_name);
  if (source_it != protocol_sources_.end()) {
    MarkAllProtocolFields(source_it->second);
  }
  GS_ASSIGN_OR_RETURN(rts::Subscription channel,
                      registry_.Subscribe(stream_name, capacity));
  // Subscriber-side channels are observable too; the readers share
  // ownership so the ring outlives any snapshot.
  std::string entity =
      stream_name + "#sub" + std::to_string(subscriber_seq_++);
  rts::Subscription shared = channel;
  const std::string ring = metric::kRingPrefix;
  telemetry_.RegisterReader(entity, ring + metric::kRingPushedSuffix,
                            [shared] { return shared->pushed(); });
  telemetry_.RegisterReader(entity, ring + metric::kRingDroppedSuffix,
                            [shared] { return shared->dropped(); });
  telemetry_.RegisterReader(entity, ring + metric::kRingSizeSuffix,
                            [shared] {
                              return static_cast<uint64_t>(shared->size());
                            });
  telemetry_.RegisterReader(entity, ring + metric::kRingHighWaterSuffix,
                            [shared] {
                              return static_cast<uint64_t>(
                                  shared->high_water_mark());
                            });
  telemetry_.RegisterHistogram(
      entity, ring + metric::kRingOccupancySuffix,
      [shared] { return shared->occupancy_histogram().Snapshot(); });
  telemetry_.RegisterHistogram(
      entity, ring + metric::kRingBatchSizeSuffix,
      [shared] { return shared->batch_size_histogram().Snapshot(); });
  return std::make_unique<TupleSubscription>(std::move(channel),
                                             std::move(schema));
}

InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema) {
  using Extract = InterpretPlan::Extract;
  InterpretPlan plan;
  plan.fields.reserve(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const gsql::FieldDef& field = schema.field(f);
    const std::string& name = field.name;
    Extract extract = Extract::kDefault;
    if (name == "time") extract = Extract::kTime;
    else if (name == "timestamp") extract = Extract::kTimestamp;
    else if (name == "len") extract = Extract::kLen;
    else if (name == "srcIP") extract = Extract::kSrcIp;
    else if (name == "destIP") extract = Extract::kDestIp;
    else if (name == "srcPort") extract = Extract::kSrcPort;
    else if (name == "destPort") extract = Extract::kDestPort;
    else if (name == "protocol") extract = Extract::kProtocol;
    else if (name == "ipVersion") extract = Extract::kIpVersion;
    else if (name == "tcpFlags") extract = Extract::kTcpFlags;
    else if (name == "tcpSeq") extract = Extract::kTcpSeq;
    else if (name == "ipId") extract = Extract::kIpId;
    else if (name == "fragOffset") extract = Extract::kFragOffset;
    else if (name == "moreFrags") extract = Extract::kMoreFrags;
    else if (name == "payload") extract = Extract::kPayload;
    else if (name == "ipPayload") extract = Extract::kIpPayload;
    plan.fields.push_back(extract);
    plan.types.push_back(field.type);
    plan.wanted.push_back(true);
  }
  return plan;
}

rts::Row InterpretPacket(const InterpretPlan& plan,
                         const net::Packet& packet) {
  return InterpretPacket(plan, packet, nullptr);
}

rts::Row InterpretPacket(const InterpretPlan& plan, const net::Packet& packet,
                         bool* malformed) {
  using Extract = InterpretPlan::Extract;
  auto decoded_result = net::DecodePacket(packet.view());
  const net::DecodedPacket* decoded =
      decoded_result.ok() ? &decoded_result.value() : nullptr;
  if (malformed != nullptr) *malformed = decoded == nullptr;
  const bool has_ip = decoded != nullptr && decoded->ip.has_value();

  rts::Row row;
  row.reserve(plan.fields.size());
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    Extract extract = plan.fields[f];
    // Gated-off fields and extractors whose protocol layer is absent both
    // interpret as the type default, matching name-based interpretation of
    // an undecodable packet.
    if (!plan.wanted[f]) extract = Extract::kDefault;
    switch (extract) {
      case Extract::kTime:
        row.push_back(Value::Uint(
            static_cast<uint64_t>(SimTimeToSeconds(packet.timestamp))));
        continue;
      case Extract::kTimestamp:
        row.push_back(Value::Uint(static_cast<uint64_t>(packet.timestamp)));
        continue;
      case Extract::kLen:
        row.push_back(Value::Uint(packet.orig_len));
        continue;
      case Extract::kSrcIp:
        if (!has_ip) break;
        row.push_back(Value::Ip(decoded->ip->src_addr));
        continue;
      case Extract::kDestIp:
        if (!has_ip) break;
        row.push_back(Value::Ip(decoded->ip->dst_addr));
        continue;
      case Extract::kSrcPort: {
        if (decoded == nullptr) break;
        uint16_t port = decoded->is_tcp()   ? decoded->tcp->src_port
                        : decoded->is_udp() ? decoded->udp->src_port
                                            : 0;
        row.push_back(Value::Uint(port));
        continue;
      }
      case Extract::kDestPort: {
        if (decoded == nullptr) break;
        uint16_t port = decoded->is_tcp()   ? decoded->tcp->dst_port
                        : decoded->is_udp() ? decoded->udp->dst_port
                                            : 0;
        row.push_back(Value::Uint(port));
        continue;
      }
      case Extract::kProtocol:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->protocol));
        continue;
      case Extract::kIpVersion:
        if (decoded == nullptr) break;
        row.push_back(Value::Uint(has_ip ? 4 : 0));
        continue;
      case Extract::kTcpFlags:
        if (decoded == nullptr) break;
        row.push_back(
            Value::Uint(decoded->is_tcp() ? decoded->tcp->flags : 0));
        continue;
      case Extract::kTcpSeq:
        if (decoded == nullptr) break;
        row.push_back(Value::Uint(decoded->is_tcp() ? decoded->tcp->seq : 0));
        continue;
      case Extract::kIpId:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->identification));
        continue;
      case Extract::kFragOffset:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->fragment_offset));
        continue;
      case Extract::kMoreFrags:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->more_fragments() ? 1 : 0));
        continue;
      case Extract::kIpPayload: {
        if (!has_ip) break;
        // The IP payload including any transport header — what an IP
        // defragmenter reassembles.
        size_t start = net::kEthernetHeaderLen + decoded->ip->header_len;
        std::string ip_payload;
        if (packet.bytes.size() > start) {
          ip_payload.assign(
              reinterpret_cast<const char*>(packet.bytes.data() + start),
              packet.bytes.size() - start);
        }
        row.push_back(Value::String(std::move(ip_payload)));
        continue;
      }
      case Extract::kPayload: {
        std::string payload;
        if (decoded != nullptr) {
          payload.assign(
              reinterpret_cast<const char*>(decoded->payload.data()),
              decoded->payload.size());
        }
        row.push_back(Value::String(std::move(payload)));
        continue;
      }
      case Extract::kDefault:
        break;
    }
    row.push_back(Value::Default(plan.types[f]));
  }
  return row;
}

rts::Row InterpretPacket(const gsql::StreamSchema& schema,
                         const net::Packet& packet) {
  return InterpretPacket(BuildInterpretPlan(schema), packet);
}

Status Engine::InjectPacket(const std::string& interface_name,
                            const net::Packet& packet) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPacket"));
  // One sampling decision per packet: every protocol stream's copy of a
  // traced packet carries the same trace id.
  uint64_t trace_id = 0;
  int64_t trace_ns = 0;
  if (tracer_ != nullptr) {
    trace_id = tracer_->SampleInject();
    if (trace_id != 0) {
      trace_ns = tracer_->NowNs();
      tracer_->RecordInstant("inject", /*tid=*/0, trace_id, trace_ns);
    }
  }
  // L1 shedding: deterministic 1-in-k sampling at the source. One decision
  // per offered packet (not per source) keeps protocol streams of the same
  // interface consistent. Shed packets are accounted — the counter below
  // and the Horvitz-Thompson weight the LFTA folds survivors with — never
  // silently lost.
  ++inject_seq_;
  const uint32_t sample_k = shed_state_.SampleK();
  const bool shed_this = sample_k > 1 && (inject_seq_ % sample_k) != 0;
  bool any = false;
  bool published = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (stream_name.rfind(interface_name + ".", 0) != 0) continue;
    any = true;
    // A packet timestamped behind the source's last punctuation would
    // violate the ordering promise already published downstream; clamp it
    // to the bound (windows at the bound are still open — closes are
    // strictly-below) and count the regression.
    const net::Packet* effective = &packet;
    net::Packet clamped;
    if (packet.timestamp < source.last_punct_time) {
      clamped = packet;
      clamped.timestamp = source.last_punct_time;
      effective = &clamped;
      ++source.time_regressions;
    }
    if (shed_this) {
      // The shed packet still advances the source's packet count and, on
      // punctuation boundaries, emits a time-only punctuation (like a
      // heartbeat) so windows keep closing under heavy shed.
      ++source.packets;
      ++shed_tuples_;
      if (options_.punctuation_interval > 0 &&
          source.packets.value() % options_.punctuation_interval == 0) {
        rts::Punctuation punctuation;
        for (size_t f = 0; f < source.schema.num_fields(); ++f) {
          const gsql::FieldDef& field = source.schema.field(f);
          if (!field.order.IsIncreasingLike()) continue;
          if (field.name == "time") {
            const auto sec = static_cast<uint64_t>(
                SimTimeToSeconds(effective->timestamp));
            punctuation.bounds.emplace_back(f, Value::Uint(sec));
            source.last_punct_sec.Set(sec);
          } else if (field.name == "timestamp") {
            punctuation.bounds.emplace_back(
                f, Value::Uint(static_cast<uint64_t>(effective->timestamp)));
          }
        }
        if (!punctuation.bounds.empty()) {
          source.open_batch.items.push_back(
              rts::MakePunctuationMessage(punctuation, source.schema));
          registry_.PublishBatch(stream_name, std::move(source.open_batch));
          source.open_batch.items.clear();
          source.last_punct_time = effective->timestamp;
          published = true;
        }
      }
      continue;
    }
    bool malformed = false;
    rts::Row row = InterpretPacket(source.interpret, *effective, &malformed);
    if (malformed) ++source.parse_errors;
    rts::StreamMessage message;
    message.kind = rts::StreamMessage::Kind::kTuple;
    message.trace_id = trace_id;
    message.trace_ns = trace_ns;
    // Horvitz-Thompson weight, stamped at the sampling decision: this
    // survivor stands for itself plus the sample_k - 1 packets the L1
    // sampler sheds around it.
    message.weight = sample_k;
    source.codec->Encode(row, &message.payload);
    // Batched inject path: the tuple joins the source's open batch, which
    // publishes as one ring message when it fills, ages out, or a
    // punctuation closes it (a punctuation is always a batch's last item).
    if (source.open_batch.items.empty()) {
      source.batch_open_time = effective->timestamp;
    }
    source.open_batch.items.push_back(std::move(message));
    source.last_row = std::move(row);
    ++source.packets;
    if (source.last_punct_time > 0 &&
        effective->timestamp >= source.last_punct_time) {
      source.punct_lag.Record(static_cast<uint64_t>(effective->timestamp -
                                                    source.last_punct_time));
    }
    bool flush = source.open_batch.items.size() >= options_.batch_max_size;
    if (options_.punctuation_interval > 0 &&
        source.packets.value() % options_.punctuation_interval == 0) {
      rts::Punctuation punctuation;
      for (size_t f = 0; f < source.schema.num_fields(); ++f) {
        const gsql::OrderSpec& order = source.schema.field(f).order;
        if (!order.IsIncreasingLike()) continue;
        if (source.schema.field(f).type == DataType::kString) continue;
        punctuation.bounds.emplace_back(f, source.last_row[f]);
        if (source.schema.field(f).name == "time") {
          source.last_punct_sec.Set(source.last_row[f].uint_value());
        }
      }
      if (!punctuation.bounds.empty()) {
        rts::StreamMessage punct_message =
            rts::MakePunctuationMessage(punctuation, source.schema);
        // Punctuation triggered by a traced packet carries its context:
        // aggregate groups flushed by this punctuation downstream inherit
        // the trace, so e2e latency covers inject -> group close even when
        // the close is punctuation-driven.
        punct_message.trace_id = trace_id;
        punct_message.trace_ns = trace_ns;
        source.open_batch.items.push_back(std::move(punct_message));
        source.last_punct_time = effective->timestamp;
        flush = true;
      }
    }
    if (!flush && options_.batch_max_delay > 0 &&
        effective->timestamp - source.batch_open_time >=
            options_.batch_max_delay) {
      flush = true;
    }
    if (flush) {
      registry_.PublishBatch(stream_name, std::move(source.open_batch));
      source.open_batch.items.clear();
      published = true;
    }
  }
  if (!any) {
    return Status::NotFound("no protocol sources on interface '" +
                            interface_name + "' (add a query first)");
  }
  if (packet.timestamp > last_input_time_) {
    last_input_time_ = packet.timestamp;
  }
  MaybeEmitStats(packet.timestamp);
  MaybeRunShedCheck(packet.timestamp);
  // Threaded mode: LFTAs run next to the capture loop (§4), so drive them
  // here when this packet published anything; their outputs wake the HFTA
  // workers.
  if (published) {
    if (threads_running_) {
      PumpStage(NodeStage::kLfta, options_.worker_poll_budget);
    } else if (processes_running_) {
      PumpProcessRound(options_.worker_poll_budget);
    }
  }
  return Status::Ok();
}

Status Engine::InjectHeartbeat(const std::string& interface_name,
                               SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectHeartbeat"));
  bool any = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (stream_name.rfind(interface_name + ".", 0) != 0) continue;
    any = true;
    rts::Punctuation punctuation;
    for (size_t f = 0; f < source.schema.num_fields(); ++f) {
      const gsql::FieldDef& field = source.schema.field(f);
      if (!field.order.IsIncreasingLike()) continue;
      if (field.name == "time") {
        punctuation.bounds.emplace_back(
            f, Value::Uint(static_cast<uint64_t>(SimTimeToSeconds(now))));
        source.last_punct_sec.Set(
            static_cast<uint64_t>(SimTimeToSeconds(now)));
      } else if (field.name == "timestamp") {
        punctuation.bounds.emplace_back(
            f, Value::Uint(static_cast<uint64_t>(now)));
      }
    }
    if (!punctuation.bounds.empty()) {
      // The punctuation closes (and flushes) the source's open batch so it
      // arrives after every tuple injected before the heartbeat.
      source.open_batch.items.push_back(
          rts::MakePunctuationMessage(punctuation, source.schema));
      registry_.PublishBatch(stream_name, std::move(source.open_batch));
      source.open_batch.items.clear();
      source.last_punct_time = now;
    }
  }
  if (!any) {
    return Status::NotFound("no protocol sources on interface '" +
                            interface_name + "'");
  }
  ++heartbeats_;
  if (now > last_input_time_) last_input_time_ = now;
  MaybeEmitStats(now);
  MaybeRunShedCheck(now);
  if (threads_running_) {
    PumpStage(NodeStage::kLfta, options_.worker_poll_budget);
  } else if (processes_running_) {
    PumpProcessRound(options_.worker_poll_budget);
  }
  return Status::Ok();
}

Status Engine::InjectRow(const std::string& stream_name,
                         const rts::Row& row) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectRow"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  rts::TupleCodec codec(schema);
  rts::StreamMessage message;
  message.kind = rts::StreamMessage::Kind::kTuple;
  codec.Encode(row, &message.payload);
  registry_.Publish(stream_name, message);
  if (threads_running_) {
    PumpStage(NodeStage::kLfta, options_.worker_poll_budget);
  } else if (processes_running_) {
    PumpProcessRound(options_.worker_poll_budget);
  }
  return Status::Ok();
}

Status Engine::InjectPunctuation(const std::string& stream_name, size_t field,
                                 const expr::Value& bound) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPunctuation"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  if (field >= schema.num_fields()) {
    return Status::OutOfRange("punctuation field out of range");
  }
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(field, bound);
  registry_.Publish(stream_name,
                    rts::MakePunctuationMessage(punctuation, schema));
  if (threads_running_) {
    PumpStage(NodeStage::kLfta, options_.worker_poll_budget);
  } else if (processes_running_) {
    PumpProcessRound(options_.worker_poll_budget);
  }
  return Status::Ok();
}

Status Engine::EmitStatsSnapshot(SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("EmitStatsSnapshot"));
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
  if (now > last_input_time_) last_input_time_ = now;
  if (threads_running_) {
    PumpStage(NodeStage::kLfta, options_.worker_poll_budget);
  } else if (processes_running_) {
    PumpProcessRound(options_.worker_poll_budget);
  }
  return Status::Ok();
}

void Engine::MaybeEmitStats(SimTime now) {
  if (options_.stats_period <= 0) return;
  if (now - last_stats_emit_ < options_.stats_period) return;
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
}

void Engine::MaybeRunShedCheck(SimTime now) {
  if (shed_controller_ == nullptr) return;
  if (last_shed_check_ != 0 &&
      now - last_shed_check_ < options_.shed.check_period) {
    return;
  }
  last_shed_check_ = now;
  PressureSignals signals;
  signals.max_ring_occupancy = registry_.MaxOccupancyFraction();
  signals.total_drops = registry_.TotalDropsAll();
  for (const auto& [name, source] : protocol_sources_) {
    if (source.last_punct_time > 0 && now > source.last_punct_time) {
      signals.max_punct_lag =
          std::max(signals.max_punct_lag, now - source.last_punct_time);
    }
  }
  for (const ops::LftaAggregateNode* node : lfta_agg_nodes_) {
    const size_t slots = node->table().num_slots();
    if (slots == 0) continue;
    signals.max_lfta_occupancy =
        std::max(signals.max_lfta_occupancy,
                 static_cast<double>(node->table().occupied()) /
                     static_cast<double>(slots));
  }
  shed_controller_->Check(signals);
}

Status Engine::AddNode(std::unique_ptr<rts::QueryNode> node) {
  GS_RETURN_IF_ERROR(CheckMutable("AddNode"));
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (!registry_.HasStream(node->name())) {
    return Status::InvalidArgument(
        "custom node '" + node->name() +
        "' must declare its output stream before being added");
  }
  // Make the node's output visible to GSQL so queries can compose over it
  // (§3: the defrag operator feeds a query tree).
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(node->name()));
  catalog_.PutStreamSchema(schema);
  // A user node's input reads are opaque (it subscribed through the
  // registry before this call): assume it reads every field of every
  // protocol source, present and future.
  user_nodes_present_ = true;
  for (auto& [source_name, source] : protocol_sources_) {
    MarkAllProtocolFields(source);
  }
  nodes_.push_back(std::move(node));
  // Custom nodes read stream channels, not raw packets: worker stage.
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  RegisterNewNodeTelemetry();
  return Status::Ok();
}

size_t Engine::PumpStage(NodeStage stage, size_t budget_per_node) {
  size_t processed = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i < node_stages_.size() && node_stages_[i] != stage) continue;
    processed += nodes_[i]->PollCounted(budget_per_node);
  }
  return processed;
}

bool Engine::FlushSourceBatches() {
  bool published = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (source.open_batch.items.empty()) continue;
    registry_.PublishBatch(stream_name, std::move(source.open_batch));
    source.open_batch.items.clear();
    published = true;
  }
  return published;
}

size_t Engine::Pump(size_t budget_per_node) {
  // A Pump is a request to make progress: injected tuples still sitting in
  // open source batches publish now rather than waiting for the batch-size
  // threshold (keeps inject→pump→read sequences working at any batch
  // size).
  FlushSourceBatches();
  if (threads_running_) {
    // Workers own the HFTA nodes; polling them here would add a second
    // consumer to their SPSC channels.
    return PumpStage(NodeStage::kLfta, budget_per_node);
  }
  if (processes_running_) return PumpProcessRound(budget_per_node);
  size_t processed = 0;
  for (auto& node : nodes_) {
    processed += node->PollCounted(budget_per_node);
  }
  return processed;
}

void Engine::PumpUntilIdle() {
  while (true) {
    if (Pump() > 0) continue;
    // Idle with space freed: retry punctuations parked on once-full rings
    // so windows close without waiting for the seal. Parked punctuations
    // may only be retried from their producing thread; with workers
    // running the producers of intermediate rings are the workers, so this
    // is deferred to FlushAll (which stops them first). In process mode
    // the parent retries only the rings it produces into (sources, LFTA
    // outputs, adopted nodes) — worker-produced rings' parked state lives
    // in the worker's address space.
    if (processes_running_) {
      size_t flushed = 0;
      for (const std::string& stream : parent_streams_) {
        flushed += registry_.FlushParkedPunctuations(stream);
      }
      if (flushed > 0) continue;
      break;
    }
    if (!threads_running_ && registry_.FlushParkedPunctuations() > 0) {
      continue;
    }
    break;
  }
}

void Engine::FlushAll() {
  if (flushed_) return;  // idempotent: the engine is already sealed
  if (processes_running_) {
    FlushAllProcesses();
    flushed_ = true;
    return;
  }
  // Barrier: take the worker pool down first, then drain everything from
  // this thread — deterministic regardless of worker scheduling, because
  // channels hand over their remaining contents in FIFO order.
  StopThreads();
  PumpUntilIdle();  // also publishes any open source batches
  // Deliver punctuations parked on once-full rings before flushing
  // operator state, so windows close through ordinary bounds where
  // possible. The loop ends when no parked punctuation could be placed
  // (e.g. a full subscriber ring nobody drains).
  while (registry_.FlushParkedPunctuations() > 0) PumpUntilIdle();
  // One terminal telemetry snapshot before the engine seals: the periodic
  // gate in MaybeEmitStats can skip the tail of the run, under-reporting
  // end-of-run counters to gs_stats consumers. Emitted before the node
  // flush below so stats-fed queries process it like any other input.
  if (options_.stats_period > 0) {
    stats_source_->EmitSnapshot(last_input_time_);
    last_stats_emit_ = last_input_time_;
    PumpUntilIdle();
  }
  // Flush upstream-to-downstream, pumping between rounds so flushed state
  // propagates through the chain.
  for (auto& node : nodes_) {
    node->Flush();
    PumpUntilIdle();
  }
  while (registry_.FlushParkedPunctuations() > 0) PumpUntilIdle();
  flushed_ = true;
}

Status Engine::StartThreads(size_t workers) {
  if (threads_running_) {
    return Status::FailedPrecondition("worker pool is already running");
  }
  if (processes_running_) {
    return Status::FailedPrecondition(
        "StartThreads: worker processes are running; the two pump modes "
        "are exclusive");
  }
  GS_RETURN_IF_ERROR(CheckAcceptingInput("StartThreads"));
  if (workers == 0) {
    return Status::InvalidArgument("StartThreads needs at least one worker");
  }
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);

  std::vector<rts::QueryNode*> hfta_nodes;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (node_stages_[i] == NodeStage::kHfta) {
      hfta_nodes.push_back(nodes_[i].get());
    }
  }
  stop_workers_.store(false, std::memory_order_relaxed);
  threads_running_ = true;
  pump_mode_ = "threads";
  if (hfta_nodes.empty()) return Status::Ok();  // everything is LFTA-stage

  const size_t pool = std::min(workers, hfta_nodes.size());
  for (size_t w = 0; w < pool; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->waker = std::make_shared<rts::ConsumerWaker>();
    // Slot w's park histogram persists across start/stop cycles (the
    // registry reader must outlive this pool) and is registered once.
    if (w >= worker_park_ns_.size()) {
      worker_park_ns_.push_back(std::make_unique<telemetry::Histogram>());
      telemetry_.RegisterHistogram("worker" + std::to_string(w),
                                   metric::kParkNs,
                                   worker_park_ns_.back().get());
    }
    worker->park_ns = worker_park_ns_[w].get();
    workers_.push_back(std::move(worker));
  }
  for (size_t i = 0; i < hfta_nodes.size(); ++i) {
    workers_[i % pool]->nodes.push_back(hfta_nodes[i]);
  }
  // Wire each worker-owned node's input channels to that worker's waker so
  // pushes (tuples and punctuations) un-park it. Done before the threads
  // start, so the writes are published by thread creation.
  for (const auto& worker : workers_) {
    for (rts::QueryNode* node : worker->nodes) {
      for (const rts::Subscription& channel : node->inputs()) {
        channel->SetWaker(worker->waker);
      }
    }
  }
  for (const auto& worker : workers_) {
    worker->thread = std::thread(&Engine::WorkerLoop, this, worker.get());
  }
  return Status::Ok();
}

void Engine::StopThreads() {
  if (!threads_running_) return;
  stop_workers_.store(true, std::memory_order_release);
  for (const auto& worker : workers_) worker->waker->Wake();
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  threads_running_ = false;
}

void Engine::WorkerLoop(Worker* worker) {
  // Spin briefly on idle before parking; a push into any owned channel
  // wakes the park, and the timeout bounds any lost-wakeup window.
  constexpr int kSpinRounds = 64;
  constexpr std::chrono::microseconds kParkTimeout{200};
  int idle_rounds = 0;
  while (!stop_workers_.load(std::memory_order_acquire)) {
    size_t processed = 0;
    for (rts::QueryNode* node : worker->nodes) {
      processed += node->PollCounted(options_.worker_poll_budget);
    }
    if (processed > 0) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    const int64_t park_start = telemetry::MonotonicNowNs();
    worker->waker->Park(kParkTimeout);
    worker->park_ns->Record(
        static_cast<uint64_t>(telemetry::MonotonicNowNs() - park_start));
  }
}

Status Engine::StartProcesses(size_t workers) {
  if (processes_running_) {
    return Status::FailedPrecondition("worker processes are already running");
  }
  if (threads_running_) {
    return Status::FailedPrecondition(
        "StartProcesses: the threaded worker pool is running; call "
        "StopThreads first");
  }
  GS_RETURN_IF_ERROR(CheckAcceptingInput("StartProcesses"));
  if (!options_.process.enabled) {
    return Status::FailedPrecondition(
        "StartProcesses needs EngineOptions::process.enabled at "
        "construction — inter-node rings must be shm-backed before queries "
        "are added");
  }
  if (workers == 0) {
    return Status::InvalidArgument(
        "StartProcesses needs at least one worker");
  }
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  std::vector<size_t> hfta;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (node_stages_[i] == NodeStage::kHfta) hfta.push_back(i);
  }
  processes_running_ = true;
  pump_mode_ = "processes";
  node_adopted_.assign(nodes_.size(), 0);
  process_groups_.clear();
  worker_adopted_.clear();
  worker_output_streams_.clear();
  adopted_resync_.store(0, std::memory_order_relaxed);
  parent_streams_ = registry_.StreamNames();
  if (hfta.empty()) return Status::Ok();  // everything is LFTA-stage

  const size_t pool = std::min(workers, hfta.size());
  process_groups_.assign(pool, {});
  for (size_t i = 0; i < hfta.size(); ++i) {
    process_groups_[i % pool].push_back(hfta[i]);
  }
  worker_adopted_.assign(pool, 0);
  worker_output_streams_.assign(pool, {});
  for (size_t w = 0; w < pool; ++w) {
    for (size_t idx : process_groups_[w]) {
      worker_output_streams_[w].push_back(nodes_[idx]->name());
    }
  }
  // The parent retries parked punctuations only on streams it produces
  // into; strip worker-owned outputs from the starting set.
  {
    std::vector<std::string> parent;
    for (const std::string& name : parent_streams_) {
      bool worker_owned = false;
      for (const auto& outputs : worker_output_streams_) {
        for (const std::string& output : outputs) {
          if (output == name) worker_owned = true;
        }
      }
      if (!worker_owned) parent.push_back(name);
    }
    parent_streams_ = std::move(parent);
  }
  // Tracer spans recorded in a child would die with its heap (and the
  // tracer's mutex must not be shared across fork); HFTA nodes run
  // untraced in process mode.
  if (tracer_ != nullptr) {
    for (size_t idx : hfta) nodes_[idx]->SetTracer(nullptr, 0);
  }
  // Shm metrics arena: bind every worker-owned node's counters and
  // histograms into shared fixed slots *before* the fork, so the children
  // inherit cells the parent's registry can read live. Each worker gets a
  // contiguous slot range; its restarted incarnations reset that range
  // under a new epoch and the parent's fold keeps aggregates monotone.
  worker_arena_ranges_.assign(pool, {});
  if (options_.process.metrics_arena_slots > 0) {
    if (metrics_arena_ == nullptr) {
      metrics_shm_ = rts::ShmSegment::Create(telemetry::MetricsArena::
          BytesForSlots(options_.process.metrics_arena_slots));
      metrics_arena_ = std::make_unique<telemetry::MetricsArena>(
          metrics_shm_->data(), metrics_shm_->size());
      telemetry_.Register("engine", metric::kMetricsArenaExhausted,
                          metrics_arena_->exhausted_counter());
    }
    for (size_t w = 0; w < pool; ++w) {
      const size_t begin = metrics_arena_->allocated();
      const std::string proc = "w" + std::to_string(w);
      for (size_t idx : process_groups_[w]) {
        telemetry_.BindEntityToArena(nodes_[idx]->name(),
                                     metrics_arena_.get(), proc);
      }
      worker_arena_ranges_[w] = {begin, metrics_arena_->allocated() - begin};
    }
  }
  // Torn-slot fault: arm the producer side of every subscriber ring before
  // forking, so whichever process publishes into the stream inherits the
  // armed flag.
  if (options_.fault.kind == FaultConfig::Kind::kTorn) {
    for (const rts::Subscription& channel :
         registry_.Subscribers(options_.fault.stream)) {
      channel->ArmTornFault(options_.fault.nth);
    }
  }
  supervisor_ = std::make_unique<Supervisor>(
      options_.process.supervisor, pool,
      [this](size_t w, uint32_t generation) {
        WorkerProcessLoop(w, generation);
      });
  if (!process_telemetry_registered_) {
    process_telemetry_registered_ = true;
    telemetry_.RegisterReader("engine", metric::kWorkerRestarts, [this] {
      return supervisor_ != nullptr ? supervisor_->restarts() : 0;
    });
    telemetry_.RegisterReader("engine", metric::kHeartbeatMisses, [this] {
      return supervisor_ != nullptr ? supervisor_->heartbeat_misses() : 0;
    });
    telemetry_.RegisterReader("engine", metric::kWorkersDegraded, [this] {
      return supervisor_ != nullptr ? supervisor_->degraded_count() : 0;
    });
    // Every restart and every degraded-worker adoption opens exactly one
    // punctuation-bounded recovery gap.
    telemetry_.RegisterReader("engine", metric::kResyncGaps, [this] {
      return (supervisor_ != nullptr ? supervisor_->restarts() : 0) +
             adopted_resync_.load(std::memory_order_relaxed);
    });
  }
  return supervisor_->Start();
}

void Engine::StopProcesses() {
  if (!processes_running_) return;
  if (supervisor_ != nullptr) supervisor_->StopAll();
  processes_running_ = false;
  // The children's operator state died with them; adopt every group with a
  // resync so in-process pumping resumes at a punctuation boundary.
  for (size_t w = 0; w < process_groups_.size(); ++w) {
    AdoptWorkerNodes(w, /*resync=*/true);
  }
}

void Engine::AdoptWorkerNodes(size_t worker, bool resync) {
  if (worker_adopted_[worker]) return;
  worker_adopted_[worker] = 1;
  for (size_t idx : process_groups_[worker]) {
    node_adopted_[idx] = 1;
    // The parent is the node's polling thread now; its metrics rows move
    // under the parent's proc tag. The counters stay arena-bound (single
    // writer again, just a different process), so the fold path still
    // serves the reads.
    telemetry_.SetEntityProc(nodes_[idx]->name(), telemetry::kProcRts);
    if (resync) {
      for (const rts::Subscription& input : nodes_[idx]->inputs()) {
        input->BeginResync();
      }
    }
    // The parent produces into the adopted node's output rings now.
    parent_streams_.push_back(nodes_[idx]->name());
  }
  if (resync) adopted_resync_.fetch_add(1, std::memory_order_relaxed);
}

void Engine::AdoptDegradedWorkers() {
  if (supervisor_ == nullptr) return;
  for (size_t w = 0; w < process_groups_.size(); ++w) {
    if (worker_adopted_[w]) continue;
    if (supervisor_->state(w) == Supervisor::WorkerState::kDegraded) {
      AdoptWorkerNodes(w, /*resync=*/true);
    }
  }
}

size_t Engine::PumpProcessRound(size_t budget_per_node) {
  AdoptDegradedWorkers();
  size_t processed = PumpStage(NodeStage::kLfta, budget_per_node);
  for (size_t i = 0; i < node_adopted_.size(); ++i) {
    if (node_adopted_[i]) processed += nodes_[i]->PollCounted(budget_per_node);
  }
  return processed;
}

void Engine::DrainProcessesUntilIdle() {
  for (;;) {
    // Pump() covers source batches, the LFTA stage, and adopted nodes.
    size_t progress = Pump(options_.worker_poll_budget);
    for (const std::string& stream : parent_streams_) {
      progress += registry_.FlushParkedPunctuations(stream);
    }
    if (supervisor_ != nullptr) {
      for (size_t w = 0; w < process_groups_.size(); ++w) {
        if (worker_adopted_[w]) continue;
        uint64_t acked = 0;
        if (supervisor_->SendCommand(w, WorkerCommand::kDrain, 0, &acked)) {
          progress += static_cast<size_t>(acked);
        } else {
          // Died or hung while draining: fail over and run one more round
          // so the adopted nodes consume what their process left behind.
          AdoptWorkerNodes(w, /*resync=*/true);
          progress += 1;
        }
      }
    }
    if (progress == 0) return;
  }
}

void Engine::FlushAllProcesses() {
  // Seal first: from here a dying worker degrades instead of restarting,
  // so the flush protocol below never waits on a respawn.
  if (supervisor_ != nullptr) supervisor_->BeginSeal();
  AdoptDegradedWorkers();
  PumpUntilIdle();
  if (options_.stats_period > 0) {
    stats_source_->EmitSnapshot(last_input_time_);
    last_stats_emit_ = last_input_time_;
    PumpUntilIdle();
  }
  // Flush node-by-node in global upstream-first order (nodes_ order), so
  // flushed state propagates down the chain exactly as in the
  // single-process seal. Worker-owned nodes flush by command inside their
  // owning process; a worker that died or hangs mid-seal fails over — the
  // parent adopts its pristine node copies, resynchronizes their inputs,
  // and flushes locally.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    size_t owner = 0;
    size_t local = 0;
    bool parent_owned = true;
    if (node_stages_[i] == NodeStage::kHfta && !node_adopted_[i]) {
      for (size_t w = 0; w < process_groups_.size() && parent_owned; ++w) {
        for (size_t l = 0; l < process_groups_[w].size(); ++l) {
          if (process_groups_[w][l] == i) {
            owner = w;
            local = l;
            parent_owned = false;
            break;
          }
        }
      }
    }
    if (parent_owned) {
      nodes_[i]->Flush();
    } else if (!supervisor_->SendCommand(owner, WorkerCommand::kFlushNode,
                                         local, nullptr)) {
      AdoptWorkerNodes(owner, /*resync=*/true);
      nodes_[i]->Flush();
    }
    DrainProcessesUntilIdle();
  }
  if (supervisor_ != nullptr) supervisor_->StopAll();
  processes_running_ = false;
  // Anything still in the rings (a dead worker's unconsumed input,
  // stragglers) drains in-process now. Cleanly sealed workers left their
  // rings empty, so adopting without a resync changes nothing for them.
  for (size_t w = 0; w < process_groups_.size(); ++w) {
    AdoptWorkerNodes(w, /*resync=*/false);
  }
  PumpUntilIdle();
  while (registry_.FlushParkedPunctuations() > 0) PumpUntilIdle();
}

void Engine::WorkerProcessLoop(size_t worker, uint32_t generation) {
  WorkerControl* ctrl = supervisor_->control(worker);
  const std::vector<size_t>& group = process_groups_[worker];
  // A restarted incarnation forked from the parent's pristine operator
  // state: the dead incarnation's partial groups are gone, so discard
  // mid-window input until the next punctuation boundary re-anchors the
  // stream. The ring's read position itself lives in shm and carries over.
  if (generation > 1) {
    // Re-zero this worker's metric slots under the new generation's epoch:
    // the fresh incarnation's counters restart from the fork-time heap
    // values otherwise, and the parent's fold needs the epoch bump to bank
    // the dead incarnation's progress instead of seeing a regression.
    if (metrics_arena_ != nullptr && worker_arena_ranges_[worker].count > 0) {
      metrics_arena_->ResetRange(worker_arena_ranges_[worker].begin,
                                 worker_arena_ranges_[worker].count,
                                 generation);
    }
    for (size_t idx : group) {
      for (const rts::Subscription& input : nodes_[idx]->inputs()) {
        input->BeginResync();
      }
    }
  }
  FaultInjector injector(options_.fault, worker, &ctrl->fault_fired);
  uint64_t processed_total =
      ctrl->msgs_processed.load(std::memory_order_relaxed);
  int idle_rounds = 0;
  for (;;) {
    if (injector.MaybeFire(processed_total)) {
      // Stalled by fault injection: alive but silent — no heartbeat, no
      // work, exactly what a hung worker looks like from outside.
      usleep(1000);
      continue;
    }
    ctrl->heartbeat.store(
        ctrl->heartbeat.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    uint64_t arg = 0;
    uint64_t seq = 0;
    switch (Supervisor::PendingCommand(ctrl, &arg, &seq)) {
      case WorkerCommand::kFlushNode:
        if (arg < group.size()) nodes_[group[arg]]->Flush();
        Supervisor::Ack(ctrl, seq,
                        DrainWorkerNodes(worker, ctrl, &processed_total));
        continue;
      case WorkerCommand::kDrain:
        Supervisor::Ack(ctrl, seq,
                        DrainWorkerNodes(worker, ctrl, &processed_total));
        continue;
      case WorkerCommand::kExit:
        Supervisor::Ack(ctrl, seq, 0);
        _exit(0);
      case WorkerCommand::kNone:
        break;
    }
    size_t processed = 0;
    for (size_t idx : group) {
      processed += nodes_[idx]->PollCounted(options_.worker_poll_budget);
    }
    if (processed > 0) {
      processed_total += processed;
      ctrl->msgs_processed.store(processed_total, std::memory_order_relaxed);
      idle_rounds = 0;
      continue;
    }
    // Idle: retry punctuations parked on rings this worker produces into
    // (parked state is producer-side and lives in this address space).
    for (size_t idx : group) {
      registry_.FlushParkedPunctuations(nodes_[idx]->name());
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      idle_rounds = 64;  // keep heartbeating at a bounded idle cost
      usleep(200);
    }
  }
}

size_t Engine::DrainWorkerNodes(size_t worker, WorkerControl* control,
                                uint64_t* processed_total) {
  size_t total = 0;
  for (;;) {
    size_t round = 0;
    for (size_t idx : process_groups_[worker]) {
      round += nodes_[idx]->PollCounted(options_.worker_poll_budget);
    }
    for (size_t idx : process_groups_[worker]) {
      round += registry_.FlushParkedPunctuations(nodes_[idx]->name());
    }
    // A long drain must not read as a hang.
    control->heartbeat.store(
        control->heartbeat.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (round == 0) break;
    total += round;
  }
  *processed_total += total;
  control->msgs_processed.store(*processed_total, std::memory_order_relaxed);
  return total;
}

std::vector<Engine::NodeStats> Engine::GetNodeStats() const {
  std::vector<NodeStats> stats;
  stats.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    stats.push_back({node->name(), node->tuples_in(), node->tuples_out(),
                     node->eval_errors()});
  }
  return stats;
}

}  // namespace gigascope::core
