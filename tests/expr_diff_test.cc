// Differential fuzzing of the two expression-evaluation paths against the
// free expr::Eval oracle, over a seeded corpus and adversarial values
// (INT64_MIN, wraparound products, zero divisors, NaN, ±inf, overflowing
// floats):
//  (a) a persistent expr::Evaluator, reused across every row of every
//      expression, must match expr::Eval byte for byte — same status, same
//      error message, same has_value, same value bits. Reusing its stack
//      is the only state the two do not share.
//  (b) random conjunctions of `field <cmp> literal` over every fixed-width
//      type run through a SelectProjectNode on its columnar raw-byte path
//      must pass exactly the rows expr::EvalPredicate accepts, and never a
//      payload too short to decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "expr/fold.h"
#include "expr/typecheck.h"
#include "expr/vm.h"
#include "gsql/parser.h"
#include "ops/select_project.h"
#include "udf/registry.h"

namespace gigascope {
namespace {

using expr::CompiledExpr;
using expr::EvalContext;
using expr::EvalOutput;
using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema TestSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"i", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"b", DataType::kBool, OrderSpec::None()});
  return StreamSchema("T", StreamKind::kStream, fields);
}

Result<CompiledExpr> TryCompileExpr(const std::string& expression) {
  gsql::Catalog catalog;
  catalog.PutStreamSchema(TestSchema());
  auto stmt = gsql::ParseStatement("SELECT " + expression + " FROM T");
  GS_RETURN_IF_ERROR(stmt.status());
  auto* select = std::get_if<gsql::SelectStmt>(&stmt.value());
  auto resolved = gsql::AnalyzeSelect(*select, catalog);
  GS_RETURN_IF_ERROR(resolved.status());
  expr::TypeCheckContext ctx;
  ctx.resolver = udf::FunctionRegistry::Default();
  ctx.inputs = {TestSchema()};
  ctx.bindings = &resolved->bindings;
  GS_ASSIGN_OR_RETURN(expr::IrPtr ir,
                      expr::TypeCheck(resolved->stmt.items[0].expr, ctx));
  return expr::Compile(expr::FoldConstants(ir), {});
}

// -- Expression grammar ------------------------------------------------------

/// Random arithmetic expression string. Leaves are the numeric fields and
/// small literals; interior nodes are the five integer/float operators, so
/// the corpus hits promotion casts (t + i, i + f), wraparound, and the
/// division/modulo error paths.
std::string GenNumeric(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBelow(3) == 0) {
    switch (rng->NextBelow(6)) {
      case 0: return "t";
      case 1: return "i";
      case 2: return "f";
      case 3: return std::to_string(rng->NextBelow(100));
      case 4: return "(0 - " + std::to_string(rng->NextBelow(100)) + ")";
      default: return std::to_string(rng->NextBelow(8)) + ".5";
    }
  }
  static const char* kOps[] = {"+", "-", "*", "/", "%"};
  const char* op = kOps[rng->NextBelow(5)];
  return "(" + GenNumeric(rng, depth - 1) + " " + op + " " +
         GenNumeric(rng, depth - 1) + ")";
}

std::string GenBool(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBelow(3) == 0) {
    static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
    const char* cmp = kCmps[rng->NextBelow(6)];
    return "(" + GenNumeric(rng, 1) + " " + cmp + " " + GenNumeric(rng, 1) +
           ")";
  }
  const char* op = rng->NextBool(0.5) ? "AND" : "OR";
  return "(" + GenBool(rng, depth - 1) + " " + op + " " +
         GenBool(rng, depth - 1) + ")";
}

std::string GenExpr(Rng* rng) {
  return rng->NextBool(0.3) ? GenBool(rng, 2) : GenNumeric(rng, 3);
}

// -- Row generation ----------------------------------------------------------

Value GenUint(Rng* rng) {
  switch (rng->NextBelow(5)) {
    case 0: return Value::Uint(0);
    case 1: return Value::Uint(1);
    case 2: return Value::Uint(UINT64_MAX);
    case 3: return Value::Uint(rng->NextBelow(1000));
    default: return Value::Uint(rng->Next());
  }
}

Value GenInt(Rng* rng) {
  switch (rng->NextBelow(6)) {
    case 0: return Value::Int(0);
    case 1: return Value::Int(-1);
    case 2: return Value::Int(INT64_MIN);
    case 3: return Value::Int(INT64_MAX);
    case 4: return Value::Int(int64_t(rng->NextBelow(200)) - 100);
    default: return Value::Int(static_cast<int64_t>(rng->Next()));
  }
}

Value GenFloat(Rng* rng) {
  switch (rng->NextBelow(6)) {
    case 0: return Value::Float(0.0);
    case 1: return Value::Float(-1.5);
    case 2: return Value::Float(1e300);
    case 3: return Value::Float(-1e300);
    case 4: return Value::Float(std::nan(""));
    default: return Value::Float(rng->NextDouble() * 1000.0 - 500.0);
  }
}

std::vector<Value> GenRow(Rng* rng) {
  return {GenUint(rng), GenInt(rng), GenFloat(rng),
          Value::Bool(rng->NextBool(0.5))};
}

/// Bit-exact value equality: floats compare by representation (so both-NaN
/// passes and -0.0 vs 0.0 fails), everything else through Value::Compare.
bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat) {
    double da = a.float_value(), db = b.float_value();
    return std::memcmp(&da, &db, sizeof(da)) == 0;
  }
  return a.Compare(b) == 0;
}

TEST(ExprDiffTest, PersistentEvaluatorMatchesFreeEvalExactly) {
  Rng rng(0x9e3779b97f4a7c15ull);

  constexpr int kExpressions = 160;
  constexpr int kRowsPerExpr = 24;
  size_t error_cases = 0;

  std::vector<std::string> texts;
  std::vector<CompiledExpr> exprs;
  for (int n = 0; n < kExpressions; ++n) {
    std::string text = GenExpr(&rng);
    auto compiled = TryCompileExpr(text);
    if (!compiled.ok()) continue;  // e.g. float modulo: rejected at typecheck
    texts.push_back(text);
    exprs.push_back(std::move(compiled).value());
  }
  ASSERT_GE(exprs.size(), 40u) << "grammar generates too few valid exprs";

  // One evaluator for the whole corpus: its stack carries over between
  // expressions, rows, and evaluations that stopped on an error.
  expr::Evaluator evaluator;
  for (size_t k = 0; k < exprs.size(); ++k) {
    const CompiledExpr& expr = exprs[k];
    for (int r = 0; r < kRowsPerExpr; ++r) {
      std::vector<Value> row = GenRow(&rng);
      EvalContext ctx;
      ctx.row0 = &row;
      EvalOutput oracle_out, reused_out;
      Status oracle_status = expr::Eval(expr, ctx, &oracle_out);
      Status reused_status = evaluator.Eval(expr, ctx, &reused_out);
      std::string what = texts[k] + " on row {" + row[0].ToString() + ", " +
                         row[1].ToString() + ", " + row[2].ToString() + ", " +
                         row[3].ToString() + "}";
      ASSERT_EQ(oracle_status.ok(), reused_status.ok()) << what;
      if (!oracle_status.ok()) {
        ++error_cases;
        EXPECT_EQ(reused_status.message(), oracle_status.message()) << what;
        continue;
      }
      ASSERT_EQ(oracle_out.has_value, reused_out.has_value) << what;
      if (!oracle_out.has_value) continue;
      EXPECT_TRUE(BitEqual(oracle_out.value, reused_out.value))
          << what << ": oracle=" << oracle_out.value.ToString()
          << " reused=" << reused_out.value.ToString();
    }
  }
  // The corpus must hit the runtime-error paths.
  EXPECT_GE(error_cases, 1u);
}

// -- Raw-byte filter ---------------------------------------------------------

/// Field 0 is a row id (projected, never filtered on); fields 1..5 cover
/// every fixed-width type the raw path compares on packed bytes.
StreamSchema RawSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"id", DataType::kUint, OrderSpec::None()});
  fields.push_back({"u", DataType::kUint, OrderSpec::None()});
  fields.push_back({"i", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"ip", DataType::kIp, OrderSpec::None()});
  fields.push_back({"b", DataType::kBool, OrderSpec::None()});
  return StreamSchema("raw_in", StreamKind::kStream, fields);
}

StreamSchema RawOutputSchema() {
  return StreamSchema("raw_out", StreamKind::kStream,
                      {{"id", DataType::kUint, OrderSpec::None()}});
}

/// A value of `type` drawn from a small adversarial pool, so literals and
/// field values collide often enough to exercise the equality edges.
Value GenRawValue(Rng* rng, DataType type) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (type) {
    case DataType::kUint: {
      static const uint64_t kPool[] = {0, 1, 80, UINT64_MAX, UINT64_MAX - 1,
                                       uint64_t{1} << 63};
      if (rng->NextBelow(4) == 0) return Value::Uint(rng->Next());
      return Value::Uint(kPool[rng->NextBelow(6)]);
    }
    case DataType::kInt: {
      static const int64_t kPool[] = {0, -1, 1, INT64_MIN, INT64_MAX, -80};
      if (rng->NextBelow(4) == 0) {
        return Value::Int(static_cast<int64_t>(rng->Next()));
      }
      return Value::Int(kPool[rng->NextBelow(6)]);
    }
    case DataType::kFloat: {
      static const double kPool[] = {0.0,  -0.0,   std::nan(""), kInf,
                                     -kInf, 1e300, -1.5};
      if (rng->NextBelow(4) == 0) {
        return Value::Float(rng->NextDouble() * 200.0 - 100.0);
      }
      return Value::Float(kPool[rng->NextBelow(7)]);
    }
    case DataType::kIp: {
      static const uint32_t kPool[] = {0, 0xffffffffu, 0x0a000001u,
                                       0x80000000u};
      if (rng->NextBelow(4) == 0) {
        return Value::Ip(static_cast<uint32_t>(rng->Next()));
      }
      return Value::Ip(kPool[rng->NextBelow(4)]);
    }
    case DataType::kBool:
      return Value::Bool(rng->NextBool(0.5));
    case DataType::kString:
      break;
  }
  return Value::Default(type);
}

/// `t1 AND t2 AND ...` with every term `field <cmp> literal` of the
/// field's own type — the shape MatchFilterTerms accepts.
expr::IrPtr GenConjunction(Rng* rng, const StreamSchema& schema,
                           std::map<DataType, size_t>* type_hits) {
  static const gsql::BinaryOp kCmps[] = {
      gsql::BinaryOp::kEq, gsql::BinaryOp::kNeq, gsql::BinaryOp::kLt,
      gsql::BinaryOp::kLe, gsql::BinaryOp::kGt, gsql::BinaryOp::kGe};
  const size_t terms = 1 + rng->NextBelow(4);
  expr::IrPtr conjunction;
  for (size_t t = 0; t < terms; ++t) {
    const size_t field = 1 + rng->NextBelow(schema.num_fields() - 1);
    const FieldDef& def = schema.field(field);
    ++(*type_hits)[def.type];
    expr::IrPtr term = expr::MakeBinaryIr(
        kCmps[rng->NextBelow(6)], DataType::kBool,
        expr::MakeFieldRef(0, field, def.type, def.name),
        expr::MakeConst(GenRawValue(rng, def.type)));
    conjunction = conjunction == nullptr
                      ? term
                      : expr::MakeBinaryIr(gsql::BinaryOp::kAnd,
                                           DataType::kBool, conjunction, term);
  }
  return conjunction;
}

TEST(ExprDiffTest, RawByteFilterMatchesEvalPredicate) {
  const StreamSchema schema = RawSchema();
  const rts::TupleCodec codec(schema);
  const rts::TupleCodec out_codec(RawOutputSchema());
  Rng rng(0xc2b2ae3d27d4eb4full);

  constexpr int kPredicates = 200;
  constexpr int kRowsPerPredicate = 48;
  std::map<DataType, size_t> type_hits;
  size_t passed_total = 0;
  size_t truncated_total = 0;

  for (int p = 0; p < kPredicates; ++p) {
    rts::StreamRegistry registry;
    ASSERT_TRUE(registry.DeclareStream(schema).ok());
    ASSERT_TRUE(registry.DeclareStream(RawOutputSchema()).ok());
    auto input = registry.Subscribe("raw_in", 64);
    ASSERT_TRUE(input.ok());

    expr::IrPtr ir = GenConjunction(&rng, schema, &type_hits);
    auto predicate = expr::Compile(ir);
    ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();
    ops::SelectProjectNode::Spec spec;
    spec.name = "raw_out";
    spec.input_schema = schema;
    spec.output_schema = RawOutputSchema();
    spec.predicate = *predicate;
    spec.projections.push_back(
        *expr::Compile(expr::MakeFieldRef(0, 0, DataType::kUint, "id")));
    spec.punctuation_source = {-1};
    spec.output_batch = 4096;
    ops::SelectProjectNode node(std::move(spec), *input, &registry,
                                std::make_shared<std::vector<Value>>());
    ASSERT_TRUE(node.has_raw_filter()) << ir->ToString();
    auto output = registry.Subscribe("raw_out", 64);
    ASSERT_TRUE(output.ok());

    // Same bound the node guards the raw pass with: the end of the
    // furthest field any term reads.
    auto terms = expr::MatchFilterTerms(*predicate);
    ASSERT_TRUE(terms.has_value());
    size_t min_payload = 0;
    for (const expr::FilterTerm& term : *terms) {
      min_payload = std::max(
          min_payload,
          *codec.FixedFieldOffset(term.field) +
              *rts::TupleCodec::FixedTypeWidth(schema.field(term.field).type));
    }

    rts::StreamBatch batch;
    std::vector<uint64_t> expected;
    for (int r = 0; r < kRowsPerPredicate; ++r) {
      std::vector<Value> row = {Value::Uint(static_cast<uint64_t>(r))};
      for (size_t f = 1; f < schema.num_fields(); ++f) {
        row.push_back(GenRawValue(&rng, schema.field(f).type));
      }
      EvalContext ctx;
      ctx.row0 = &row;
      if (expr::EvalPredicate(*predicate, ctx)) expected.push_back(r);
      rts::StreamMessage message;
      codec.Encode(row, &message.payload);
      if (r % 8 == 7) {
        // Truncated payload: a field the filter reads is cut off (or,
        // past min_payload, only the decode fails). Either way the row
        // must never reach the output.
        message.payload.resize(rng.NextBelow(message.payload.size()));
        if (message.payload.size() < min_payload) ++truncated_total;
        if (!expected.empty() && expected.back() == static_cast<uint64_t>(r)) {
          expected.pop_back();
        }
      }
      batch.items.push_back(std::move(message));
    }
    ASSERT_EQ(registry.PublishBatch("raw_in", std::move(batch)), 1u);
    EXPECT_EQ(node.Poll(1u << 20), static_cast<size_t>(kRowsPerPredicate));

    std::vector<uint64_t> actual;
    rts::StreamMessage message;
    while ((*output)->TryPop(&message)) {
      auto row = out_codec.Decode(
          ByteSpan(message.payload.data(), message.payload.size()));
      ASSERT_TRUE(row.ok());
      actual.push_back((*row)[0].uint_value());
    }
    EXPECT_EQ(actual, expected) << ir->ToString();
    passed_total += expected.size();
  }

  // The corpus covers every fixed-width type, lets some rows through, and
  // feeds the guard payloads shorter than the raw pass may read.
  for (DataType type : {DataType::kUint, DataType::kInt, DataType::kFloat,
                        DataType::kIp, DataType::kBool}) {
    EXPECT_GE(type_hits[type], 40u)
        << gsql::DataTypeName(type);
  }
  EXPECT_GE(passed_total, 500u);
  EXPECT_GE(truncated_total, 100u);
}

}  // namespace
}  // namespace gigascope
