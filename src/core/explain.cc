#include "core/explain.h"

#include <sstream>

#include "obs/json.h"
#include "obs/profile.h"

namespace dynopt {

std::string ExplainExecution(const DynamicRetrieval& engine,
                             const CostWeights& weights) {
  std::ostringstream os;
  os << "=== dynamic retrieval report ===\n";
  os << "tactic: " << TacticName(engine.tactic()) << "\n";

  os << "access paths:\n";
  for (const auto& c : engine.analysis().indexes) {
    os << "  " << c.index->name() << ": ";
    if (c.self_sufficient) os << "self-sufficient ";
    if (c.order_needed) os << "order-needed ";
    os << (c.has_restriction ? "restricted" : "unrestricted");
    if (c.has_restriction) {
      os << " (" << c.ranges.size()
         << (c.ranges.size() == 1 ? " range" : " ranges") << ")";
    }
    if (c.estimated) {
      os << ", estimate " << c.estimate.estimated_rids << " rids"
         << (c.estimate.exact ? " (exact)" : "") << " at split level "
         << c.estimate.split_level << " in " << c.estimate.descent_pages
         << " page reads";
    }
    os << "\n";
  }
  if (engine.analysis().empty_shortcut) {
    os << "  -> empty-range shortcut: end of data without retrieval\n";
  }
  if (engine.analysis().tiny_shortcut) {
    os << "  -> tiny-range shortcut: straight to the final fetch stage\n";
  }

  if (engine.jscan() != nullptr) {
    const Jscan& jscan = *engine.jscan();
    os << "joint scan:\n";
    os << "  guaranteed best cost: " << jscan.guaranteed_best_cost()
       << " (tscan estimate " << jscan.tscan_cost_estimate() << ")\n";
    for (const TraceEvent& e : engine.events().events()) {
      if (e.kind != TraceEventKind::kJscanIndexOutcome) continue;
      os << "  " << e.subject << ": " << e.detail << ", "
         << static_cast<uint64_t>(e.a) << " entries scanned, "
         << static_cast<uint64_t>(e.b) << " rids kept\n";
    }
    if (jscan.reordered()) {
      os << "  adjacent race flipped the scan order\n";
    }
  }

  os << "decision trace:\n";
  for (const TraceEvent& e : engine.events().events()) {
    os << "  " << FormatTraceEvent(e) << "\n";
  }

  CostMeter cost = engine.CostSinceOpen();
  os << "cost: " << cost.Cost(weights) << " units " << cost.ToString()
     << "\n";
  return os.str();
}

std::string ExplainExecutionJson(const DynamicRetrieval& engine,
                                 const CostWeights& weights) {
  JsonWriter w;
  w.BeginObject();
  w.KV("tactic", TacticName(engine.tactic()));
  w.KV("delivers_order", engine.delivers_order());
  w.KV("rows_delivered", engine.rows_delivered());
  w.KV("predicted_rows", engine.predicted_rows());
  w.KV("predicted_cost", engine.predicted_cost());

  w.Key("access_paths").BeginArray();
  for (const auto& c : engine.analysis().indexes) {
    w.BeginObject();
    w.KV("index", c.index->name());
    w.KV("self_sufficient", c.self_sufficient);
    w.KV("order_needed", c.order_needed);
    w.KV("restricted", c.has_restriction);
    w.KV("ranges", static_cast<uint64_t>(c.ranges.size()));
    if (c.estimated) {
      w.KV("estimated_rids", c.estimate.estimated_rids);
      w.KV("estimate_exact", c.estimate.exact);
      w.KV("split_level", static_cast<uint64_t>(c.estimate.split_level));
      w.KV("descent_pages", c.estimate.descent_pages);
    }
    w.EndObject();
  }
  w.EndArray();
  w.KV("empty_shortcut", engine.analysis().empty_shortcut);
  w.KV("tiny_shortcut", engine.analysis().tiny_shortcut);

  if (engine.jscan() != nullptr) {
    const Jscan& jscan = *engine.jscan();
    w.Key("joint_scan").BeginObject();
    w.KV("guaranteed_best_cost", jscan.guaranteed_best_cost());
    w.KV("tscan_cost_estimate", jscan.tscan_cost_estimate());
    w.KV("reordered", jscan.reordered());
    w.Key("outcomes").BeginArray();
    for (const TraceEvent& e : engine.events().events()) {
      if (e.kind != TraceEventKind::kJscanIndexOutcome) continue;
      w.BeginObject();
      w.KV("index", e.subject);
      w.KV("outcome", e.detail);
      w.KV("entries_scanned", static_cast<uint64_t>(e.a));
      w.KV("rids_kept", static_cast<uint64_t>(e.b));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  w.Key("events");
  WriteTraceEvents(&w, engine.events());

  CostMeter cost = engine.CostSinceOpen();
  w.Key("cost").BeginObject();
  w.KV("total", cost.Cost(weights));
  w.KV("logical_reads", cost.logical_reads);
  w.KV("physical_reads", cost.physical_reads);
  w.KV("physical_writes", cost.physical_writes);
  w.KV("key_compares", cost.key_compares);
  w.KV("record_evals", cost.record_evals);
  w.KV("rid_ops", cost.rid_ops);
  w.EndObject();

  w.EndObject();
  return w.str();
}

std::string ExplainAnalyze(DynamicRetrieval& engine,
                           const CostWeights& weights) {
  engine.FinalizeProfile();
  std::ostringstream os;
  os << ExplainExecution(engine, weights);
  if (engine.profile().active()) {
    os << "profile:\n" << engine.profile().RenderTree();
  }
  if (const CompetitionSample* s = engine.competition_sample();
      s != nullptr) {
    os << "competition: winner=" << s->winner()
       << " verdict=" << VerdictName(s->verdict)
       << " fg_cost=" << s->foreground_cost
       << " bg_cost=" << s->background_cost
       << " guaranteed_best=" << s->guaranteed_best
       << " loser_cost=" << s->loser_cost()
       << " disqualifications="
       << engine.events().EmittedCount(TraceEventKind::kStrategyDisqualified)
       << "\n";
  }
  if (!engine.query_class().empty()) {
    os << "query class: " << engine.query_class() << "\n";
  }
  return os.str();
}

std::string ExplainAnalyzeJson(DynamicRetrieval& engine,
                               const CostWeights& weights) {
  engine.FinalizeProfile();
  JsonWriter w;
  w.BeginObject();
  w.Key("execution").Raw(ExplainExecutionJson(engine, weights));
  if (engine.profile().active()) {
    w.Key("profile");
    WriteProfile(&w, engine.profile());
  }
  if (const CompetitionSample* s = engine.competition_sample();
      s != nullptr) {
    w.Key("competition").BeginObject();
    w.KV("verdict", VerdictName(s->verdict));
    w.KV("winner", s->winner());
    w.KV("foreground_cost", s->foreground_cost);
    w.KV("background_cost", s->background_cost);
    w.KV("guaranteed_best", s->guaranteed_best);
    w.KV("loser_cost", s->loser_cost());
    w.KV("disqualifications", engine.events().EmittedCount(
                                  TraceEventKind::kStrategyDisqualified));
    w.EndObject();
  }
  w.KV("query_class", engine.query_class());
  w.EndObject();
  return w.str();
}

}  // namespace dynopt
