// Cross-run diff engine (obs/diff.h): per-kind significance semantics,
// the bench gate math and its within-candidate budgets, profile span
// attribution, accounting reconciliation classes, query-trace share
// shifts, timeline divergence scoring, the load/kind-mismatch error
// paths, and a seeded fuzz-style pass over mutated copies of the
// committed fixtures. Generated inputs are written to gtest's temp dir
// so the suite runs from any CWD.
#include "obs/diff.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"

namespace mntp::obs {
namespace {

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "obs_diff_" + name;
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

std::string bench_doc(double engine_median, double engine_mad,
                      bool with_tuner = true) {
  std::string doc =
      "{\"schema_version\":1,\"kind\":\"mntp_perf_suite\",\"reps\":3,"
      "\"workloads\":[{\"name\":\"engine_round\",\"median_us\":" +
      std::to_string(engine_median) +
      ",\"mad_us\":" + std::to_string(engine_mad) + "}";
  if (with_tuner) {
    doc += ",{\"name\":\"tuner_grid_slice\",\"median_us\":200.0,"
           "\"mad_us\":5.0}";
  }
  return doc + "]}";
}

std::string profile_doc(const std::string& run, double round_dur,
                        double round_self) {
  std::string doc =
      "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"" + run + "\"}}";
  for (int i = 0; i < 4; ++i) {
    doc += ",{\"ph\":\"X\",\"name\":\"mntp.engine.round\",\"ts\":" +
           std::to_string(i * 1000) + ",\"dur\":" + std::to_string(round_dur) +
           ",\"args\":{\"self_us\":" + std::to_string(round_self) + "}}";
    doc += ",{\"ph\":\"X\",\"name\":\"ntp.query_engine.exchange\",\"ts\":" +
           std::to_string(i * 1000 + 10) +
           ",\"dur\":20,\"args\":{\"self_us\":20}}";
  }
  doc += ",{\"ph\":\"X\",\"name\":\"sim.run\",\"ts\":0,\"dur\":5000,"
         "\"args\":{\"self_us\":100}}]}";
  return doc;
}

std::string report_doc(double minted, double drift, bool with_extra) {
  std::string doc =
      "{\"type\":\"meta\",\"schema_version\":1,\"run\":\"r\"}\n"
      "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":"
      "\"mntp.queries.minted\",\"labels\":{},\"value\":" +
      std::to_string(minted) + "}\n"
      "{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"sim.drift_ppm\","
      "\"labels\":{\"node\":\"a\"},\"value\":" + std::to_string(drift) + "}\n";
  if (with_extra) {
    doc += "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":"
           "\"net.packets\",\"labels\":{},\"value\":10}\n";
  }
  return doc;
}

std::string query_trace_doc(int accepted, int rejected) {
  std::string doc =
      "{\"type\":\"meta\",\"kind\":\"mntp_query_trace\",\"schema_version\":1,"
      "\"run\":\"q\"}\n";
  for (int i = 0; i < accepted; ++i) {
    doc += "{\"type\":\"query\",\"id\":" + std::to_string(i) +
           ",\"kind\":\"ntp\",\"stages\":[{\"stage\":\"verdict\","
           "\"reason\":\"accepted\"}]}\n";
  }
  for (int i = 0; i < rejected; ++i) {
    doc += "{\"type\":\"query\",\"id\":" + std::to_string(accepted + i) +
           ",\"kind\":\"ntp\",\"stages\":[{\"stage\":\"verdict\","
           "\"reason\":\"popcorn\"}]}\n";
  }
  return doc;
}

std::string timeline_doc(double offset) {
  std::string doc =
      "{\"type\":\"meta\",\"kind\":\"mntp_timeline\",\"schema_version\":1,"
      "\"run\":\"t\"}\n"
      "{\"type\":\"series\",\"name\":\"mntp.offset_us\",\"labels\":{},"
      "\"points\":[";
  for (int i = 0; i < 16; ++i) {
    const double mean = (i % 2 == 0 ? 1.0 : -1.0) + offset;
    if (i > 0) doc += ",";
    doc += "[" + std::to_string(i * 100) + "," + std::to_string(mean - 0.5) +
           "," + std::to_string(mean) + "," + std::to_string(mean + 0.5) +
           "," + std::to_string(mean) + ",4]";
  }
  return doc + "]}\n";
}

const DiffEntry* find_entry(const DiffResult& r, const std::string& name) {
  for (const DiffSection& s : r.sections) {
    for (const DiffEntry& e : s.entries) {
      if (e.name == name) return &e;
    }
  }
  return nullptr;
}

TEST(DiffBench, SelfDiffIsCleanAndExitsZero) {
  const std::string p = write_file("bench_a.json", bench_doc(1000.0, 10.0));
  auto r = diff_files(p, p, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().kind, DiffKind::kBench);
  EXPECT_EQ(r.value().significant, 0u);
  EXPECT_EQ(r.value().regressions, 0u);
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffBench, GateLimitIsInclusive) {
  // limit = 1000 * (1 + 0.5) + max(200, 4*10) = 1700: exactly at the
  // limit passes (the gate uses <=), one microsecond over fails.
  const std::string base = write_file("bench_b.json", bench_doc(1000.0, 10.0));
  const std::string at = write_file("bench_c.json", bench_doc(1700.0, 10.0));
  const std::string over = write_file("bench_d.json", bench_doc(1701.0, 10.0));

  auto r_at = diff_files(base, at, {});
  ASSERT_TRUE(r_at.ok());
  EXPECT_EQ(r_at.value().regressions, 0u);
  EXPECT_EQ(r_at.value().exit_code(), 0);

  auto r_over = diff_files(base, over, {});
  ASSERT_TRUE(r_over.ok());
  EXPECT_EQ(r_over.value().regressions, 1u);
  EXPECT_EQ(r_over.value().exit_code(), 1);
  const DiffEntry* e = find_entry(r_over.value(), "engine_round");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->regression);
  EXPECT_EQ(e->cls, "changed");
  // Regressions rank first.
  EXPECT_EQ(r_over.value().sections[0].entries[0].name, "engine_round");
}

TEST(DiffBench, ImprovementIsSignificantButNotRegression) {
  const std::string base = write_file("bench_e.json", bench_doc(2000.0, 10.0));
  const std::string fast = write_file("bench_f.json", bench_doc(500.0, 10.0));
  auto r = diff_files(base, fast, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* e = find_entry(r.value(), "engine_round");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->significant);
  EXPECT_FALSE(e->regression);
  EXPECT_EQ(e->note, "improvement");
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffBench, MissingWorkloadFailsNewWorkloadNotes) {
  const std::string both = write_file("bench_g.json", bench_doc(1000.0, 10.0));
  const std::string solo =
      write_file("bench_h.json", bench_doc(1000.0, 10.0, false));

  auto removed = diff_files(both, solo, {});
  ASSERT_TRUE(removed.ok());
  const DiffEntry* gone = find_entry(removed.value(), "tuner_grid_slice");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->cls, "removed");
  EXPECT_TRUE(gone->regression);
  EXPECT_EQ(removed.value().exit_code(), 1);

  auto added = diff_files(solo, both, {});
  ASSERT_TRUE(added.ok());
  const DiffEntry* fresh = find_entry(added.value(), "tuner_grid_slice");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->cls, "added");
  EXPECT_FALSE(fresh->regression);
  EXPECT_EQ(added.value().exit_code(), 0);
}

TEST(DiffBench, BudgetLimitMissingWorkloadsAndSpecs) {
  // engine_round may cost at most 50% over tuner_grid_slice (200 us),
  // both read from the candidate: 300 is exactly the limit, 301 is over.
  // The per-workload gate alone passes both pairs (200 us floor).
  const std::string at = write_file("budget_a.json", bench_doc(300.0, 1.0));
  const std::string over = write_file("budget_b.json", bench_doc(301.0, 1.0));
  const auto with_budget = [](const char* spec) {
    DiffOptions opt;
    opt.budgets.push_back(parse_budget(spec).value());
    return opt;
  };
  const DiffOptions opt = with_budget("engine_round:tuner_grid_slice:50");
  auto r_at = diff_files(at, at, opt);
  ASSERT_TRUE(r_at.ok()) << r_at.error().message;
  ASSERT_EQ(r_at.value().sections.size(), 2u);
  EXPECT_EQ(r_at.value().sections[1].title, "budgets");
  const DiffEntry* e = find_entry(r_at.value(), opt.budgets[0].spec);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->before, 200.0);
  EXPECT_DOUBLE_EQ(e->after, 300.0);
  EXPECT_FALSE(e->regression);
  EXPECT_EQ(r_at.value().exit_code(), 0);

  auto r_over = diff_files(at, over, opt);
  ASSERT_TRUE(r_over.ok());
  EXPECT_TRUE(r_over.value().sections[1].entries[0].regression);
  EXPECT_EQ(r_over.value().regressions, 1u);
  EXPECT_EQ(r_over.value().exit_code(), 1);
  EXPECT_NE(render_diff_json(r_over.value(), opt).find("\"budgets\""),
            std::string::npos);

  // A missing A or B fails the budget.
  for (const char* spec :
       {"nope:tuner_grid_slice:50", "engine_round:nope:50"}) {
    auto r = diff_files(at, at, with_budget(spec));
    ASSERT_TRUE(r.ok());
    const DiffEntry* m = find_entry(r.value(), spec);
    ASSERT_NE(m, nullptr) << spec;
    EXPECT_NE(m->note.find("'nope' missing"), std::string::npos) << m->note;
    EXPECT_EQ(r.value().exit_code(), 1) << spec;
  }

  for (const char* bad : {"a:b", "a:b:x", "a:b:", ":b:3", "a::3", "a:b:3:4",
                          "a:b:3x", "a:b:nan", ""}) {
    EXPECT_FALSE(parse_budget(bad).ok()) << bad;
  }
  // Budgets only mean something for bench pairs.
  const std::string prof = write_file("budget_c.json", profile_doc("p", 1, 1));
  EXPECT_FALSE(diff_files(prof, prof, opt).ok());
}

TEST(DiffBench, EnvironmentMismatchWarns) {
  const std::string plain = write_file("env_a.json", bench_doc(1000.0, 10.0));
  const std::string debug = write_file(
      "env_b.json", "{\"environment\":{\"build_type\":\"Debug\"}," +
                        bench_doc(1000.0, 10.0).substr(1));
  EXPECT_TRUE(diff_files(plain, plain, {}).value().warnings.empty());
  auto r = diff_files(plain, debug, {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().warnings.size(), 1u);
  EXPECT_NE(r.value().warnings[0].find("build_type"), std::string::npos);
  EXPECT_EQ(r.value().exit_code(), 0);  // a warning, not a failure
}

TEST(DiffProfile, PerturbedSpanIsTopContributor) {
  const std::string base =
      write_file("prof_a.json", profile_doc("base", 100.0, 80.0));
  const std::string pert =
      write_file("prof_b.json", profile_doc("pert", 400.0, 380.0));
  auto r = diff_files(base, pert, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().kind, DiffKind::kProfile);
  EXPECT_EQ(r.value().a_run, "base");
  EXPECT_EQ(r.value().b_run, "pert");
  ASSERT_FALSE(r.value().sections.empty());
  const DiffEntry& top = r.value().sections[0].entries[0];
  EXPECT_EQ(top.name, "mntp.engine.round");
  EXPECT_TRUE(top.regression);
  // Only one span moved, so it owns the entire contribution share.
  EXPECT_DOUBLE_EQ(top.score, 1.0);
  EXPECT_DOUBLE_EQ(top.delta, 4 * (380.0 - 80.0));
  EXPECT_EQ(r.value().exit_code(), 1);

  auto self = diff_files(base, base, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().significant, 0u);
  EXPECT_EQ(self.value().exit_code(), 0);
}

TEST(DiffReport, AccountingCountersReconcileExactly) {
  const std::string a =
      write_file("rep_a.jsonl", report_doc(100, 10.0, true));
  // Accounting counter off by one, gauge within tolerance, one counter
  // removed: the shift and the removal gate, the gauge drift does not.
  const std::string b =
      write_file("rep_b.jsonl", report_doc(101, 11.0, false));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kReport);
  EXPECT_EQ(self.value().significant, 0u);
  const DiffEntry* minted = find_entry(self.value(), "mntp.queries.minted");
  ASSERT_NE(minted, nullptr);
  EXPECT_EQ(minted->cls, "exact");

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* shifted = find_entry(r.value(), "mntp.queries.minted");
  ASSERT_NE(shifted, nullptr);
  EXPECT_EQ(shifted->cls, "shifted");
  EXPECT_TRUE(shifted->regression);
  const DiffEntry* gauge = find_entry(r.value(), "sim.drift_ppm{node=a}");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->cls, "equal");
  EXPECT_FALSE(gauge->significant);
  const DiffEntry* removed = find_entry(r.value(), "net.packets");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->cls, "removed");
  EXPECT_TRUE(removed->regression);
  EXPECT_EQ(r.value().regressions, 2u);
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffQueryTrace, ShareShiftIsSignificant) {
  const std::string a = write_file("qt_a.jsonl", query_trace_doc(150, 150));
  const std::string b = write_file("qt_b.jsonl", query_trace_doc(285, 15));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kQueryTrace);
  EXPECT_EQ(self.value().significant, 0u);

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* pop = find_entry(r.value(), "ntp/popcorn");
  ASSERT_NE(pop, nullptr);
  EXPECT_EQ(pop->cls, "shifted");
  EXPECT_TRUE(pop->significant);
  EXPECT_GT(pop->score, 4.0);  // default sigma
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffTimeline, DivergenceScoresAgainstOwnSpread) {
  const std::string a = write_file("tl_a.jsonl", timeline_doc(0.0));
  // Shift every mean by 3x the series' own stddev (1.0): RMS/stddev = 3,
  // well past the 0.25 default divergence threshold.
  const std::string b = write_file("tl_b.jsonl", timeline_doc(3.0));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kTimeline);
  EXPECT_EQ(self.value().significant, 0u);

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* s = find_entry(r.value(), "mntp.offset_us");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->significant);
  EXPECT_NEAR(s->score, 3.0, 0.15);  // 3 / sample-stddev(+-1) ~ 2.90
  EXPECT_NEAR(s->delta, 3.0, 1e-9);
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffErrors, MixedKindsMalformedAndUnsupported) {
  const std::string bench = write_file("err_a.json", bench_doc(1000.0, 10.0));
  const std::string report = write_file("err_b.jsonl", report_doc(1, 1, false));
  auto mixed = diff_files(bench, report, {});
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.error().message.find("artifact kinds differ"),
            std::string::npos);

  auto missing = diff_files(bench, "/nonexistent/no.json", {});
  EXPECT_FALSE(missing.ok());

  const std::string garbage = write_file("err_c.json", "not json at all\n");
  auto bad = diff_files(garbage, bench, {});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("err_c.json"), std::string::npos);

  // A JSONL meta with a kind this build does not know is refused, not
  // read as a run report (whose meta is the one that carries no kind).
  const std::string foo = write_file(
      "err_d.jsonl",
      "{\"type\":\"meta\",\"kind\":\"mntp_foo\",\"schema_version\":1}\n"
      "{\"type\":\"event\",\"t_ns\":0}\n");
  auto unknown = diff_files(foo, foo, {});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("unsupported artifact kind"),
            std::string::npos);

  const std::string delta = write_file(
      "err_e.json", "{\"kind\":\"mntp_perf_delta\",\"schema_version\":1}");
  auto unsupported = diff_files(delta, delta, {});
  ASSERT_FALSE(unsupported.ok());
  EXPECT_NE(unsupported.error().message.find("unsupported artifact kind"),
            std::string::npos);

  // A bench number the gate reads must be a finite non-negative number
  // on either side; none of these may pass as 0.
  const std::string fast = write_file("err_f.json", bench_doc(100.0, 1.0));
  const std::string good = bench_doc(1000.0, 10.0);
  const std::pair<std::string, std::string> swaps[] = {
      {"\"median_us\":1000.000000", "\"median_us\":\"5000\""},
      {"\"median_us\":1000.000000,", ""},
      {"\"median_us\":1000.000000", "\"median_us\":-1"},
      {"\"median_us\":1000.000000", "\"median_us\":1e999"},
      {"\"median_us\":1000.000000", "\"median_us\":null"},
      {"\"mad_us\":10.000000", "\"mad_us\":\"10\""},
      {",\"mad_us\":10.000000", ""}};
  for (const auto& [from, to] : swaps) {
    std::string doc = good;
    const auto at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    const std::string path = write_file("err_num.json", doc);
    for (const auto& [a, b] : {std::pair{path, fast}, std::pair{fast, path}}) {
      auto r = diff_files(a, b, {});
      ASSERT_FALSE(r.ok()) << doc;
      EXPECT_EQ(r.error().code, core::Error::Code::kMalformedPacket) << doc;
      EXPECT_NE(r.error().message.find("engine_round"), std::string::npos)
          << r.error().message;
    }
  }
}

/// Seeded, fuzz-style robustness pass over the two loaders CI feeds
/// (bench and profile): byte flips, truncations and value-type swaps of
/// the numbers the diff reads. Every variant must come back as a result
/// or an error, in either argument position, and never crash or abort.
/// A type swap of a bench median is always an error.
TEST(DiffFuzz, MutatedFixturesReturnResultOrError) {
  std::mt19937_64 rng(20160101);  // fixed: the same variants every run
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::string replacements[] = {"\"12\"", "null", "true", "[]", "{}",
                                      "-1", "1e999", "\"\"", "[1,2]"};
  std::size_t results = 0, errors = 0;
  for (const auto& [fixture, keys] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"diff_bench_base.json", {"\"median_us\": "}},
           {"diff_profile_base.json", {"\"dur\": ", "\"self_us\": "}}}) {
    const std::string original =
        std::string(MNTP_TEST_DATA_DIR) + "/" + fixture;
    std::ifstream in(original);
    ASSERT_TRUE(in.good()) << original;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    ASSERT_FALSE(text.empty());
    DiffOptions opt;
    if (fixture.find("bench") != std::string::npos) {
      opt.budgets.push_back(
          parse_budget("engine_round:tuner_grid_slice:3").value());
    }
    for (int i = 0; i < 200; ++i) {
      std::string doc = text;
      bool bench_type_swap = false;
      switch (i % 3) {
        case 0:  // flip 1-4 random bytes
          for (std::size_t n = 1 + pick(4); n > 0; --n) {
            doc[pick(doc.size())] = static_cast<char>(rng() & 0xff);
          }
          break;
        case 1:  // truncate anywhere
          doc.resize(pick(doc.size()));
          break;
        default: {  // swap the value type behind one numeric key
          const std::string& key = keys[pick(keys.size())];
          std::vector<std::size_t> sites;
          for (auto at = doc.find(key); at != std::string::npos;
               at = doc.find(key, at + 1)) {
            sites.push_back(at + key.size());
          }
          ASSERT_FALSE(sites.empty()) << key;
          const std::size_t start = sites[pick(sites.size())];
          const std::size_t end = doc.find_first_of(",}", start);
          const std::string& value =
              replacements[pick(std::size(replacements))];
          doc.replace(start, end - start, value);
          bench_type_swap = key == "\"median_us\": ";
          break;
        }
      }
      const std::string variant = write_file("fuzz_" + fixture, doc);
      for (const auto& [a, b] :
           {std::pair{variant, original}, std::pair{original, variant}}) {
        auto r = diff_files(a, b, opt);
        if (r.ok()) {
          ++results;
          // Rendering must survive whatever the loader accepted.
          EXPECT_FALSE(render_diff_text(r.value(), opt).empty());
          EXPECT_FALSE(render_diff_json(r.value(), opt).empty());
        } else {
          ++errors;
          EXPECT_FALSE(r.error().message.empty());
        }
        if (bench_type_swap) {
          EXPECT_FALSE(r.ok()) << doc;
        }
      }
    }
  }
  // Both outcomes occur, so the harness reaches past the parser.
  EXPECT_GT(results, 0u);
  EXPECT_GT(errors, 0u);
}

TEST(DiffRender, JsonOutputParsesAndMatchesTallies) {
  const std::string base = write_file("rj_a.json", bench_doc(1000.0, 10.0));
  const std::string over = write_file("rj_b.json", bench_doc(3000.0, 10.0));
  auto r = diff_files(base, over, {});
  ASSERT_TRUE(r.ok());
  const std::string json = render_diff_json(r.value(), {});
  auto doc = core::Json::parse(json);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value()["kind"].as_string(), "mntp_diff");
  EXPECT_EQ(doc.value()["artifact_kind"].as_string(), "bench");
  EXPECT_EQ(doc.value()["exit_hint"].as_int(), 1);
  EXPECT_EQ(doc.value()["regressions"].as_int(),
            static_cast<std::int64_t>(r.value().regressions));
  // The text renderer ends on the verdict line scripts grep for.
  const std::string text = render_diff_text(r.value(), {});
  EXPECT_NE(text.find("-> exit 1"), std::string::npos);
}

}  // namespace
}  // namespace mntp::obs
