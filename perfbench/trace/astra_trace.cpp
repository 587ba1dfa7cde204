// astra_trace — the benchmark's traced run.  Links the astra libraries and
// times the calls into each module's public functions, one span per call:
// name, start, end and parent, kept in memory and written out as JSON when
// the run ends.  Counts recorded at the same boundaries ride along.
//
//   astra_trace --dataset=DIR --fleet=ROOT --racks=R --nodes-per-rack=P
//               --campaign-trials=T --campaign-nodes=N --campaign-seed=S
//               --threads=N --work=DIR --out=FILE --report=FILE
//
// Every probe replays what the CLI does on the same inputs, so the serial
// `analyze` spans add up to (nearly all of) the command's wall time.  The
// in-process report is printed to --report=FILE, so the caller can check
// the traced pipeline against `astra-mrt analyze` byte for byte.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "logs/log_file.hpp"
#include "logs/parallel_ingest.hpp"
#include "serve/daemon.hpp"
#include "stats/power_law.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/binio.hpp"
#include "util/mapped_file.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace {

using namespace astra;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

// In-memory span recorder.  Spans nest by scope: the innermost open span is
// the parent of the next one opened.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      index_ = tracer_.Open(std::move(name));
    }
    ~Scope() { tracer_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  void Count(const std::string& name, double value) { counts_[name] += value; }

  void Write(std::ostream& out) const {
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << '}';
    }
    out << "],\n\"counts\":{";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out << (first ? "" : ",") << "\n\"" << name << "\":" << FormatDouble(value, 0);
      first = false;
    }
    out << "}}\n";
  }

 private:
  int Open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = Now();
    open_.pop_back();
  }
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
};

struct Options {
  std::string dataset;
  std::string fleet;
  std::string work;
  std::string out;
  std::string report;
  std::int64_t racks = 0;
  std::int64_t nodes_per_rack = 0;
  std::int64_t campaign_trials = 0;
  std::int64_t campaign_nodes = 0;
  std::int64_t campaign_seed = 0;
  std::int64_t threads = 0;
};

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options o;
  const std::map<std::string_view, std::string*> text_flags = {
      {"--dataset", &o.dataset}, {"--fleet", &o.fleet}, {"--work", &o.work},
      {"--out", &o.out}, {"--report", &o.report}};
  const std::map<std::string_view, std::int64_t*> number_flags = {
      {"--racks", &o.racks},
      {"--nodes-per-rack", &o.nodes_per_rack},
      {"--campaign-trials", &o.campaign_trials},
      {"--campaign-nodes", &o.campaign_nodes},
      {"--campaign-seed", &o.campaign_seed},
      {"--threads", &o.threads}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (const auto text = text_flags.find(flag); text != text_flags.end()) {
      *text->second = std::string(value);
    } else if (const auto number = number_flags.find(flag);
               number != number_flags.end()) {
      *number->second = ParseInt64(value).value_or(0);
    } else {
      std::cerr << "astra_trace: unknown argument " << arg << '\n';
      return std::nullopt;
    }
  }
  if (o.dataset.empty() || o.fleet.empty() || o.work.empty() || o.out.empty() ||
      o.report.empty() || o.racks <= 0 || o.nodes_per_rack <= 0 ||
      o.campaign_trials <= 0 || o.campaign_nodes <= 0 || o.campaign_seed <= 0 ||
      o.threads <= 0) {
    std::cerr << "astra_trace: every flag is required; numbers "
                 "must be positive\n";
    return std::nullopt;
  }
  return o;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::uint64_t TreeBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path().string());
  }
  return total;
}

// The serial `analyze --threads=1` pipeline, layer by layer, as CmdAnalyze
// runs it, under one root span.  Returns the rendered report and leaves the
// records, the engine set and the artifacts with the caller.
std::string TraceSerialAnalyze(Tracer& tracer, const core::DatasetPaths& paths,
                               std::vector<logs::MemoryErrorRecord>& records,
                               core::AnalysisEngineSet& set,
                               core::AnalysisArtifacts& artifacts) {
  const logs::IngestPolicy policy;
  Tracer::Scope root(tracer, "analyze.serial");
  logs::IngestReport memory_report;
  {
    Tracer::Scope span(tracer, "logs.ingest");
    memory_report = logs::IngestLogFile<logs::MemoryErrorRecord>(
                        paths.memory_errors, policy,
                        [&records](const logs::MemoryErrorRecord& r) {
                          records.push_back(r);
                        })
                        .value_or(logs::IngestReport{});
  }
  tracer.Count("logs.lines", static_cast<double>(memory_report.stats.total_lines));
  tracer.Count("logs.records_out", static_cast<double>(records.size()));
  tracer.Count("logs.quarantined", static_cast<double>(memory_report.stats.malformed));
  tracer.Count("logs.deduped", static_cast<double>(memory_report.duplicates_removed));
  tracer.Count("logs.reordered", static_cast<double>(memory_report.reordered));

  std::vector<logs::HetRecord> het;
  logs::IngestReport het_report;
  {
    Tracer::Scope span(tracer, "logs.ingest_het");
    het_report = logs::IngestLogFile<logs::HetRecord>(
                     paths.het_events, policy,
                     [&het](const logs::HetRecord& r) { het.push_back(r); })
                     .value_or(logs::IngestReport{});
  }
  core::DataQuality quality = core::DataQuality::FromReport(memory_report);
  quality.Merge(core::DataQuality::FromReport(het_report));

  {
    Tracer::Scope span(tracer, "core.observe");
    set.ObserveMemoryBatch(records);
  }
  {
    Tracer::Scope span(tracer, "core.observe_het");
    for (const auto& r : het) set.ObserveHet(r);
  }
  {
    Tracer::Scope span(tracer, "core.finalize");
    // The context CmdAnalyze infers from the delivered records.
    NodeId max_node = 0;
    SimTime lo = records.front().timestamp;
    SimTime hi = lo;
    for (const auto& r : records) {
      max_node = std::max(max_node, r.node);
      lo = std::min(lo, r.timestamp);
      hi = std::max(hi, r.timestamp);
    }
    SimTime het_start = hi;
    for (const auto& r : het) het_start = std::min(het_start, r.timestamp);
    core::EngineContext ctx;
    ctx.window = {lo, hi.AddSeconds(1)};
    ctx.het_start = het_start;
    ctx.node_span = static_cast<int>(max_node) + 1;
    ctx.month_count = CalendarMonthIndex(ctx.window.begin, ctx.window.end) + 1;
    artifacts = set.Finalize(ctx, &quality);
  }
  std::ostringstream report;
  {
    Tracer::Scope span(tracer, "core.render");
    core::RenderIngestReport(report, policy, memory_report, &het_report);
    core::RenderAnalysisReport(report, artifacts);
  }
  return report.str();
}

// The power-law fits Finalize makes, re-run on the same samples.
void TracePowerLawFits(Tracer& tracer, const core::AnalysisArtifacts& artifacts) {
  std::vector<std::uint64_t> per_node;
  for (const auto c : artifacts.positions.faults.per_node) {
    if (c > 0) per_node.push_back(c);
  }
  std::vector<std::uint64_t> per_bit;
  for (const auto& [bit, c] : artifacts.positions.errors.per_bit_position.SortedItems()) {
    per_bit.push_back(c);
  }
  std::vector<std::uint64_t> per_address;
  for (const auto& [addr, c] : artifacts.positions.errors.per_address.SortedItems()) {
    per_address.push_back(c);
  }
  Tracer::Scope span(tracer, "stats.power_law_fit");
  (void)stats::FitPowerLaw(per_node);
  (void)stats::FitPowerLaw(per_bit);
  (void)stats::FitPowerLaw(per_address);
}

void TraceParsingAndMapping(Tracer& tracer, const core::DatasetPaths& paths,
                            unsigned threads) {
  {
    Tracer::Scope span(tracer, "util.map");
    const auto file = MappedFile::Open(paths.memory_errors);
    (void)SplitAtLineBoundaries(file ? file->Bytes() : std::string_view{}, threads);
  }
  {
    Tracer::Scope span(tracer, "logs.parse");
    std::size_t parsed = 0;
    (void)logs::ReadLogFile<logs::MemoryErrorRecord>(
        paths.memory_errors, [&parsed](const logs::MemoryErrorRecord&) { ++parsed; });
  }
}

// The `analyze --threads=N` ingest and reduction layers.
void TraceParallelAnalyze(Tracer& tracer, const core::DatasetPaths& paths,
                          unsigned threads) {
  const logs::IngestPolicy policy;
  Tracer::Scope root(tracer, "analyze.parallel");
  std::vector<logs::MemoryErrorRecord> records;
  {
    Tracer::Scope span(tracer, "logs.parallel_ingest");
    (void)logs::ParallelIngestLogFile<logs::MemoryErrorRecord>(
        paths.memory_errors, policy, threads,
        [&records](const logs::MemoryErrorRecord& r) { records.push_back(r); },
        [&records](std::size_t parsed) { records.reserve(parsed); });
  }
  const core::EngineSetConfig config;
  const auto ranges = SplitIndexRanges(records.size(), threads);
  std::vector<core::AnalysisEngineSet> shards;
  for (const auto& range : ranges) shards.emplace_back(config, range.first);
  {
    Tracer::Scope span(tracer, "core.shard_observe");
    ParallelShards(ranges.size(), ranges.size(),
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t s = begin; s < end; ++s) {
                       shards[s].ObserveMemoryBatch(std::span(records).subspan(
                           ranges[s].first, ranges[s].second - ranges[s].first));
                     }
                   });
  }
  {
    Tracer::Scope span(tracer, "core.merge");
    for (std::size_t s = 1; s < shards.size(); ++s) {
      if (!shards.front().MergeFrom(shards[s])) break;
    }
  }
}

// Each engine of the set on its own, over the same records.
void TraceEngines(Tracer& tracer, const core::DatasetPaths& paths,
                  const std::vector<logs::MemoryErrorRecord>& records) {
  const core::EngineSetConfig config;
  const std::span<const logs::MemoryErrorRecord> batch(records);
  {
    core::FaultCoalescer engine(config.coalesce);
    Tracer::Scope span(tracer, "core.observe.coalescer");
    core::ObserveSpan(engine, batch, 0);
  }
  {
    core::PositionalCounts engine;
    Tracer::Scope span(tracer, "core.observe.positional");
    core::ObserveSpan(engine, batch, 0);
  }
  {
    core::TemporalEngine engine;
    Tracer::Scope span(tracer, "core.observe.temporal");
    core::ObserveSpan(engine, batch, 0);
  }
  {
    core::PredictorEngine engine(config.predictor);
    Tracer::Scope span(tracer, "core.observe.predictor");
    core::ObserveSpan(engine, batch, 0);
  }
  {
    std::vector<logs::HetRecord> het;
    (void)logs::IngestLogFile<logs::HetRecord>(
        paths.het_events, logs::IngestPolicy{},
        [&het](const logs::HetRecord& r) { het.push_back(r); });
    core::UncorrectableEngine engine;
    Tracer::Scope span(tracer, "core.observe.uncorrectable");
    core::ObserveSpan(engine, std::span<const logs::HetRecord>(het), 0);
  }
}

// One single-pass `watch`: Poll then Finish, then the checkpoint it saves.
bool TraceStream(Tracer& tracer, const core::DatasetPaths& paths,
                 const std::string& work) {
  stream::StreamMonitor monitor(paths, stream::MonitorConfig{});
  {
    Tracer::Scope span(tracer, "stream.poll");
    (void)monitor.Poll();
    (void)monitor.Finish();
  }
  const std::string checkpoint = work + "/watch.ckp";
  if (stream::SaveMonitorCheckpoint(monitor, checkpoint) !=
      stream::CheckpointStatus::kOk) {
    std::cerr << "astra_trace: cannot write " << checkpoint << '\n';
    return false;
  }
  tracer.Count("stream.checkpoint_bytes", static_cast<double>(FileBytes(checkpoint)));
  std::filesystem::remove(checkpoint);
  return true;
}

bool TraceServe(Tracer& tracer, const Options& o) {
  serve::ServeOptions options;
  options.root = o.fleet;
  options.topology.racks = static_cast<int>(o.racks);
  options.topology.nodes_per_rack = static_cast<int>(o.nodes_per_rack);
  options.checkpoint_dir = o.work + "/serve-ckp";
  std::filesystem::remove_all(options.checkpoint_dir);
  serve::ServeDaemon daemon(options);
  std::string error;
  {
    Tracer::Scope span(tracer, "serve.init");
    if (!daemon.Init(&error)) {
      std::cerr << "astra_trace: serve init failed: " << error << '\n';
      return false;
    }
  }
  {
    Tracer::Scope span(tracer, "serve.drain");
    (void)daemon.Drain();
  }
  {
    Tracer::Scope span(tracer, "serve.fleet_report");
    (void)daemon.FleetReport();
  }
  {
    Tracer::Scope span(tracer, "serve.rack_report");
    (void)daemon.RackReport(0);
  }
  if (!daemon.SaveCheckpoint()) {
    std::cerr << "astra_trace: cannot checkpoint to " << options.checkpoint_dir << '\n';
    return false;
  }
  tracer.Count("serve.checkpoint_bytes",
               static_cast<double>(TreeBytes(options.checkpoint_dir)));
  std::filesystem::remove_all(options.checkpoint_dir);
  return true;
}

void TraceCampaign(Tracer& tracer, const Options& o) {
  campaign::ScenarioGrid grid;
  grid.trials = static_cast<int>(o.campaign_trials);
  grid.node_count = static_cast<int>(o.campaign_nodes);
  grid.seed = static_cast<std::uint64_t>(o.campaign_seed);
  std::uint64_t records_out = 0;
  {
    // What RunTrial does for every (cell, trial), layer by layer.
    Tracer::Scope root(tracer, "campaign.trial_layers");
    for (std::size_t c = 0; c < grid.CellCount(); ++c) {
      const campaign::ScenarioCell cell = grid.CellAt(c);
      for (int trial = 0; trial < grid.trials; ++trial) {
        const faultsim::CampaignConfig config =
            campaign::CellCampaignConfig(grid, cell, trial);
        faultsim::CampaignResult result;
        {
          Tracer::Scope span(tracer, "faultsim.simulate");
          result = faultsim::FleetSimulator(config).Run(1);
        }
        records_out += result.memory_errors.size();
        Tracer::Scope span(tracer, "campaign.analyze");
        (void)core::AnalyzeCampaignResult(result, config, 1);
      }
    }
  }
  tracer.Count("faultsim.records_out", static_cast<double>(records_out));
  tracer.Count("campaign.trials",
               static_cast<double>(grid.CellCount()) * grid.trials);
  Tracer::Scope span(tracer, "campaign.run");
  (void)campaign::RunCampaign(grid, 1);
}

int Main(int argc, char** argv) {
  const auto parsed = ParseOptions(argc, argv);
  if (!parsed) return 1;
  const Options& o = *parsed;
  const auto paths = core::DatasetPaths::InDirectory(o.dataset);
  if (!std::filesystem::exists(paths.memory_errors)) {
    std::cerr << "astra_trace: cannot read " << paths.memory_errors << '\n';
    return 2;
  }
  std::filesystem::create_directories(o.work);

  Tracer tracer;
  std::vector<logs::MemoryErrorRecord> records;
  core::AnalysisEngineSet set;
  core::AnalysisArtifacts artifacts;
  const std::string report = TraceSerialAnalyze(tracer, paths, records, set, artifacts);
  TracePowerLawFits(tracer, artifacts);
  std::string state;
  binio::Writer writer(state);
  set.Snapshot(writer);
  tracer.Count("core.state_bytes", static_cast<double>(state.size()));
  const auto threads = static_cast<unsigned>(o.threads);
  TraceParsingAndMapping(tracer, paths, threads);
  TraceParallelAnalyze(tracer, paths, threads);
  TraceEngines(tracer, paths, records);
  records = {};
  if (!TraceStream(tracer, paths, o.work) || !TraceServe(tracer, o)) return 2;
  TraceCampaign(tracer, o);

  std::ofstream report_out(o.report);
  report_out << report;
  std::ofstream out(o.out);
  tracer.Write(out);
  out.flush();
  report_out.flush();
  if (!out || !report_out) {
    std::cerr << "astra_trace: cannot write " << o.out << " or " << o.report << '\n';
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
