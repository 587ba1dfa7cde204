// The single incremental analysis core.  The five analyses the printed
// report is made of — fault coalescing, positional tallies, the monthly
// series, the CE-pattern predictor and the DUE/FIT accounting — are ENGINES
// honoring one contract, composed into AnalysisEngineSet, and the three
// drivers are thin shells over that set:
//
//   batch serial   = one engine set, records replayed in file order;
//   batch parallel = per-shard engine sets over contiguous record-index
//                    ranges, reduced via MergeFrom in shard INDEX order
//                    (BuildAnalysisArtifacts below);
//   streaming      = the same engine set fed by TailReader as records
//                    arrive, checkpointed through Snapshot/Restore.
//
// The figure analyses (lifetimes, burstiness, temperature look-backs,
// impact, spatial clustering, vendors) are one-shot batch functions over a
// record set or a CoalesceResult; no driver feeds them incrementally.
//
// The contract (each engine implements all five):
//
//   void Observe(const Record& record, std::uint64_t seq)
//       Fold one record into the engine state.  `seq` is the record's
//       GLOBAL stream index — the tie-break a stable time-sort applies at
//       equal timestamps.  Order-insensitive engines ignore it.
//   [[nodiscard]] bool MergeFrom(const E& other)
//       Fold another engine's state into this one.  Associative; drivers
//       merge in shard index order with `this` holding the EARLIER shard,
//       which makes first-observation state (anchors) equal the serial
//       replay's.  False — with this engine unchanged — on a configuration
//       mismatch or self-merge.
//   void Snapshot(binio::Writer&) const / [[nodiscard]] bool Restore(binio::Reader&)
//       Deterministic byte serialization of the engine state (sorted keys,
//       ordered containers).  Restore replaces the state; on a malformed
//       payload it returns false with the engine left EMPTY, never
//       half-restored.  Configuration is not serialized: Restore targets an
//       engine constructed with the snapshotted one's config, and the
//       checkpoint envelope version (stream/checkpoint.hpp) gates format.
//   Finalize(...) -> report fragment
//       Project the state onto the analysis result.  Const and
//       non-consuming — the streaming driver reports mid-campaign and keeps
//       observing.  Signatures are engine-specific: finalize-time context
//       (window, origin, populations) is passed here precisely so the same
//       observed state serves drivers that learn the window up front and
//       drivers that infer it after the fact.
//
// Determinism rules the parity tests pin down: identical bytes from all
// three drivers at any thread count requires (a) engine state that is a
// pure function of the observed multiset plus, for order-sensitive
// analyses, the global sequence numbers; (b) reductions in shard index
// order only; (c) iteration over ordered containers (or sorted keys)
// wherever floating-point accumulation order matters.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "core/predictor.hpp"
#include "core/temporal.hpp"
#include "core/uncorrectable.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

// The uniform four of the contract (Finalize is engine-specific).
template <typename E, typename Record = logs::MemoryErrorRecord>
concept AnalyzerEngine =
    std::movable<E> &&
    requires(E engine, const E& other, const Record& record, binio::Writer& writer,
             binio::Reader& reader) {
      { engine.Observe(record, std::uint64_t{0}) } -> std::same_as<void>;
      { engine.MergeFrom(other) } -> std::same_as<bool>;
      { std::as_const(engine).Snapshot(writer) } -> std::same_as<void>;
      { engine.Restore(reader) } -> std::same_as<bool>;
    };

static_assert(AnalyzerEngine<FaultCoalescer>);
static_assert(AnalyzerEngine<PositionalCounts>);
static_assert(AnalyzerEngine<TemporalEngine>);
static_assert(AnalyzerEngine<PredictorEngine>);
static_assert(AnalyzerEngine<UncorrectableEngine, logs::HetRecord>);

// Optional batched extension of the contract.  ObserveBatch(batch, first_seq)
// MUST leave the engine in the state Observe would after
//
//   for (i = 0; i < batch.size(); ++i) Observe(batch[i], first_seq + i);
//
// — it is a pure throughput override (hoisting per-record dispatch, caching
// month bins, reusing the previous record's group slot), never a semantic
// one, so the parity suites hold at any batching boundary.  Drivers call
// ObserveSpan below, which uses the override when an engine provides it and
// falls back to the per-record loop otherwise.
template <typename E, typename Record = logs::MemoryErrorRecord>
concept BatchAnalyzerEngine =
    AnalyzerEngine<E, Record> &&
    requires(E engine, std::span<const Record> batch) {
      { engine.ObserveBatch(batch, std::uint64_t{0}) } -> std::same_as<void>;
    };

static_assert(BatchAnalyzerEngine<FaultCoalescer>);
static_assert(BatchAnalyzerEngine<PositionalCounts>);
static_assert(BatchAnalyzerEngine<TemporalEngine>);
static_assert(BatchAnalyzerEngine<PredictorEngine>);

// Deliver a span of records to an engine: the batched path when the engine
// has one, the equivalent per-record loop otherwise.
template <typename Record, typename E>
void ObserveSpan(E& engine, std::span<const Record> batch, std::uint64_t first_seq) {
  if constexpr (BatchAnalyzerEngine<E, Record>) {
    engine.ObserveBatch(batch, first_seq);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      engine.Observe(batch[i], first_seq + i);
    }
  }
}

// Finalize-time context shared by the report engines: the analysis window
// (month 0 of the series = window.begin's calendar month), the HET
// recording start, and the analysed populations.
struct EngineContext {
  TimeWindow window;
  SimTime het_start;
  int node_span = 0;
  int month_count = 0;
};

// Configuration for the engines a set carries.  MergeFrom and Restore
// require equal configs on both sides.
struct EngineSetConfig {
  CoalesceOptions coalesce;
  PredictorConfig predictor;

  friend bool operator==(const EngineSetConfig&, const EngineSetConfig&) = default;
};

// Everything the full reliability report prints, in one place.  Each field
// is one engine's Finalize() fragment.
struct AnalysisArtifacts {
  std::size_t record_count = 0;  // delivered memory records (CEs + DUEs)
  int node_span = 0;             // number of node ids analysed
  CoalesceResult faults;
  PositionalAnalysis positions;
  MonthlyErrorSeries series;
  UncorrectableAnalysis dues;
  PredictionEvaluation prediction;
};

// The report's engine set: the five engines whose fragments make up
// AnalysisArtifacts, plus the window/span inference the streaming driver
// needs.  Itself an engine (the contract composes): Observe fans out to the
// members, MergeFrom/Snapshot/Restore delegate member-wise in fixed order.
class AnalysisEngineSet {
 public:
  // `first_sequence` seeds the global stream index of the next observed
  // record — per-shard sets pass their shard's first record index so sequence
  // numbers are globally consistent after the index-order reduction.
  explicit AnalysisEngineSet(const EngineSetConfig& config = {},
                             std::uint64_t first_sequence = 0);

  void ObserveHet(const logs::HetRecord& record);

  // Deliver a contiguous batch, numbered from the set's next stream index.
  // Each member engine consumes the whole span in one call (engines are
  // independent, so engine-wise delivery reorders nothing an engine can see).
  void ObserveMemoryBatch(std::span<const logs::MemoryErrorRecord> batch);

  // Contract form: deliver `record` AS global stream index `seq`.  The
  // drivers use ObserveMemoryBatch and let the set number its own stream; a
  // caller replaying an explicit indexing (the contract property tests)
  // pins each record's index here.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t seq) {
    next_seq_ = seq;
    ObserveMemoryBatch(std::span(&record, 1));
  }

  [[nodiscard]] bool MergeFrom(const AnalysisEngineSet& other);
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  [[nodiscard]] std::uint64_t Delivered() const { return delivered_; }

  // Context inferred from the records observed so far — node span from the
  // highest node id, window from the timestamp extremes, HET start from the
  // earliest HET event — exactly as the batch `analyze` derives them from an
  // ingested record set.
  [[nodiscard]] EngineContext InferredContext() const;

  // Assemble the full artifact bundle from the engines' fragments.
  // Non-consuming; `quality` threads ingest damage into every fragment's
  // caveats.
  [[nodiscard]] AnalysisArtifacts Finalize(const EngineContext& ctx,
                                           const DataQuality* quality = nullptr) const;

 private:
  EngineSetConfig config_;

  FaultCoalescer coalescer_;
  PositionalCounts positional_;
  TemporalEngine temporal_;
  PredictorEngine predictor_;
  UncorrectableEngine dues_;

  std::uint64_t next_seq_ = 0;   // global stream index of the next record
  std::uint64_t delivered_ = 0;  // memory records observed by THIS set
  bool any_ = false;
  NodeId max_node_ = 0;
  SimTime lo_;
  SimTime hi_;
};

// The batch pipeline: coalesce, positional, monthly series, DUE/FIT and the
// predictor over an ingested record set.  `quality` (optional) threads
// ingest damage through to every stage's caveats.  `threads` > 1 replays
// record-index shards into per-shard engine sets reduced via MergeFrom in
// index order — the artifacts never depend on it (0 = hardware, 1 = serial).
[[nodiscard]] AnalysisArtifacts BuildAnalysisArtifacts(
    std::span<const logs::MemoryErrorRecord> records,
    std::span<const logs::HetRecord> het, int node_span, TimeWindow window,
    SimTime het_start, const DataQuality* quality = nullptr,
    unsigned threads = 0);

}  // namespace astra::core

namespace astra::faultsim {
struct CampaignConfig;
struct CampaignResult;
}  // namespace astra::faultsim

namespace astra::core {

// The in-memory campaign trial path: feed a simulator result straight into
// the engine set (ObserveMemoryBatch over the record vectors, window and
// populations taken from the config) with no serialize-to-disk + re-parse
// round trip; the campaign runner executes hundreds of trials through this
// path (bench_campaign quantifies the saving).  NOT the same artifacts as
// `simulate` + `analyze`: this path analyses every simulated record,
// including the same-second repeats that analyze's ingest drops as exact
// duplicates (639,051 against 618,822 records at --nodes=400 --seed=1), and
// takes the window and node count from the config instead of inferring them
// from the records.
[[nodiscard]] AnalysisArtifacts AnalyzeCampaignResult(
    const faultsim::CampaignResult& result,
    const faultsim::CampaignConfig& config, unsigned threads = 0);

}  // namespace astra::core
