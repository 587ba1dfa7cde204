#include "core/positional.hpp"

#include <algorithm>

namespace astra::core {
namespace {

void Tally(PositionalCounts& counts, NodeId node, SocketId socket, DimmSlot slot,
           RankId rank, BankId bank, std::int16_t column, std::int32_t bit,
           std::uint64_t address) {
  const NodeLocation loc = LocateNode(node);
  const auto region = static_cast<int>(RegionOfChassis(loc.chassis));
  ++counts.per_socket[static_cast<std::size_t>(socket)];
  ++counts.per_bank[static_cast<std::size_t>(bank)];
  ++counts.per_rank[static_cast<std::size_t>(rank)];
  ++counts.per_slot[static_cast<std::size_t>(static_cast<int>(slot))];
  ++counts.per_rack[static_cast<std::size_t>(loc.rack)];
  ++counts.per_region[static_cast<std::size_t>(region)];
  ++counts.per_rack_region[static_cast<std::size_t>(loc.rack)]
                          [static_cast<std::size_t>(region)];
  const int bucket = static_cast<int>(column) * PositionalCounts::kColumnBuckets /
                     kColumnsPerRow;
  ++counts.per_column_bucket[static_cast<std::size_t>(
      std::clamp(bucket, 0, PositionalCounts::kColumnBuckets - 1))];
  if (node >= 0) {
    // Grown on demand so incremental callers need no span up front;
    // FinalizePositions clamps the vector back to the analysed span.
    if (static_cast<std::size_t>(node) >= counts.per_node.size()) {
      counts.per_node.resize(static_cast<std::size_t>(node) + 1, 0);
    }
    ++counts.per_node[static_cast<std::size_t>(node)];
  }
  ++counts.per_bit_position[bit];
  ++counts.per_address[address];
}

PositionalAnalysis::UniformityTests TestUniformity(const PositionalCounts& c) {
  PositionalAnalysis::UniformityTests tests;
  tests.socket = stats::ChiSquareUniform(c.per_socket);
  tests.bank = stats::ChiSquareUniform(c.per_bank);
  tests.column = stats::ChiSquareUniform(c.per_column_bucket);
  tests.rank = stats::ChiSquareUniform(c.per_rank);
  tests.slot = stats::ChiSquareUniform(c.per_slot);
  tests.rack = stats::ChiSquareUniform(c.per_rack);
  tests.region = stats::ChiSquareUniform(c.per_region);
  return tests;
}

}  // namespace

std::uint64_t PositionalCounts::Total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : per_socket) total += v;
  return total;
}

void PositionalCounts::ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                                    std::uint64_t /*first_seq*/) {
  for (const auto& record : batch) TallyErrorRecord(*this, record);
}

void PositionalCounts::Observe(const logs::MemoryErrorRecord& record,
                               std::uint64_t /*seq*/) {
  TallyErrorRecord(*this, record);
}

bool PositionalCounts::MergeFrom(const PositionalCounts& other) {
  if (&other == this) return false;
  const auto add_array = [](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  add_array(per_socket, other.per_socket);
  add_array(per_bank, other.per_bank);
  add_array(per_rank, other.per_rank);
  add_array(per_slot, other.per_slot);
  add_array(per_rack, other.per_rack);
  add_array(per_region, other.per_region);
  add_array(per_column_bucket, other.per_column_bucket);
  for (std::size_t r = 0; r < per_rack_region.size(); ++r) {
    add_array(per_rack_region[r], other.per_rack_region[r]);
  }
  if (per_node.size() < other.per_node.size()) {
    per_node.resize(other.per_node.size(), 0);
  }
  for (std::size_t n = 0; n < other.per_node.size(); ++n) {
    per_node[n] += other.per_node[n];
  }
  // astra-lint: allow(det-unordered-iter): keyed += is commutative.
  for (const auto& [bit, count] : other.per_bit_position) {
    per_bit_position[bit] += count;
  }
  // astra-lint: allow(det-unordered-iter): keyed += is commutative.
  for (const auto& [addr, count] : other.per_address) {
    per_address[addr] += count;
  }
  return true;
}

void TallyErrorRecord(PositionalCounts& counts,
                      const logs::MemoryErrorRecord& record) {
  if (record.type != logs::FailureType::kCorrectable) return;
  const DramCoord coord =
      DecodePhysicalAddress(record.node, record.physical_address);
  Tally(counts, record.node, record.socket, record.slot, record.rank,
        record.bank, coord.column, record.bit_position,
        record.physical_address);
}

namespace {

template <typename Array>
void PutDenseAxis(binio::Writer& writer, const Array& axis) {
  writer.PutU64(axis.size());
  for (const std::uint64_t v : axis) writer.PutU64(v);
}

// The dense axes have compile-time sizes; a count mismatch means the
// checkpoint came from an incompatible layout and the decode must fail
// rather than silently misalign every following field.
template <typename Array>
bool GetDenseAxis(binio::Reader& reader, Array& axis) {
  const std::uint64_t count = reader.GetU64();
  if (count != axis.size() || !reader.CanReadItems(count, sizeof(std::uint64_t))) {
    return false;
  }
  for (auto& v : axis) v = reader.GetU64();
  return reader.Ok();
}

}  // namespace

void PositionalCounts::Snapshot(binio::Writer& writer) const {
  PutDenseAxis(writer, per_socket);
  PutDenseAxis(writer, per_bank);
  PutDenseAxis(writer, per_rank);
  PutDenseAxis(writer, per_slot);
  PutDenseAxis(writer, per_rack);
  PutDenseAxis(writer, per_region);
  PutDenseAxis(writer, per_column_bucket);
  for (const auto& row : per_rack_region) PutDenseAxis(writer, row);
  writer.PutU64(per_node.size());
  for (const std::uint64_t v : per_node) writer.PutU64(v);
  writer.PutU64(per_bit_position.size());
  for (const auto& [bit, count] : per_bit_position.SortedItems()) {
    writer.PutI32(bit);
    writer.PutU64(count);
  }
  writer.PutU64(per_address.size());
  for (const auto& [addr, count] : per_address.SortedItems()) {
    writer.PutU64(addr);
    writer.PutU64(count);
  }
}

bool PositionalCounts::Restore(binio::Reader& reader) {
  *this = PositionalCounts{};
  bool ok = GetDenseAxis(reader, per_socket) && GetDenseAxis(reader, per_bank) &&
            GetDenseAxis(reader, per_rank) && GetDenseAxis(reader, per_slot) &&
            GetDenseAxis(reader, per_rack) && GetDenseAxis(reader, per_region) &&
            GetDenseAxis(reader, per_column_bucket);
  for (auto& row : per_rack_region) {
    if (!ok) break;
    ok = GetDenseAxis(reader, row);
  }
  if (ok) {
    const std::uint64_t node_count = reader.GetU64();
    ok = reader.CanReadItems(node_count, sizeof(std::uint64_t));
    if (ok) {
      per_node.resize(static_cast<std::size_t>(node_count));
      for (auto& v : per_node) v = reader.GetU64();
    }
  }
  if (ok) {
    const std::uint64_t bit_count = reader.GetU64();
    ok = reader.CanReadItems(bit_count, 12);
    if (ok) per_bit_position.Reserve(static_cast<std::size_t>(bit_count));
    for (std::uint64_t i = 0; ok && i < bit_count; ++i) {
      const std::int32_t bit = reader.GetI32();
      per_bit_position[bit] = reader.GetU64();
      ok = reader.Ok();
    }
  }
  if (ok) {
    const std::uint64_t addr_count = reader.GetU64();
    ok = reader.CanReadItems(addr_count, 16);
    if (ok) per_address.Reserve(static_cast<std::size_t>(addr_count));
    for (std::uint64_t i = 0; ok && i < addr_count; ++i) {
      const std::uint64_t addr = reader.GetU64();
      per_address[addr] = reader.GetU64();
      ok = reader.Ok();
    }
  }
  if (!ok || !reader.Ok()) {
    *this = PositionalCounts{};
    return false;
  }
  return true;
}

PositionalAnalysis AnalyzePositions(std::span<const logs::MemoryErrorRecord> records,
                                    const CoalesceResult& coalesced, int node_span,
                                    const DataQuality* quality) {
  PositionalCounts errors;
  errors.per_node.assign(static_cast<std::size_t>(node_span), 0);
  for (const auto& record : records) TallyErrorRecord(errors, record);
  return FinalizePositions(std::move(errors), coalesced, node_span, quality);
}

PositionalAnalysis FinalizePositions(PositionalCounts errors,
                                     const CoalesceResult& coalesced,
                                     int node_span, const DataQuality* quality) {
  PositionalAnalysis analysis;
  analysis.node_span = static_cast<std::uint64_t>(node_span);
  analysis.errors = std::move(errors);
  analysis.errors.per_node.resize(static_cast<std::size_t>(node_span), 0);
  analysis.faults.per_node.assign(static_cast<std::size_t>(node_span), 0);

  // --- faults: one tally per coalesced fault -------------------------------
  for (const auto& f : coalesced.faults) {
    const DramCoord coord = DecodePhysicalAddress(f.node, f.anchor_address);
    Tally(analysis.faults, f.node, f.socket, f.slot, f.rank, f.bank, coord.column,
          f.anchor_bit, f.anchor_address);
  }
  analysis.faults.per_node.resize(static_cast<std::size_t>(node_span), 0);

  analysis.error_uniformity = TestUniformity(analysis.errors);
  analysis.fault_uniformity = TestUniformity(analysis.faults);

  // --- Fig. 5: per-node distribution and concentration ---------------------
  for (const std::uint64_t count : analysis.faults.per_node) {
    if (count > 0) analysis.faults_per_node_frequency.Add(count);
  }
  analysis.ce_concentration = stats::ComputeConcentration(analysis.errors.per_node);
  for (const std::uint64_t count : analysis.errors.per_node) {
    if (count > 0) ++analysis.nodes_with_errors;
  }
  {
    std::vector<std::uint64_t> fault_counts;
    fault_counts.reserve(analysis.faults.per_node.size());
    for (const std::uint64_t c : analysis.faults.per_node) {
      if (c > 0) fault_counts.push_back(c);
    }
    analysis.faults_per_node_fit = stats::FitPowerLaw(fault_counts);
  }

  // --- Fig. 8: error-weighted counts per bit position and address ----------
  {
    // Sorted-key traversal: the fit consumes counts in a floating-point
    // reduction, so the input order must not depend on hash layout.
    std::vector<std::uint64_t> bit_counts;
    bit_counts.reserve(analysis.errors.per_bit_position.size());
    for (const auto& [bit, count] : analysis.errors.per_bit_position.SortedItems()) {
      bit_counts.push_back(count);
    }
    analysis.bit_position_fit = stats::FitPowerLaw(bit_counts);

    std::vector<std::uint64_t> address_counts;
    address_counts.reserve(analysis.errors.per_address.size());
    for (const auto& [addr, count] : analysis.errors.per_address.SortedItems()) {
      address_counts.push_back(count);
    }
    analysis.address_fit = stats::FitPowerLaw(address_counts);
  }

  // --- graceful degradation -------------------------------------------------
  if (coalesced.faults.size() < kMinFaultsForUniformity) {
    analysis.low_sample = true;
    analysis.caveats.push_back(
        "only " + std::to_string(coalesced.faults.size()) + " coalesced faults (< " +
        std::to_string(kMinFaultsForUniformity) +
        "): uniformity verdicts and power-law fits are unreliable");
  }
  if (quality != nullptr && quality->Degraded()) {
    const auto extra = quality->Caveats();
    analysis.caveats.insert(analysis.caveats.end(), extra.begin(), extra.end());
  }

  return analysis;
}

}  // namespace astra::core
