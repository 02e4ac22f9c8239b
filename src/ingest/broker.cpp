#include "ingest/broker.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace streamapprox::ingest {

// ---------------------------------------------------------------- Partition

Offset PartitionLog::append(const engine::Record* records,
                            std::size_t count) {
  Offset first = 0;
  {
    std::lock_guard lock(mutex_);
    first = size_;
    if (count == 0) return first;
    if (sealed_) throw std::logic_error("PartitionLog: append after seal");
    while (count > 0) {
      if (segments_.empty() || segments_.back().size() == kSegmentRecords) {
        std::vector<engine::Record> segment;
        segment.reserve(kSegmentRecords);
        segments_.push_back(std::move(segment));
      }
      auto& tail = segments_.back();
      const std::size_t n = std::min(count, kSegmentRecords - tail.size());
      tail.insert(tail.end(), records, records + n);
      records += n;
      count -= n;
      size_ += n;
    }
  }
  data_.notify_all();
  return first;
}

Offset PartitionLog::copy_out(Offset from, std::size_t max_records,
                              std::vector<engine::Record>& out) const {
  if (from >= size_) return from;
  const Offset end = from + std::min<Offset>(max_records, size_ - from);
  for (Offset at = from; at < end;) {
    const engine::Record* segment = segments_[at / kSegmentRecords].data();
    const std::size_t index = at % kSegmentRecords;
    const std::size_t n = std::min<Offset>(end - at, kSegmentRecords - index);
    out.insert(out.end(), segment + index, segment + index + n);
    at += n;
  }
  return end;
}

Offset PartitionLog::read(Offset from, std::size_t max_records,
                          std::vector<engine::Record>& out) const {
  std::lock_guard lock(mutex_);
  return copy_out(from, max_records, out);
}

Offset PartitionLog::read_blocking(Offset from, std::size_t max_records,
                                   std::vector<engine::Record>& out,
                                   std::int64_t timeout_ms) const {
  std::unique_lock lock(mutex_);
  data_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return sealed_ || size_ > from; });
  return copy_out(from, max_records, out);
}

Offset PartitionLog::end_offset() const {
  std::lock_guard lock(mutex_);
  return size_;
}

void PartitionLog::seal() {
  {
    std::lock_guard lock(mutex_);
    sealed_ = true;
  }
  data_.notify_all();
}

bool PartitionLog::sealed() const {
  std::lock_guard lock(mutex_);
  return sealed_;
}

// -------------------------------------------------------------------- Topic

Topic::Topic(std::size_t partitions) {
  if (partitions == 0) partitions = 1;
  logs_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    logs_.push_back(std::make_unique<PartitionLog>());
  }
}

std::uint64_t Topic::total_records() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->end_offset();
  return total;
}

void Topic::seal() {
  for (auto& log : logs_) log->seal();
}

// ------------------------------------------------------------------- Broker

Topic& Broker::create_topic(const std::string& name, std::size_t partitions) {
  std::lock_guard lock(mutex_);
  auto it = topics_.find(name);
  if (it != topics_.end()) {
    if (it->second->partition_count() != std::max<std::size_t>(1, partitions)) {
      throw std::invalid_argument(
          "Broker: topic exists with different partition count: " + name);
    }
    return *it->second;
  }
  auto [inserted, ok] =
      topics_.emplace(name, std::make_unique<Topic>(partitions));
  return *inserted->second;
}

Topic& Broker::topic(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    throw std::out_of_range("Broker: unknown topic " + name);
  }
  return *it->second;
}

bool Broker::has_topic(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return topics_.contains(name);
}

// ----------------------------------------------------------------- Producer

Producer::Producer(Broker& broker, const std::string& topic)
    : topic_(broker.topic(topic)) {}

void Producer::send(const engine::Record& record) {
  topic_.partition(topic_.partition_for_key(record.stratum)).append(record);
}

void Producer::send_batch(const std::vector<engine::Record>& records) {
  // Bounded chunks keep the scatter buffers cache-resident whatever the
  // batch size; within a chunk each partition's share keeps input order.
  constexpr std::size_t kChunkRecords = 4096;
  std::vector<std::vector<engine::Record>> shares(topic_.partition_count());
  for (std::size_t first = 0; first < records.size(); first += kChunkRecords) {
    const std::size_t last =
        std::min(records.size(), first + kChunkRecords);
    for (std::size_t i = first; i < last; ++i) {
      shares[topic_.partition_for_key(records[i].stratum)].push_back(
          records[i]);
    }
    for (std::size_t p = 0; p < shares.size(); ++p) {
      topic_.partition(p).append(shares[p].data(), shares[p].size());
      shares[p].clear();
    }
  }
}

void Producer::finish() { topic_.seal(); }

// ----------------------------------------------------------------- Consumer

namespace {

std::vector<std::size_t> all_partitions_of(const Topic& topic) {
  std::vector<std::size_t> all(topic.partition_count());
  for (std::size_t p = 0; p < all.size(); ++p) all[p] = p;
  return all;
}

}  // namespace

Consumer::Consumer(Broker& broker, const std::string& topic)
    : Consumer(broker, topic, all_partitions_of(broker.topic(topic))) {}

Consumer::Consumer(Broker& broker, const std::string& topic,
                   std::vector<std::size_t> assignment)
    : topic_(broker.topic(topic)), assignment_(std::move(assignment)) {
  for (const std::size_t p : assignment_) {
    if (p >= topic_.partition_count()) {
      throw std::out_of_range("Consumer: partition index out of range");
    }
  }
  std::vector<std::size_t> sorted = assignment_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Consumer: duplicate partition in assignment");
  }
  offsets_.assign(assignment_.size(), 0);
}

std::size_t Consumer::poll(std::vector<engine::Record>& out,
                           std::size_t max_records, std::int64_t timeout_ms) {
  out.clear();
  const std::size_t slots = assignment_.size();
  if (slots == 0) return 0;

  // First try non-blocking round-robin over the assigned partitions.
  for (std::size_t i = 0; i < slots && out.size() < max_records; ++i) {
    const std::size_t s = (next_slot_ + i) % slots;
    offsets_[s] = topic_.partition(assignment_[s])
                      .read(offsets_[s], max_records - out.size(), out);
  }
  // Nothing anywhere: block on the next partition in line for fairness.
  if (out.empty() && timeout_ms > 0) {
    const std::size_t s = next_slot_;
    offsets_[s] = topic_.partition(assignment_[s])
                      .read_blocking(offsets_[s], max_records, out, timeout_ms);
  }
  next_slot_ = (next_slot_ + 1) % slots;
  consumed_ += out.size();
  return out.size();
}

std::size_t Consumer::poll(engine::RecordBatch& out, std::size_t max_records,
                           std::int64_t timeout_ms) {
  out.reset();
  return poll(out.records, max_records, timeout_ms);
}

bool Consumer::partition_exhausted(std::size_t slot) const {
  const auto& log = topic_.partition(assignment_.at(slot));
  return log.sealed() && offsets_.at(slot) >= log.end_offset();
}

bool Consumer::exhausted() const {
  for (std::size_t s = 0; s < assignment_.size(); ++s) {
    if (!partition_exhausted(s)) return false;
  }
  return true;
}

}  // namespace streamapprox::ingest
