// In-process stream aggregator modelled on Apache Kafka (paper Fig. 1:
// "stream aggregator (e.g. Kafka) combines the incoming data items from
// disjoint sub-streams").
//
// Faithful subset: named topics divided into partitions; each partition is
// an append-only log addressed by offset; producers append (optionally
// keyed, so one sub-stream maps deterministically onto one partition);
// consumers poll from their tracked offsets and never remove data, so
// several consumers can read the same stream independently. Out of scope
// (docs/architecture.md, "Scope and substitutions"): replication,
// persistence, consumer groups and their rebalancing protocol.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/record.h"
#include "engine/record_batch.h"

namespace streamapprox::ingest {

/// Position within a partition's log.
using Offset = std::uint64_t;

/// One append-only partition log. Thread-safe.
class PartitionLog {
 public:
  /// Appends a record, returning its offset.
  Offset append(const engine::Record& record);

  /// Copies up to `max_records` records starting at `from` into `out`;
  /// returns the next offset to read. Does not block.
  Offset read(Offset from, std::size_t max_records,
              std::vector<engine::Record>& out) const;

  /// Batch-out overload: appends into a caller-owned batch under one lock
  /// acquisition — the data plane's allocation-free fill path. Metadata
  /// (watermark, occupancy, identity) is the caller's to stamp.
  Offset read(Offset from, std::size_t max_records,
              engine::RecordBatch& out) const {
    return read(from, max_records, out.records);
  }

  /// Blocks until data is available at `from`, the timeout elapses, or the
  /// log is sealed. Returns next offset (== from when nothing arrived).
  Offset read_blocking(Offset from, std::size_t max_records,
                       std::vector<engine::Record>& out,
                       std::int64_t timeout_ms) const;

  /// Batch-out overload of read_blocking.
  Offset read_blocking(Offset from, std::size_t max_records,
                       engine::RecordBatch& out,
                       std::int64_t timeout_ms) const {
    return read_blocking(from, max_records, out.records, timeout_ms);
  }

  /// End offset (== number of records appended).
  Offset end_offset() const;

  /// Seals the log: no further appends; blocked readers wake up.
  void seal();

  /// True once sealed.
  bool sealed() const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable data_;
  std::vector<engine::Record> log_;
  bool sealed_ = false;
};

/// A named stream of records split into partitions.
class Topic {
 public:
  /// Creates a topic with `partitions` >= 1 partition logs.
  explicit Topic(std::size_t partitions);

  /// Number of partitions.
  std::size_t partition_count() const noexcept { return logs_.size(); }

  /// Access to one partition.
  PartitionLog& partition(std::size_t index) { return *logs_.at(index); }
  const PartitionLog& partition(std::size_t index) const {
    return *logs_.at(index);
  }

  /// Routes a key to a partition (hash partitioning, Kafka's default for
  /// keyed messages — keeps each sub-stream in one partition, preserving
  /// per-source ordering).
  std::size_t partition_for_key(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key % logs_.size());
  }

  /// Total records across partitions.
  std::uint64_t total_records() const;

  /// Seals every partition.
  void seal();

 private:
  std::vector<std::unique_ptr<PartitionLog>> logs_;
};

/// The broker: a registry of topics.
class Broker {
 public:
  /// Creates (or returns the existing) topic with `partitions` partitions.
  /// Throws std::invalid_argument if the topic exists with a different
  /// partition count.
  Topic& create_topic(const std::string& name, std::size_t partitions);

  /// Looks up a topic; throws std::out_of_range if absent.
  Topic& topic(const std::string& name);

  /// True when the topic exists.
  bool has_topic(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Topic>> topics_;
};

/// Appends records to a topic, routing by the record's stratum so that each
/// sub-stream lands in a single partition (paper Fig. 1 sub-streams).
class Producer {
 public:
  /// Binds the producer to a topic.
  Producer(Broker& broker, const std::string& topic);

  /// Sends one record (keyed by stratum).
  void send(const engine::Record& record);

  /// Sends a batch.
  void send_batch(const std::vector<engine::Record>& records);

  /// Marks the stream complete (seals the topic).
  void finish();

 private:
  Topic& topic_;
};

/// Reads an assigned subset of a topic's partitions from tracked offsets
/// (all partitions unless an explicit assignment is given — Kafka's
/// assign() model, which is how the exchange reads each partition through
/// its own consumer and polls every partition once per round).
class Consumer {
 public:
  /// Binds the consumer to every partition of a topic, offset 0 everywhere.
  Consumer(Broker& broker, const std::string& topic);

  /// Binds the consumer to an explicit partition assignment. Throws
  /// std::out_of_range for partition indices beyond the topic, and
  /// std::invalid_argument for duplicate indices. An empty assignment is
  /// permitted and is immediately exhausted.
  Consumer(Broker& broker, const std::string& topic,
           std::vector<std::size_t> assignment);

  /// Polls up to `max_records` records across the assigned partitions,
  /// blocking up to `timeout_ms` for the first record. Returns the records
  /// fetched (empty when the assignment is exhausted and sealed, or the
  /// timeout expired). Allocates a fresh vector per call; the live paths use
  /// the reuse-buffer overload below.
  std::vector<engine::Record> poll(std::size_t max_records,
                                   std::int64_t timeout_ms = 100);

  /// Reuse-buffer overload: clears `out` (keeping its capacity) and fills it
  /// in place, so steady-state polling is allocation-free. Returns the
  /// number of records fetched.
  std::size_t poll(std::vector<engine::Record>& out, std::size_t max_records,
                   std::int64_t timeout_ms = 100);

  /// Batch-out overload: resets and fills a caller-owned batch. Metadata is
  /// left for the transport layer to stamp. Returns the records fetched.
  std::size_t poll(engine::RecordBatch& out, std::size_t max_records,
                   std::int64_t timeout_ms = 100);

  /// True when every assigned partition is sealed and fully consumed.
  bool exhausted() const;

  /// The assigned partition indices, in assignment order.
  const std::vector<std::size_t>& assignment() const noexcept {
    return assignment_;
  }

  /// True when assignment slot `slot` (an index into assignment()) is
  /// sealed and fully consumed — per-partition progress for watermarking.
  bool partition_exhausted(std::size_t slot) const;

  /// Total records consumed.
  std::uint64_t consumed() const noexcept { return consumed_; }

 private:
  Topic& topic_;
  std::vector<std::size_t> assignment_;  ///< partition index per slot
  std::vector<Offset> offsets_;          ///< next offset per slot
  std::uint64_t consumed_ = 0;
  std::size_t next_slot_ = 0;
};

}  // namespace streamapprox::ingest
