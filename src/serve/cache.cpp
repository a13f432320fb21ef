#include "serve/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace antdense::serve {

namespace {

/// The payload's length when `line` ends with "result": + the result's
/// dump(0) + "}" (the layout the cache writes), else 0.
std::size_t canonical_payload_length(const util::JsonValue& result,
                                     std::string_view line) {
  constexpr std::string_view kKey = "\"result\":";
  std::string tail(kKey);
  try {
    tail += result.dump(0);
  } catch (const std::invalid_argument&) {
    return 0;  // a non-finite number: no dump(0) spells it
  }
  tail += '}';
  return line.ends_with(tail) ? tail.size() - kKey.size() - 1 : 0;
}

}  // namespace

util::JsonValue CacheStats::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("hits_memory", hits_memory);
  doc.set("hits_disk", hits_disk);
  doc.set("hits_total", hits_total());
  doc.set("misses", misses);
  doc.set("coalesced", coalesced);
  doc.set("executions", executions);
  doc.set("evictions", evictions);
  doc.set("entries", entries);
  doc.set("bytes", bytes);
  doc.set("capacity_bytes", capacity_bytes);
  doc.set("in_flight", in_flight);
  doc.set("warm_loaded", warm_loaded);
  doc.set("journal_bytes", journal_bytes);
  return doc;
}

ResultCache::ResultCache(std::string journal_path,
                         std::uint64_t capacity_bytes, std::string cache_name,
                         obs::Telemetry telemetry)
    : journal_path_(std::move(journal_path)),
      cache_name_(std::move(cache_name)),
      capacity_bytes_(capacity_bytes),
      trace_(telemetry.trace) {
  obs::MetricsRegistry* reg = telemetry.metrics;
  if (reg == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    reg = own_registry_.get();
  }
  hits_memory_ = &reg->counter("antdense_cache_hits_total",
                               {{"tier", "memory"}},
                               "Cache hits by serving tier");
  hits_disk_ =
      &reg->counter("antdense_cache_hits_total", {{"tier", "disk"}});
  coalesced_ =
      &reg->counter("antdense_cache_hits_total", {{"tier", "coalesced"}});
  misses_ = &reg->counter("antdense_cache_misses_total", {},
                          "Lookups no tier could serve");
  executions_ = &reg->counter("antdense_cache_executions_total", {},
                              "Executions started for cache misses");
  evictions_ = &reg->counter("antdense_cache_evictions_total", {},
                             "Tier-1 LRU evictions");
  entries_gauge_ =
      &reg->gauge("antdense_cache_entries", {}, "Tier-1 entries resident");
  bytes_gauge_ =
      &reg->gauge("antdense_cache_bytes", {}, "Tier-1 payload bytes resident");
  in_flight_gauge_ = &reg->gauge("antdense_cache_in_flight", {},
                                 "Executions running right now");
  journal_bytes_gauge_ =
      &reg->gauge("antdense_cache_journal_bytes", {},
                  "Disk-tier journal size in bytes (append-only)");
  if (journal_path_.empty()) {
    return;
  }
  // Opening the Journal first gives us its torn-tail truncation: after
  // this, every line in the file is complete, so the offset scan below
  // can trust line boundaries.
  journal_ = std::make_unique<campaign::Journal>(journal_path_);
  // Validate the records through the loader (throws on corruption), then
  // index byte ranges with a second cheap pass.  Two passes keep the
  // loader's validation authoritative without teaching it about offsets.
  const std::vector<util::JsonValue> records =
      campaign::Journal::load(journal_path_);
  std::ifstream in(journal_path_, std::ios::binary);
  std::string line;
  std::uint64_t offset = 0;
  std::size_t record_index = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && record_index < records.size()) {
      // Only this cache's own records, in the layout it writes (see the
      // header): anything else misses and is rerun.
      const util::JsonValue& record = records[record_index];
      const util::JsonValue* campaign = record.find("campaign");
      const util::JsonValue* id = record.find("id");
      const util::JsonValue* result = record.find("result");
      if (campaign != nullptr && campaign->is_string() &&
          campaign->as_string() == cache_name_ && id != nullptr &&
          id->is_string() && result != nullptr) {
        const std::size_t length = canonical_payload_length(*result, line);
        if (length > 0) {
          // Last record wins on duplicate ids (an interrupted writer may
          // have raced a restart); both copies hold identical payloads.
          disk_index_[id->as_string()] =
              DiskSlot{offset + line.size() - 1 - length, length};
        }
      }
      ++record_index;
    }
    offset += line.size() + 1;
  }
  file_end_ = offset;
  warm_loaded_ = disk_index_.size();
  journal_bytes_gauge_->set(static_cast<std::int64_t>(file_end_));
  // Opened last: nothing after it throws, so the destructor (which a
  // throwing constructor never reaches) always owns it.
  journal_fd_ = ::open(journal_path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (journal_fd_ < 0) {
    throw std::runtime_error("cannot open cache journal " + journal_path_ +
                             " for reading");
  }
}

ResultCache::~ResultCache() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
  }
}

void ResultCache::update_gauges_locked() {
  entries_gauge_->set(static_cast<std::int64_t>(entries_.size()));
  bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
  in_flight_gauge_->set(static_cast<std::int64_t>(in_flight_.size()));
  journal_bytes_gauge_->set(static_cast<std::int64_t>(file_end_));
}

void ResultCache::insert_memory_locked(const std::string& id,
                                       const std::string& payload) {
  const std::uint64_t cost = payload.size() + id.size();
  if (cost > capacity_bytes_) {
    return;  // would evict everything and still not fit; disk serves it
  }
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    bytes_ -= it->second.payload.size() + id.size();
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  lru_.push_front(id);
  entries_.emplace(id, MemEntry{payload, lru_.begin()});
  bytes_ += cost;
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto vit = entries_.find(victim);
    bytes_ -= vit->second.payload.size() + victim.size();
    entries_.erase(vit);
    lru_.pop_back();
    evictions_->add(1);
  }
  update_gauges_locked();
}

std::string ResultCache::read_disk_slot(const DiskSlot& slot) const {
  std::string payload(slot.length, '\0');
  std::size_t got = 0;
  while (got < payload.size()) {
    const ssize_t n =
        ::pread(journal_fd_, payload.data() + got, payload.size() - got,
                static_cast<off_t>(slot.offset + got));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error("cache journal " + journal_path_ +
                               " lost a cached payload (truncated or "
                               "unreadable)");
    }
    got += static_cast<std::size_t>(n);
  }
  return payload;
}

bool ResultCache::lookup(const std::string& id, std::string* payload) {
  const obs::SpanScope span(trace_, "cache-lookup", "serve");
  DiskSlot slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      hits_memory_->add(1);
      if (payload != nullptr) {
        *payload = it->second.payload;
      }
      return true;
    }
    auto dit = disk_index_.find(id);
    if (dit == disk_index_.end()) {
      misses_->add(1);
      return false;
    }
    slot = dit->second;
  }
  // Disk read outside the lock: pread keeps no file position, so
  // concurrent readers share the descriptor and one slow read never
  // serializes the whole cache.
  std::string loaded = read_disk_slot(slot);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hits_disk_->add(1);
    insert_memory_locked(id, loaded);
  }
  if (payload != nullptr) {
    *payload = std::move(loaded);
  }
  return true;
}

bool ResultCache::in_memory(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(id) != entries_.end();
}

CacheOutcome ResultCache::get_or_run(
    const std::string& id, const std::function<std::string()>& execute) {
  DiskSlot slot;
  bool from_disk = false;
  std::shared_ptr<InFlight> wait_on;
  std::shared_ptr<InFlight> mine;
  {
    const obs::SpanScope span(trace_, "cache-lookup", "serve");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      hits_memory_->add(1);
      return CacheOutcome{it->second.payload, true};
    }
    auto dit = disk_index_.find(id);
    if (dit != disk_index_.end()) {
      slot = dit->second;
      from_disk = true;
    } else {
      auto fit = in_flight_.find(id);
      if (fit != in_flight_.end()) {
        wait_on = fit->second;
        coalesced_->add(1);
      } else {
        mine = std::make_shared<InFlight>();
        in_flight_.emplace(id, mine);
        misses_->add(1);
        executions_->add(1);
        update_gauges_locked();
      }
    }
  }

  if (from_disk) {
    std::string loaded = read_disk_slot(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hits_disk_->add(1);
      insert_memory_locked(id, loaded);
    }
    return CacheOutcome{std::move(loaded), true};
  }

  if (wait_on) {
    std::unique_lock<std::mutex> flock(wait_on->mutex);
    wait_on->cv.wait(flock, [&] { return wait_on->done; });
    if (wait_on->error) {
      std::rethrow_exception(wait_on->error);
    }
    // Served without executing anything: a hit from the requester's
    // point of view, even though the bytes are seconds old.
    return CacheOutcome{wait_on->payload, true};
  }

  // This request owns the execution; the callback runs lock-free.
  std::string payload;
  std::exception_ptr error;
  try {
    payload = execute();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_.erase(id);
    if (!error) {
      if (journal_) {
        // Journal before publishing: a crash between the two leaves a
        // re-runnable miss, never a memory-only result that a restart
        // silently forgets.
        const obs::SpanScope journal_span(trace_, "journal-append", "serve");
        util::JsonValue record = util::JsonValue::object();
        record.set("schema", campaign::kJournalSchema);
        record.set("campaign", cache_name_);
        record.set("id", id);
        record.set("result", util::JsonValue::raw(payload));
        // The payload is the line's last value: it ends right before the
        // closing '}' and the newline.
        file_end_ += journal_->append(record);
        disk_index_[id] = DiskSlot{file_end_ - 2 - payload.size(),
                                   payload.size()};
      }
      insert_memory_locked(id, payload);
    }
    update_gauges_locked();
  }
  {
    std::lock_guard<std::mutex> flock(mine->mutex);
    mine->done = true;
    mine->payload = payload;
    mine->error = error;
  }
  mine->cv.notify_all();
  if (error) {
    std::rethrow_exception(error);
  }
  return CacheOutcome{std::move(payload), false};
}

CacheStats ResultCache::stats() const {
  CacheStats out;
  out.hits_memory = hits_memory_->value();
  out.hits_disk = hits_disk_->value();
  out.misses = misses_->value();
  out.coalesced = coalesced_->value();
  out.executions = executions_->value();
  out.evictions = evictions_->value();
  std::lock_guard<std::mutex> lock(mutex_);
  out.entries = entries_.size();
  out.bytes = bytes_;
  out.capacity_bytes = capacity_bytes_;
  out.in_flight = in_flight_.size();
  out.warm_loaded = warm_loaded_;
  out.journal_bytes = file_end_;
  return out;
}

}  // namespace antdense::serve
