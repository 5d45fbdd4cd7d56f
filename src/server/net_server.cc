#include "server/net_server.h"

#include <sys/socket.h>

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "core/kernels/scan_kernel.h"
#include "server/wire.h"

namespace gdim {

NetServer::NetServer(BatchExecutor* executor, NetServerOptions options)
    : executor_(executor), options_(std::move(options)) {
  GDIM_CHECK(executor_ != nullptr);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  GDIM_CHECK(!started_) << "NetServer::Start called twice";
  Result<ScopedFd> listening =
      ListenTcp(options_.host, options_.port, options_.backlog, &port_);
  if (!listening.ok()) return listening.status();
  listen_fd_ = std::move(listening).value();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

uint64_t NetServer::connections_accepted() const {
  MutexLock lock(&mu_);
  return connections_accepted_;
}

void NetServer::Stop() {
  if (!started_) return;
  {
    MutexLock lock(&mu_);
    if (stopping_) return;
    stopping_ = true;
    // Severing the sockets pops every handler out of its blocking recv.
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  accept_thread_.join();
  listen_fd_.reset();
  MutexLock lock(&mu_);
  while (active_connections_ != 0) drained_cv_.Wait(&mu_);
}

void NetServer::AcceptLoop() {
  for (;;) {
    Result<ScopedFd> accepted = AcceptTcp(listen_fd_.get());
    if (!accepted.ok()) {
      MutexLock lock(&mu_);
      if (stopping_) return;
      continue;  // transient accept failure (EINTR, aborted handshake)
    }
    const int fd = accepted->release();
    bool reject = false;
    {
      MutexLock lock(&mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      if (active_connections_ >= options_.max_connections) {
        reject = true;
      } else {
        ++connections_accepted_;
        ++active_connections_;
        live_fds_.insert(fd);
      }
    }
    if (reject) {
      SendAll(fd, FormatErrorResponse(Status::ResourceExhausted(
                      "connection limit reached")) +
                      "\n");
      ::close(fd);
      continue;
    }
    // Detached: HandleConnection deregisters itself and signals drained_cv_,
    // and Stop() waits for that, so the thread never outlives the server.
    std::thread([this, fd] { HandleConnection(fd); }).detach();
  }
}

void NetServer::HandleConnection(int fd) {
  LineReader reader(fd);
  for (;;) {
    Result<std::optional<std::string>> line = reader.ReadLine();
    if (!line.ok()) {
      // An over-long line is a protocol error, not a transport error: the
      // reader has already resynchronized past the offending newline, so
      // answer with a typed ERR and keep serving the connection. Real
      // socket failures (IoError) still end it.
      if (line.status().code() == StatusCode::kInvalidArgument) {
        if (!SendAll(fd, FormatErrorResponse(line.status()) + "\n").ok()) {
          break;
        }
        continue;
      }
      break;
    }
    if (!line->has_value()) break;  // EOF
    if ((*line)->empty()) continue;  // tolerate blank lines
    bool quit = false;
    const std::string response = HandleLine(**line, &quit);
    if (!SendAll(fd, response + "\n").ok()) break;
    if (quit) break;
  }
  // Deregister, close, and signal under one lock: erasing before close (a
  // closed fd number can be reused by a concurrent accept, which would
  // clobber the new connection's registration) and notifying while locked
  // (Stop() may destroy the server the moment the drain predicate holds).
  {
    MutexLock lock(&mu_);
    live_fds_.erase(fd);
    ::close(fd);
    --active_connections_;
    drained_cv_.NotifyAll();
  }
}

std::string NetServer::HandleLine(const std::string& line, bool* quit) {
  Result<WireRequest> parsed = ParseWireRequest(line);
  if (!parsed.ok()) return FormatErrorResponse(parsed.status());
  WireRequest& request = *parsed;
  switch (request.verb) {
    case WireVerb::kQuery: {
      if (request.trace) {
        QueryTrace trace;
        Result<Ranking> ranking = executor_->Query(std::move(request.graph),
                                                   request.options, &trace);
        if (!ranking.ok()) return FormatErrorResponse(ranking.status());
        return FormatTraceLine(trace) + "\n" + FormatRankingResponse(*ranking);
      }
      Result<Ranking> ranking =
          executor_->Query(std::move(request.graph), request.options);
      if (!ranking.ok()) return FormatErrorResponse(ranking.status());
      return FormatRankingResponse(*ranking);
    }
    case WireVerb::kInsert: {
      Result<int> id = executor_->Insert(std::move(request.graph));
      if (!id.ok()) return FormatErrorResponse(id.status());
      return "OK " + std::to_string(*id);
    }
    case WireVerb::kRemove: {
      Status status = executor_->Remove(request.id);
      if (!status.ok()) return FormatErrorResponse(status);
      return "OK removed " + std::to_string(request.id);
    }
    case WireVerb::kCompact: {
      Result<int> reclaimed = executor_->Compact();
      if (!reclaimed.ok()) return FormatErrorResponse(reclaimed.status());
      return "OK compacted " + std::to_string(*reclaimed);
    }
    case WireVerb::kReindex: {
      Result<ReindexReport> report = executor_->Reindex(request.p);
      if (!report.ok()) return FormatErrorResponse(report.status());
      return "OK reindexed generation=" + std::to_string(report->generation) +
             " features=" + std::to_string(report->features);
    }
    case WireVerb::kSnapshot: {
      Status status = executor_->Snapshot(std::move(request.path));
      if (!status.ok()) return FormatErrorResponse(status);
      return "OK snapshot";
    }
    case WireVerb::kStats: {
      Result<EngineGauges> gauges = executor_->Gauges();
      if (!gauges.ok()) return FormatErrorResponse(gauges.status());
      const BatchExecutorStats stats = executor_->Stats();
      char out[2048];
      std::snprintf(
          out, sizeof(out),
          "OK graphs=%d shards=%d features=%d physical_rows=%d "
          "tombstones=%d accepted=%llu rejected=%llu "
          "completed=%llu batches=%llu mutations=%llu queued=%zu "
          "queue_depth=%zu queue_high_watermark=%zu "
          "p50_ms=%.3f p99_ms=%.3f epoch=%llu cache_hits=%llu "
          "cache_misses=%llu cache_evictions=%llu cache_entries=%zu "
          "cache_bytes=%zu snapshots_in_progress=%llu "
          "snapshots_completed=%llu dimension_generation=%llu "
          "reindex_in_progress=%llu reindex_completed=%llu "
          "approx_queries=%llu approx_candidates_scanned=%llu "
          "approx_rows_pruned=%llu ivf_buckets=%d kernel=%s "
          "uptime_seconds=%lld start_epoch=%lld",
          gauges->graphs, gauges->shards, gauges->features,
          gauges->physical_rows, gauges->tombstones,
          static_cast<unsigned long long>(stats.accepted),
          static_cast<unsigned long long>(stats.rejected),
          static_cast<unsigned long long>(stats.completed),
          static_cast<unsigned long long>(stats.batches),
          static_cast<unsigned long long>(stats.mutations), stats.queued,
          stats.queued, stats.queue_high_watermark,
          stats.latency_ms.p50, stats.latency_ms.p99,
          static_cast<unsigned long long>(gauges->epoch),
          static_cast<unsigned long long>(stats.cache.hits),
          static_cast<unsigned long long>(stats.cache.misses),
          static_cast<unsigned long long>(stats.cache.evictions),
          stats.cache.entries, stats.cache.bytes,
          static_cast<unsigned long long>(stats.snapshots_in_progress),
          static_cast<unsigned long long>(stats.snapshots_completed),
          static_cast<unsigned long long>(gauges->generation),
          static_cast<unsigned long long>(stats.reindexes_in_progress),
          static_cast<unsigned long long>(stats.reindexes_completed),
          static_cast<unsigned long long>(stats.approx_queries),
          static_cast<unsigned long long>(stats.approx_candidates_scanned),
          static_cast<unsigned long long>(stats.approx_rows_pruned),
          gauges->ivf_buckets, ActiveScanKernel().name(),
          static_cast<long long>(stats.uptime_seconds),
          stats.start_epoch);
      return out;
    }
    case WireVerb::kMetrics:
      // Multi-line Prometheus exposition; the terminating '# EOF' line lets
      // a line-oriented client know where the scrape ends.
      return executor_->MetricsText() + "# EOF";
    case WireVerb::kPing:
      return "OK pong";
    case WireVerb::kQuit:
      *quit = true;
      return "OK bye";
  }
  return FormatErrorResponse(Status::Internal("unhandled verb"));
}

}  // namespace gdim
