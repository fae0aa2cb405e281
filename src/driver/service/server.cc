#include "driver/service/server.hh"

#include <sstream>
#include <string_view>
#include <utility>

#include "driver/report/json_writer.hh"
#include "driver/spec/spec.hh"
#include "sim/logging.hh"

namespace tdm::driver::service {

namespace {

/** Protocol lines end in '\n'; bus payloads (SSE data) must not. */
std::string_view
chomp(const std::string &line)
{
    std::string_view v(line);
    if (!v.empty() && v.back() == '\n')
        v.remove_suffix(1);
    return v;
}

} // namespace

CampaignServer::CampaignServer(const Address &addr, ServerOptions opts)
    : opts_(std::move(opts)),
      store_(opts_.storeDir.empty()
                 ? nullptr
                 : std::make_unique<ResultStore>(opts_.storeDir)),
      engine_([&] {
          campaign::EngineOptions eo = opts_.engine;
          eo.backend = store_.get();
          return std::make_unique<campaign::CampaignEngine>(eo);
      }()),
      acceptor_(addr, [this](Socket &sock) { handleClient(sock); }),
      started_(std::chrono::steady_clock::now())
{
    if (!opts_.httpAddr.empty()) {
        bus_ = std::make_unique<ProgressBus>();
        registry_ = std::make_unique<CampaignRegistry>();
        dashboard_ = std::make_unique<Dashboard>(
            *registry_, *bus_, store_.get(),
            [this] { return status(); });
        http_ = std::make_unique<HttpServer>(
            parseAddress(opts_.httpAddr),
            [this](const HttpRequest &req, Socket &sock,
                   const std::atomic<bool> &stopping) {
                dashboard_->handle(req, sock, stopping);
            });
    }
    if (opts_.verbose) {
        sim::inform("campaign_serve: listening on ",
                    acceptor_.address().display(),
                    store_ ? " (store: " + store_->versionDir() + ")"
                           : " (no persistent store)");
        if (http_)
            sim::inform("campaign_serve: dashboard on ",
                        http_->address().display());
    }
}

CampaignServer::~CampaignServer() { stop(); }

void
CampaignServer::stop()
{
    // Dashboard first: closing the bus unblocks SSE sessions waiting
    // in Subscription::next(), then the HTTP stop joins their threads.
    if (bus_)
        bus_->close();
    if (http_)
        http_->stop();
    acceptor_.stop();
}

void
CampaignServer::handleClient(Socket &sock)
{
    if (opts_.verbose)
        sim::inform("campaign_serve: client connected");
    std::string line;
    while (!acceptor_.stopping().load() && sock.readLine(line)) {
        if (line.empty())
            continue;
        Request req;
        std::string error;
        if (!parseRequest(line, req, error)) {
            std::ostringstream out;
            writeError(out, error);
            if (!sock.sendAll(out.str()))
                break;
            continue;
        }
        if (req.op == RequestOp::Ping) {
            std::ostringstream out;
            writePong(out);
            if (!sock.sendAll(out.str()))
                break;
        } else if (req.op == RequestOp::Status) {
            std::ostringstream out;
            writeStatus(out, status());
            if (!sock.sendAll(out.str()))
                break;
        } else if (req.op == RequestOp::Shutdown) {
            std::ostringstream out;
            writeBye(out);
            sock.sendAll(out.str());
            if (opts_.verbose)
                sim::inform(
                    "campaign_serve: shutdown requested by client");
            stop();
            break;
        } else {
            handleSubmit(sock, req.submit);
        }
    }
    if (sock.lineTooLong()) {
        // The rest of the stream cannot be framed: answer once, then
        // the acceptor closes this connection.
        std::ostringstream out;
        writeError(out, "request line exceeds "
                            + std::to_string(Socket::kMaxLineBytes)
                            + " bytes");
        sock.sendAll(out.str());
    }
}

void
CampaignServer::handleSubmit(Socket &sock, const SubmitRequest &req)
{
    campaign::Campaign c;
    try {
        c = buildCampaign(req);
    } catch (const std::exception &e) {
        std::ostringstream out;
        writeError(out, e.what());
        sock.sendAll(out.str());
        return;
    }
    const std::uint64_t id = nextId_.fetch_add(1);
    if (opts_.verbose)
        sim::inform("campaign_serve: submit #", id, " '", c.name, "' (",
                    c.points.size(), " points)");
    {
        std::ostringstream out;
        writeAccepted(out, id, c.name, c.points.size());
        const std::string line = out.str();
        if (!sock.sendAll(line))
            return;
        if (bus_) {
            registry_->accepted(id, c.name, c.points.size(),
                                c.metrics);
            bus_->publish("accepted", chomp(line));
        }
    }

    // Stream each point as the engine resolves it. A send failure
    // cannot abort the run (the engine owns the jobs; other clients
    // may be attached to them) — we just stop streaming. The point
    // JSON is rendered once and shared by the socket and the bus, so
    // a dashboard sees the exact bytes the client got. The engine
    // serializes the callbacks, so one line buffer (and one progress
    // buffer) serves them all.
    bool sendOk = true;
    const std::string metricsPattern = c.metrics;
    std::uint64_t bySource[5] = {0, 0, 0, 0, 0};
    std::size_t doneCount = 0;
    std::string line;
    std::string progress;
    const campaign::CampaignResult result = engine_->run(
        c, [&](const campaign::JobResult &job, std::size_t index,
               std::size_t total) {
            if (!sendOk && !bus_)
                return;
            line.clear();
            writePoint(line, id, job, index, total, metricsPattern);
            if (sendOk)
                sendOk = sock.sendAll(line);
            if (!bus_)
                return;
            registry_->point(id, job, index);
            bus_->publish("point", chomp(line));
            // The progress event is dashboard sugar: completion
            // fraction, per-source split, and a naive ETA from the
            // mean per-point pace so far.
            ++doneCount;
            ++bySource[static_cast<int>(job.source)];
            const double elapsed = job.doneAtMs;
            const double eta =
                (doneCount > 0 && doneCount < total)
                    ? elapsed / static_cast<double>(doneCount) *
                          static_cast<double>(total - doneCount)
                    : 0.0;
            progress.clear();
            const auto count = [&](const char *prefix, std::uint64_t v) {
                progress += prefix;
                progress += std::to_string(v);
            };
            count("{\"id\":", id);
            count(",\"done\":", doneCount);
            count(",\"total\":", total);
            count(",\"served\":{\"simulated\":", bySource[0]);
            count(",\"memory\":", bySource[1]);
            count(",\"disk\":", bySource[2]);
            count(",\"inflight\":", bySource[3]);
            count(",\"forked\":", bySource[4]);
            progress += "},\"elapsed_ms\":";
            report::jsonNumber(progress, elapsed);
            progress += ",\"eta_ms\":";
            report::jsonNumber(progress, eta);
            progress += '}';
            bus_->publish("progress", progress);
        });

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++campaigns_;
        points_ += result.jobs.size();
        simulated_ += result.simulated;
        fromMemory_ += result.fromMemory;
        fromDisk_ += result.fromDisk;
        fromInflight_ += result.fromInflight;
        fromForked_ += result.fromForked;
    }
    if (opts_.verbose)
        sim::inform("campaign_serve: submit #", id, " done: ",
                    result.simulated, " simulated, ",
                    result.fromForked, " forked, ",
                    result.fromMemory, " memory, ", result.fromDisk,
                    " disk, ", result.fromInflight, " inflight");
    std::ostringstream out;
    writeDone(out, id, result);
    line = out.str();
    if (bus_) {
        registry_->done(id, result);
        bus_->publish("done", chomp(line));
    }
    if (sendOk)
        sock.sendAll(line);
}

StatusInfo
CampaignServer::status() const
{
    StatusInfo info;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        info.campaigns = campaigns_;
        info.points = points_;
        info.simulated = simulated_;
        info.fromMemory = fromMemory_;
        info.fromDisk = fromDisk_;
        info.fromInflight = fromInflight_;
        info.fromForked = fromForked_;
    }
    info.cachePoints = engine_->cache().size();
    info.inflight = engine_->inflightCount();
    info.threads = engine_->options().threads;
    info.uptimeMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started_)
                        .count();
    if (store_) {
        const StoreStats stats = store_->stats();
        info.hasStore = true;
        info.storeDir = store_->dir();
        info.storeBlobs = stats.blobs;
        info.storeBytes = stats.bytes;
        info.storeHits = stats.hits;
        info.storeMisses = stats.misses;
        info.storeStores = stats.stores;
        info.storeCorrupt = stats.corrupt;
    }
    if (http_) {
        info.hasHttp = true;
        info.httpAddr = http_->address().display();
        info.httpRequests = http_->requests();
        info.sseSubscribers = bus_->subscribers();
        info.busPublished = bus_->published();
        info.busDropped = bus_->dropped();
    }
    return info;
}

} // namespace tdm::driver::service
