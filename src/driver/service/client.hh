/**
 * @file
 * C++ client for the campaign service: turns a local Campaign into a
 * submit request, streams the responses, and reassembles a
 * CampaignResult — so campaign_run --server produces the same reports
 * (JSON/CSV/summary line) whether points ran locally or were served.
 *
 * Points are submitted by the entries of their canonical spec that
 * differ from a default Experiment's (specDelta): the server applies
 * them onto its own defaults and reconstructs bit-identical
 * experiments and fingerprints. Sending only those keys makes a
 * request about 17x smaller than the full specs (fig12: 8,947 bytes
 * instead of 152,968). The client checks each streamed point's
 * digest, so a server built with other defaults is refused rather
 * than silently running other experiments.
 */

#ifndef TDM_DRIVER_SERVICE_CLIENT_HH
#define TDM_DRIVER_SERVICE_CLIENT_HH

#include <string>

#include "driver/campaign/engine.hh"
#include "driver/service/protocol.hh"
#include "driver/service/socket.hh"

namespace tdm::driver::service {

/** The entries of @p canonical that differ from a default
 *  Experiment's spec: what submit() sends for a point. spec::apply()
 *  of them gives back an experiment with the same canonical spec. */
sim::Config specDelta(const sim::Config &canonical);

/** A connected service client. Not thread-safe (one request at a
 *  time, like the protocol). */
class ServiceClient
{
  public:
    /** Connect to "unix:PATH" / "tcp:HOST:PORT"; throws
     *  std::runtime_error on connect failure. */
    explicit ServiceClient(const std::string &address);

    /**
     * Submit @p c and stream results. Returns the reassembled
     * CampaignResult (jobs in point order; dedup counters from the
     * server's done event). @p onJob, when set, fires per streamed
     * point in arrival order. Throws std::runtime_error on protocol
     * errors or a dropped connection; server-side per-point failures
     * come back inside the jobs, like a local run.
     */
    campaign::CampaignResult
    submit(const campaign::Campaign &c,
           const campaign::JobCallback &onJob = nullptr);

    /** Round-trip a ping; false when the server is unreachable. */
    bool ping();

    /** Server counters. Throws on protocol errors. */
    StatusInfo status();

    /** Ask the server to shut down (acknowledged with "bye"). */
    void shutdownServer();

  private:
    /** Send one line, read one response object. */
    JsonValue roundTrip(const std::string &request);

    Socket sock_;
    std::string address_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_CLIENT_HH
