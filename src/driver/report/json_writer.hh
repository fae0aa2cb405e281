/**
 * @file
 * JSON export of campaign results: one document per run, with campaign
 * totals (wall clock, cache hits) and the full per-job metric set, for
 * downstream plotting/analysis pipelines.
 */

#ifndef TDM_DRIVER_REPORT_JSON_WRITER_HH
#define TDM_DRIVER_REPORT_JSON_WRITER_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "driver/campaign/engine.hh"

namespace tdm::driver::report {

/** Write several campaigns as one {"campaigns": [...]} document. */
void writeJson(std::ostream &os,
               const std::vector<campaign::CampaignResult> &campaigns);

/** Convenience: a single campaign. */
void writeJson(std::ostream &os, const campaign::CampaignResult &c);

/** JSON-escape @p s (without surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** Append @p s to @p out, JSON-escaped (without surrounding quotes). */
void jsonEscape(std::string &out, std::string_view s);

/**
 * Append @p v with 17 significant digits, byte for byte what printf's
 * "%.17g" writes: finite doubles parse back bit-exactly, non-finite
 * ones read "inf", "-inf", "nan" or "-nan". The one double formatter
 * of the JSON and CSV exports, the service protocol and the result
 * store, so a metric serializes to identical bytes on every path.
 */
void appendDouble(std::string &out, double v);

/** Write @p v as a JSON number: appendDouble() for finite values,
 *  null for non-finite ones. */
void jsonNumber(std::ostream &os, double v);

/** Append @p v as a JSON number (see the stream overload). */
void jsonNumber(std::string &out, double v);

} // namespace tdm::driver::report

#endif // TDM_DRIVER_REPORT_JSON_WRITER_HH
