#include "obs/timeseries.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"
#include "util/fileio.hpp"

namespace bfly::obs {

// ---------------------------------------------------------------------------
// TimeSeries

TimeSeries::TimeSeries(u64 sample_budget) : budget_(sample_budget) {
  BFLY_REQUIRE(sample_budget >= 2, "TimeSeries sample budget must be >= 2");
}

void TimeSeries::reset_channels(std::vector<std::string> channels) {
  BFLY_REQUIRE(!channels.empty(), "TimeSeries needs at least one channel");
  channels_ = std::move(channels);
  cycles_.clear();
  data_.clear();
  stride_ = 1;
}

void TimeSeries::record(u64 cycle, std::span<const double> values) {
  BFLY_REQUIRE(values.size() == channels_.size(),
               "TimeSeries row width must match the channel count");
  if ((cycle & (stride_ - 1)) != 0) return;
  BFLY_CHECK(cycles_.empty() || cycle > cycles_.back(),
             "TimeSeries cycles must be strictly increasing");
  cycles_.push_back(cycle);
  data_.insert(data_.end(), values.begin(), values.end());
  if (cycles_.size() > budget_) thin();
}

void TimeSeries::thin() {
  // Doubling the stride keeps exactly the rows whose cycle is an even
  // multiple of the old stride.  Rows were consecutive multiples before, so
  // they are consecutive multiples of the new stride after — the equal-
  // spacing invariant the mean-based analytics rely on.
  stride_ <<= 1;
  const std::size_t width = channels_.size();
  std::size_t kept = 0;
  for (std::size_t row = 0; row < cycles_.size(); ++row) {
    if ((cycles_[row] & (stride_ - 1)) != 0) continue;
    cycles_[kept] = cycles_[row];
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(row * width), width,
                data_.begin() + static_cast<std::ptrdiff_t>(kept * width));
    ++kept;
  }
  cycles_.resize(kept);
  data_.resize(kept * width);
}

std::size_t TimeSeries::channel_index(std::string_view name) const {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i] == name) return i;
  }
  return npos;
}

double TimeSeries::value(std::size_t row, std::size_t channel) const {
  BFLY_REQUIRE(row < cycles_.size() && channel < channels_.size(),
               "TimeSeries sample index out of range");
  return data_[row * channels_.size() + channel];
}

std::span<const double> TimeSeries::row(std::size_t index) const {
  BFLY_REQUIRE(index < cycles_.size(), "TimeSeries row index out of range");
  return {data_.data() + index * channels_.size(), channels_.size()};
}

std::vector<double> TimeSeries::channel_values(std::size_t channel) const {
  BFLY_REQUIRE(channel < channels_.size(), "TimeSeries channel index out of range");
  std::vector<double> out;
  out.reserve(cycles_.size());
  for (std::size_t row = 0; row < cycles_.size(); ++row) {
    out.push_back(data_[row * channels_.size() + channel]);
  }
  return out;
}

json::Value TimeSeries::to_json() const {
  json::Value v = json::Value::object();
  v.set("v", json::Value::number(u64{1}));
  v.set("budget", json::Value::number(budget_));
  v.set("stride", json::Value::number(stride_));
  json::Value channels = json::Value::array();
  for (const std::string& name : channels_) channels.push_back(json::Value::string(name));
  v.set("channels", std::move(channels));
  json::Value cycles = json::Value::array();
  for (const u64 c : cycles_) cycles.push_back(json::Value::number(c));
  v.set("cycles", std::move(cycles));
  json::Value samples = json::Value::array();
  for (std::size_t r = 0; r < cycles_.size(); ++r) {
    json::Value row = json::Value::array();
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      row.push_back(json::Value::number(data_[r * channels_.size() + c]));
    }
    samples.push_back(std::move(row));
  }
  v.set("samples", std::move(samples));
  return v;
}

TimeSeries TimeSeries::from_json(const json::Value& v) {
  BFLY_REQUIRE(v.is_object(), "timeseries block must be a JSON object");
  BFLY_REQUIRE(v.at("v").as_u64() == 1, "unsupported timeseries encoding version");
  TimeSeries ts(v.at("budget").as_u64());
  const json::Value& channels = v.at("channels");
  BFLY_REQUIRE(channels.is_array(), "timeseries channels must be an array");
  std::vector<std::string> names;
  names.reserve(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    names.push_back(channels.at(i).as_string());
  }
  // An empty channel list round-trips a series no engine ever filled.
  if (!names.empty()) ts.reset_channels(std::move(names));
  const u64 stride = v.at("stride").as_u64();
  BFLY_REQUIRE(stride >= 1 && std::has_single_bit(stride),
               "timeseries stride must be a power of two");
  ts.stride_ = stride;
  const json::Value& cycles = v.at("cycles");
  const json::Value& samples = v.at("samples");
  BFLY_REQUIRE(cycles.is_array() && samples.is_array() && cycles.size() == samples.size(),
               "timeseries cycles/samples must be arrays of equal length");
  BFLY_REQUIRE(cycles.size() <= ts.budget_, "timeseries has more samples than its budget");
  const std::size_t width = ts.channels_.size();
  for (std::size_t r = 0; r < cycles.size(); ++r) {
    const u64 cycle = cycles.at(r).as_u64();
    BFLY_REQUIRE((cycle & (stride - 1)) == 0, "timeseries cycle off the stride grid");
    BFLY_REQUIRE(ts.cycles_.empty() || cycle > ts.cycles_.back(),
                 "timeseries cycles must be strictly increasing");
    const json::Value& row = samples.at(r);
    BFLY_REQUIRE(row.is_array() && row.size() == width,
                 "timeseries sample row width must match the channel count");
    ts.cycles_.push_back(cycle);
    for (std::size_t c = 0; c < width; ++c) {
      ts.data_.push_back(row.at(c).as_double());
    }
  }
  return ts;
}

bool operator==(const TimeSeries& a, const TimeSeries& b) {
  if (a.budget_ != b.budget_ || a.stride_ != b.stride_) return false;
  if (a.channels_ != b.channels_ || a.cycles_ != b.cycles_) return false;
  if (a.data_.size() != b.data_.size()) return false;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    // Bit-pattern comparison: replay identity is exact, not epsilon.
    if (std::bit_cast<u64>(a.data_[i]) != std::bit_cast<u64>(b.data_[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Analytics

namespace {

double mean_range(const TimeSeries& ts, std::size_t channel, std::size_t first,
                  std::size_t last_exclusive) {
  double sum = 0.0;
  for (std::size_t r = first; r < last_exclusive; ++r) sum += ts.value(r, channel);
  const std::size_t count = last_exclusive - first;
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

SteadyState steady_state_onset(const TimeSeries& ts, std::string_view channel,
                               std::size_t window, double tolerance) {
  BFLY_REQUIRE(window >= 1, "steady-state window must be >= 1");
  SteadyState out;
  const std::size_t ch = ts.channel_index(channel);
  const std::size_t n = ts.num_samples();
  if (ch == TimeSeries::npos || n < 2 * window) return out;
  // Reference: the mean over the last half of the run, where the transient
  // (if the run reaches steady state at all) has died out.
  const double ref = mean_range(ts, ch, n / 2, n);
  const double band = tolerance * std::abs(ref);
  for (std::size_t i = 0; i + window <= n; ++i) {
    const double m = mean_range(ts, ch, i, i + window);
    if (std::abs(m - ref) <= band) {
      out.found = true;
      out.sample_index = i;
      out.cycle = ts.cycles()[i];
      return out;
    }
  }
  return out;
}

LittlesLawCheck littles_law_check(const TimeSeries& ts, double tolerance) {
  LittlesLawCheck out;
  const std::size_t ch_l = ts.channel_index(kChannelInFlight);
  const std::size_t ch_d = ts.channel_index(kChannelDelivered);
  const std::size_t ch_w = ts.channel_index(kChannelLatencySum);
  const std::size_t n = ts.num_samples();
  if (ch_l == TimeSeries::npos || ch_d == TimeSeries::npos ||
      ch_w == TimeSeries::npos || n < 4) {
    return out;
  }
  const SteadyState steady = steady_state_onset(ts, kChannelInFlight);
  const std::size_t first = steady.found ? steady.sample_index : n / 2;
  const std::size_t last = n - 1;
  if (first >= last) return out;
  const double d_delivered = ts.value(last, ch_d) - ts.value(first, ch_d);
  const double d_latency = ts.value(last, ch_w) - ts.value(first, ch_w);
  const double d_cycles =
      static_cast<double>(ts.cycles()[last] - ts.cycles()[first]);
  if (d_delivered <= 0.0 || d_cycles <= 0.0) return out;
  out.applicable = true;
  out.steady_from_cycle = ts.cycles()[first];
  out.lambda = d_delivered / d_cycles;
  out.w = d_latency / d_delivered;
  // Mean occupancy over the steady window; samples are equally spaced (the
  // stride invariant), so the plain mean is the time-weighted mean.
  out.l = mean_range(ts, ch_l, first, last + 1);
  const double predicted = out.lambda * out.w;
  const double scale = std::max(out.l, predicted);
  out.rel_error = scale <= 0.0 ? 0.0 : std::abs(out.l - predicted) / scale;
  out.pass = out.rel_error <= tolerance;
  return out;
}

// ---------------------------------------------------------------------------
// OccupancyFrames

OccupancyFrames::OccupancyFrames(u64 frame_budget) : budget_(frame_budget) {
  BFLY_REQUIRE(frame_budget >= 2, "OccupancyFrames budget must be >= 2");
}

void OccupancyFrames::record(u64 cycle, std::span<const double> link_occupancy) {
  if ((cycle & (stride_ - 1)) != 0) return;
  if (cycles_.empty()) {
    num_links_ = link_occupancy.size();
  }
  BFLY_REQUIRE(link_occupancy.size() == num_links_,
               "OccupancyFrames frame width must stay constant");
  BFLY_CHECK(cycles_.empty() || cycle > cycles_.back(),
             "OccupancyFrames cycles must be strictly increasing");
  cycles_.push_back(cycle);
  data_.insert(data_.end(), link_occupancy.begin(), link_occupancy.end());
  if (cycles_.size() > budget_) thin();
}

void OccupancyFrames::thin() {
  stride_ <<= 1;
  std::size_t kept = 0;
  for (std::size_t row = 0; row < cycles_.size(); ++row) {
    if ((cycles_[row] & (stride_ - 1)) != 0) continue;
    cycles_[kept] = cycles_[row];
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(row * num_links_), num_links_,
                data_.begin() + static_cast<std::ptrdiff_t>(kept * num_links_));
    ++kept;
  }
  cycles_.resize(kept);
  data_.resize(kept * num_links_);
}

std::span<const double> OccupancyFrames::frame(std::size_t index) const {
  BFLY_REQUIRE(index < cycles_.size(), "OccupancyFrames frame index out of range");
  return {data_.data() + index * num_links_, num_links_};
}

// ---------------------------------------------------------------------------
// Live telemetry sink

std::string telemetry_path_from_env() {
  const char* path = std::getenv("BFLY_TELEMETRY_FILE");
  return path == nullptr ? std::string() : std::string(path);
}

void append_telemetry_line(const std::string& path, const json::Value& record) {
  util::append_line_durable(path, record.dump());
}

}  // namespace bfly::obs
